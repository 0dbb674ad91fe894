//! `rstore-benchmark`: the perf ledger of the RStore reproduction.
//!
//! One command times bulk load → online replay → compaction →
//! restart → the four query classes under four named workloads,
//! checks every answer against an oracle, and prints every metric by
//! name with its unit; `--trace 1` repeats the workload with spans
//! around each call into the library and emits the per-layer metrics
//! instead. See `README.md` beside this package's manifest.

mod compare;
mod ingest;
mod json;
mod metrics;
mod oracle;
mod probe;
mod reads;
mod rng;
mod run;
mod stats;
mod trace;
mod workload;

use json::Json;
use run::{RunConfig, RunResult};
use std::process::ExitCode;
use workload::{Workload, WORKLOADS};

const SMOKE_SECONDS: f64 = 1.0;
/// The contract's cap on `--seconds`.
const MAX_SECONDS: f64 = 60.0;

const USAGE: &str = "usage:
  rstore-benchmark --workload <read_cold|read_hot|read_lan|ingest_online|all> --seed <n>
                   [--seconds <1..60>] [--trace [0|1]] [--smoke] [--out <results.json>]
  rstore-benchmark compare <a.json> <b.json>
  rstore-benchmark manifest        (prints BENCHMARK.json from the metric tables)";

struct Cli {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let (mut trace, mut smoke, mut out) = (false, false, None);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workloads = Some(if name == "all" {
                    WORKLOADS.iter().collect()
                } else {
                    vec![workload::find(&name).ok_or(format!("unknown workload {name:?}"))?]
                });
            }
            "--seed" => {
                seed = Some(
                    value("a number")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value("a number")?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= MAX_SECONDS) {
                    return Err(format!("--seconds must lie in (0, {MAX_SECONDS}]"));
                }
                seconds = Some(s);
            }
            "--out" => out = Some(value("a file name")?),
            "--smoke" => smoke = true,
            // A bare `--trace` means 1; the driver passes `--trace 0|1`.
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Cli {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(if smoke {
            SMOKE_SECONDS
        } else {
            metrics::RUN_SECONDS
        }),
        trace,
        smoke,
        out,
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(result: &RunResult) -> Result<Json, String> {
    Ok(Json::obj([
        ("correct", Json::Bool(result.failed == 0)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", result.values.to_json(&result.defs)?),
    ]))
}

fn print_human(cli: &Cli, workload: &Workload, result: &RunResult) {
    println!(
        "\n== {} (seed {}, {}{}) — {}",
        workload.name,
        result.seed,
        if cli.trace {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        },
        if cli.smoke {
            ", SMOKE: timings are not comparable"
        } else {
            ""
        },
        workload.why
    );
    for note in &result.notes {
        println!("   {note}");
    }
    for def in &result.defs {
        if let Some(value) = result.values.get(&def.name) {
            println!("{:<48} {:>18.6} {}", def.name, value, def.unit);
        }
    }
}

/// Appends the run to the result file `path` (`{"runs": [...]}`).
fn append_run(path: &str, cli: &Cli, result: &RunResult, line: &Json) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)?
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or(format!("{path} is not a result file"))?
            .to_vec(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    let fp = result.fingerprint;
    let mut run = vec![
        ("workload".to_string(), Json::Str(result.workload.into())),
        ("seed".to_string(), Json::Num(result.seed as f64)),
        ("seconds".to_string(), Json::Num(cli.seconds)),
        ("trace".to_string(), Json::Bool(cli.trace)),
        ("comparable".to_string(), Json::Bool(!cli.smoke)),
        (
            "input".to_string(),
            Json::obj([
                ("versions", Json::Num(fp.versions as f64)),
                ("distinct_records", Json::Num(fp.distinct_records as f64)),
                ("distinct_bytes", Json::Num(fp.distinct_bytes as f64)),
                (
                    "payload_fnv1a",
                    Json::Str(format!("{:016x}", fp.payload_fnv)),
                ),
            ]),
        ),
    ];
    run.extend(
        line.as_obj()
            .expect("the result line is an object")
            .iter()
            .cloned(),
    );
    runs.push(Json::Obj(run));
    let doc = Json::obj([("runs", Json::Arr(runs))]);
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))
}

fn run_all(cli: &Cli) -> Result<bool, String> {
    metrics::validate(&metrics::end_to_end(), &metrics::per_layer())?;
    let mut clean = true;
    for workload in &cli.workloads {
        let result = run::run(RunConfig {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            smoke: cli.smoke,
        })?;
        let line = result_line(&result)?;
        print_human(cli, workload, &result);
        if let Some(path) = &cli.out {
            append_run(path, cli, &result, &line)?;
        }
        // Last on standard output, on a line of its own.
        println!("{}", line.render());
        clean &= result.failed == 0;
    }
    Ok(clean)
}

/// `BENCHMARK.json` layout: one top-level key per line, one list
/// entry per line.
fn pretty(manifest: &Json) -> String {
    let keys = manifest.as_obj().expect("the manifest is an object");
    let members: Vec<String> = keys
        .iter()
        .map(|(key, value)| match value.as_arr() {
            Some(items) if items.iter().any(|i| i.as_obj().is_some()) => {
                let rows: Vec<String> = items
                    .iter()
                    .map(|i| format!("    {}", i.render()))
                    .collect();
                format!("  \"{key}\": [\n{}\n  ]", rows.join(",\n"))
            }
            _ => format!("  \"{key}\": {}", value.render()),
        })
        .collect();
    format!("{{\n{}\n}}", members.join(",\n"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("manifest") if args.len() == 1 => {
            println!("{}", pretty(&metrics::manifest()));
            Ok(true)
        }
        Some("compare") | Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        _ => match parse(&args) {
            Ok(cli) => run_all(&cli),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Wrong answers, failed operations or a regression.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("rstore-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
