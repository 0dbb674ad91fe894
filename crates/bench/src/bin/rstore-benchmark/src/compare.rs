//! `compare <a.json> <b.json>`: applies each end-to-end metric's
//! direction and bound to two result files (sets of runs written by
//! `--out`), one row per workload × metric.

use crate::json::Json;
use crate::metrics::{self, MetricDef};
use crate::stats::{median, quartile_spread};
use std::collections::BTreeMap;

/// How one workload × metric compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is within the bound of `a`'s, or better.
    Within,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Regressed,
    /// A file's own run-to-run spread exceeds the bound, so the
    /// medians cannot resolve a difference of that size — unless
    /// every run of `b` reads better than every run of `a`.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Share of `a` by which `b` is worse (negative: better).
    pub worsening: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// `workload → metric → values over the file's runs`.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads the untraced runs of a result file.
pub fn read_runs(text: &str) -> Result<Runs, String> {
    let doc = Json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("result file has no \"runs\" list")?;
    let mut out = Runs::new();
    for run in runs {
        if run.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload name")?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("run without metrics")?;
        let by_metric = out.entry(workload.to_string()).or_default();
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name} has no value"))?;
            by_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(out)
}

/// Compares two sets of runs under the end-to-end table `defs`.
pub fn compare(a: &Runs, b: &Runs, defs: &[MetricDef]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, a_metrics) in a {
        let Some(b_metrics) = b.get(workload) else {
            continue;
        };
        for def in defs {
            let (Some(av), Some(bv), Some(bound)) = (
                a_metrics.get(&def.name),
                b_metrics.get(&def.name),
                def.bound,
            ) else {
                continue;
            };
            let (am, bm) = (median(av), median(bv));
            let worsening = def.better.worsening(am, bm);
            let spread = quartile_spread(av).max(quartile_spread(bv));
            let b_always_better = av
                .iter()
                .all(|&x| bv.iter().all(|&y| def.better.worsening(x, y) < 0.0));
            let verdict = if spread > bound && !b_always_better {
                Verdict::Unresolved
            } else if worsening > bound {
                Verdict::Regressed
            } else {
                Verdict::Within
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name.clone(),
                a: am,
                b: bm,
                worsening,
                spread,
                bound,
                verdict,
            });
        }
    }
    rows
}

/// Prints the rows; true when nothing regressed.
pub fn report(rows: &[Row]) -> bool {
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse by", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<14} {:<28} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worsening * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Within => "within bound",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved (spread exceeds bound)",
            }
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} within bound, {} regressed, {} unresolved",
        rows.len(),
        count(Verdict::Within),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    count(Verdict::Regressed) == 0
}

/// The `compare` subcommand; true when nothing regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| read_runs(&t))
    };
    let rows = compare(&read(path_a)?, &read(path_b)?, &metrics::end_to_end());
    if rows.is_empty() {
        return Err("the two files share no workload × end-to-end metric".into());
    }
    Ok(report(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(runs: &[(&str, &[(&str, f64)])]) -> String {
        let runs = runs
            .iter()
            .map(|(workload, metrics)| {
                Json::obj([
                    ("workload", Json::Str(workload.to_string())),
                    ("trace", Json::Bool(false)),
                    (
                        "metrics",
                        Json::obj(metrics.iter().map(|&(n, v)| {
                            (
                                n,
                                Json::obj([
                                    ("value", Json::Num(v)),
                                    ("unit", Json::Str("x".into())),
                                ]),
                            )
                        })),
                    ),
                ])
            })
            .collect();
        Json::obj([("runs", Json::Arr(runs))]).render()
    }

    /// A fixed table, so the tests do not move with the real bounds.
    fn defs() -> Vec<MetricDef> {
        use metrics::Better::{Higher, Lower};
        [
            ("query_qps", Higher, 0.10),
            ("record_p50_us", Lower, 0.10),
            ("version_p50_ms", Lower, 0.10),
            ("setup_s", Lower, 0.25),
        ]
        .into_iter()
        .map(|(name, better, bound)| MetricDef {
            name: name.to_string(),
            unit: "x",
            better,
            bound: Some(bound),
        })
        .collect()
    }

    fn verdict(rows: &[Row], workload: &str, metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.workload == workload && r.metric == metric)
            .unwrap()
            .verdict
    }

    #[test]
    fn direction_and_bound_decide_single_runs() {
        let a = read_runs(&file(&[(
            "read_hot",
            &[
                ("query_qps", 1000.0),
                ("record_p50_us", 3.0),
                ("setup_s", 2.0),
            ],
        )]))
        .unwrap();
        // qps 8% lower (within 10%), latency 20% higher (beyond 10%),
        // set-up faster.
        let b = read_runs(&file(&[(
            "read_hot",
            &[
                ("query_qps", 920.0),
                ("record_p50_us", 3.6),
                ("setup_s", 1.0),
            ],
        )]))
        .unwrap();
        let rows = compare(&a, &b, &defs());
        assert_eq!(rows.len(), 3);
        assert_eq!(verdict(&rows, "read_hot", "query_qps"), Verdict::Within);
        assert_eq!(
            verdict(&rows, "read_hot", "record_p50_us"),
            Verdict::Regressed
        );
        assert_eq!(verdict(&rows, "read_hot", "setup_s"), Verdict::Within);
        assert!(!report(&rows));
        // The same file against itself regresses nowhere.
        assert!(report(&compare(&a, &a, &defs())));
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let runs = |values: &[f64]| {
            let runs: Vec<(&str, Vec<(&str, f64)>)> = values
                .iter()
                .map(|&v| ("read_lan", vec![("version_p50_ms", v)]))
                .collect();
            let borrowed: Vec<(&str, &[(&str, f64)])> =
                runs.iter().map(|(w, m)| (*w, m.as_slice())).collect();
            read_runs(&file(&borrowed)).unwrap()
        };
        let defs = defs();
        let noisy = runs(&[50.0, 60.0, 70.0, 80.0]);
        // Medians equal, but the spread (≈50%) exceeds the 10% bound.
        assert_eq!(
            compare(&noisy, &noisy, &defs)[0].verdict,
            Verdict::Unresolved
        );
        // Every run of b beats every run of a: resolved despite spread.
        assert_eq!(
            compare(&noisy, &runs(&[20.0, 30.0, 40.0, 45.0]), &defs)[0].verdict,
            Verdict::Within
        );
        // Tight runs resolve a real regression.
        let tight_a = runs(&[60.0, 60.5, 61.0, 60.2]);
        let tight_b = runs(&[70.0, 70.5, 71.0, 70.2]);
        let row = &compare(&tight_a, &tight_b, &defs)[0];
        assert_eq!(row.verdict, Verdict::Regressed);
        assert!(row.spread < row.bound && row.worsening > row.bound);
    }

    #[test]
    fn traced_runs_and_foreign_workloads_are_skipped() {
        let mut text = file(&[
            ("read_cold", &[("query_qps", 600.0)]),
            ("only_in_a", &[("query_qps", 1.0)]),
        ]);
        text = text.replacen("\"trace\": false", "\"trace\": true", 1);
        let a = read_runs(&text).unwrap();
        assert!(!a.contains_key("read_cold"), "the traced run is ignored");
        let b = read_runs(&file(&[("read_cold", &[("query_qps", 600.0)])])).unwrap();
        assert!(compare(&a, &b, &defs()).is_empty());
        assert!(read_runs("{}").is_err());
        assert!(read_runs("not json").is_err());
    }
}
