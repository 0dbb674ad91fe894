//! A small command-line front-end for RStore over a persistent
//! (log-engine) cluster, in the spirit of the paper's VCS commands:
//! commit, checkout (full or partial), log and history.
//!
//! ```sh
//! rstore-cli --data-dir /tmp/db init --set 0='{"name":"ada"}' --set 1='{"name":"grace"}'
//! rstore-cli --data-dir /tmp/db commit --parent 0 --set 1='{"name":"grace hopper"}' --del 0
//! rstore-cli --data-dir /tmp/db checkout 1
//! rstore-cli --data-dir /tmp/db checkout 1 --range 0:10
//! rstore-cli --data-dir /tmp/db get 1 --version 1
//! rstore-cli --data-dir /tmp/db history 1
//! rstore-cli --data-dir /tmp/db log
//! rstore-cli --data-dir /tmp/db stats
//! ```

use rstore::core::obs::{validate_scrapes, METRICS};
use rstore::core::plan::{HedgeConfig, QuerySpec};
use rstore::core::store::{CommitRequest, RStore, StoreConfig};
use rstore::core::{CoreError, TraceConfig, VersionId};
use rstore::kvstore::{Cluster, EngineKind, FaultPlan};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::exit;
use std::str::FromStr;
use std::time::Duration;

/// Nodes `init` and `smoke` create a store with when `--nodes` is not
/// given.
const DEFAULT_NODES: usize = 2;

struct Args {
    data_dir: PathBuf,
    /// `--nodes`: the node count `init` and `smoke` create a store
    /// with; any other command checks it against the data dir's node
    /// logs.
    nodes: Option<usize>,
    /// Fetch-pool size for the serving core; 0 sizes by host cores.
    fetch_threads: usize,
    /// Seed for the canned flaky fault plan; `None` runs fault-free.
    faults: Option<u64>,
    /// Hedge straggler node batches (default-off, like the library).
    hedge: bool,
    /// Per-query deadline applied to every read command.
    deadline: Option<Duration>,
    command: String,
    rest: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: rstore-cli --data-dir DIR [--nodes N] [--fetch-threads N] [--faults SEED] [--hedge] [--deadline MS] COMMAND ...\n\
         --nodes N sets the node count `init` and `smoke` create a store with\n\
         (default 2); every other command takes it from the data dir's node\n\
         logs, and a --nodes that disagrees is an error.\n\
         --fetch-threads N sizes the shared fetch pool (0 = auto by cores).\n\
         --faults SEED enables the canned flaky chaos plan (10% transient\n\
         refusals + 10% 1 ms latency per node); retries absorb the faults\n\
         and `stats` reports the self-healing counters.\n\
         Tail-latency defenses (default-off, like the library):\n\
         --hedge re-issues straggler node batches to an untried replica\n\
         (first answer wins); --deadline MS bounds every read command's\n\
         modeled time budget, queueing included. `stats` lists each\n\
         node's load and score (service EWMA, error rate).\n\
         commands:\n\
           init     --set PK=VALUE ...            create the root version (in an empty data dir)\n\
           commit   --parent V [--set PK=VALUE]... [--del PK]...\n\
           checkout V [--range LO:HI]             print a (partial) version\n\
           get PK --version V                     one record from a version\n\
           history PK                             evolution of a key\n\
           log                                    the version graph\n\
           stats [--prom|--json]                  store + fragmentation + per-node load + serving-core statistics\n\
                                                  (--prom: Prometheus text exposition; --json: unified JSON snapshot)\n\
           trace [--version V]                    run a traced checkout, print the Chrome trace-event JSON\n\
           slowlog [--threshold MS]               run a checkout per version with the slow-query log armed, print it\n\
           smoke [--dir OUT]                      in-process observability smoke on a new store (in an empty\n\
                                                  data dir): workload, two scrapes,\n\
                                                  monotonicity validation; writes scrape/trace artifacts to OUT\n\
           compact                                repartition fragmented chunks in place"
    );
    exit(2)
}

/// Parses an option's value, or prints `expects` and exits 2 — a
/// malformed number is a usage error, never replaced by a default.
fn value_of<T: FromStr>(value: Option<impl AsRef<str>>, expects: &str) -> T {
    let Some(v) = value.and_then(|s| s.as_ref().parse().ok()) else {
        eprintln!("{expects}");
        exit(2)
    };
    v
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1).peekable();
    let mut data_dir = None;
    let mut nodes = None;
    let mut fetch_threads = 0usize;
    let mut faults = None;
    let mut hedge = false;
    let mut deadline = None;
    let mut command = None;
    let mut rest = Vec::new();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--data-dir" => data_dir = argv.next().map(PathBuf::from),
            // Options are accepted before or after the command, so a
            // trailing `--nodes 4` is honoured rather than silently
            // swallowed as a positional argument.
            "--nodes" => {
                let n: NonZeroUsize =
                    value_of(argv.next(), "--nodes expects a node count of at least 1");
                nodes = Some(n.get());
            }
            "--fetch-threads" => {
                let expects = "--fetch-threads expects a thread count (0 = auto)";
                fetch_threads = value_of(argv.next(), expects);
            }
            "--faults" => faults = Some(value_of(argv.next(), "--faults expects a numeric seed")),
            "--hedge" => hedge = true,
            "--deadline" => {
                let ms = value_of(argv.next(), "--deadline expects a budget in milliseconds");
                deadline = Some(Duration::from_millis(ms));
            }
            "--help" | "-h" => usage(),
            _ if command.is_none() => command = Some(arg),
            _ => rest.push(arg),
        }
    }
    let (Some(data_dir), Some(command)) = (data_dir, command) else {
        usage()
    };
    Args {
        data_dir,
        nodes,
        fetch_threads,
        faults,
        hedge,
        deadline,
        command,
        rest,
    }
}

/// Parsed change options: `--set` pairs, `--del` keys, and the
/// remaining unrecognized arguments.
type ParsedChanges = (Vec<(u64, Vec<u8>)>, Vec<u64>, Vec<String>);

/// Parses `--set pk=value` and `--del pk` options.
fn parse_changes(rest: &[String]) -> ParsedChanges {
    let mut sets = Vec::new();
    let mut dels = Vec::new();
    let mut others = Vec::new();
    let mut it = rest.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--set" => {
                let Some(kv) = it.next() else { usage() };
                let Some((pk, value)) = kv.split_once('=') else {
                    eprintln!("--set expects PK=VALUE, got {kv:?}");
                    exit(2)
                };
                let Ok(pk) = pk.parse::<u64>() else {
                    eprintln!("bad primary key {pk:?}");
                    exit(2)
                };
                sets.push((pk, value.as_bytes().to_vec()));
            }
            "--del" => dels.push(value_of(it.next(), "--del expects a primary key")),
            _ => others.push(arg.clone()),
        }
    }
    (sets, dels, others)
}

/// A log-engine cluster of `nodes` nodes over the data dir.
fn open_cluster(args: &Args, nodes: usize) -> Cluster {
    let mut b = Cluster::builder()
        .nodes(nodes)
        .engine(EngineKind::Log {
            dir: args.data_dir.clone(),
        });
    if let Some(seed) = args.faults {
        b = b.faults(FaultPlan::flaky(seed));
    }
    b.build()
}

/// The cluster of a new store (`init`, `smoke`), of `--nodes` nodes.
/// A store is created only from nothing: a data dir that holds
/// anything but empty files — a store, or what is left of one — is
/// refused with exit 1 before the cluster opens it, so an existing
/// store keeps every version. (Opening a cluster creates its node
/// logs empty, so a dir that only saw a failed `init` holds nothing.)
fn new_cluster(args: &Args) -> Cluster {
    let holds_data = std::fs::read_dir(&args.data_dir).is_ok_and(|entries| {
        entries.flatten().any(|e| e.metadata().is_ok_and(|m| !m.is_file() || m.len() > 0))
    });
    if holds_data {
        eprintln!(
            "error: {} already holds data; {} creates a store only in an empty data dir",
            args.data_dir.display(),
            args.command
        );
        exit(1);
    }
    open_cluster(args, args.nodes.unwrap_or(DEFAULT_NODES))
}

/// The node count of the store in the data dir: its node logs, which
/// must be `node-0.log` … `node-<n-1>.log`. The ring routes every key
/// by the node count, so a store opens only with the count it was
/// created with. A `--nodes` that disagrees, or a dir with no node
/// log, exits 1 before the cluster creates any file.
fn stored_nodes(args: &Args) -> usize {
    let dir = &args.data_dir;
    let mut ids: Vec<usize> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            name.strip_prefix("node-")?.strip_suffix(".log")?.parse().ok()
        })
        .collect();
    ids.sort_unstable();
    if ids.is_empty() || ids.iter().enumerate().any(|(i, &id)| i != id) {
        eprintln!(
            "error: {} holds no store (node-0.log ... node-<n-1>.log); create one with init",
            dir.display()
        );
        exit(1);
    }
    if let Some(n) = args.nodes.filter(|&n| n != ids.len()) {
        eprintln!(
            "error: {} holds a {}-node store; --nodes {n} disagrees",
            dir.display(),
            ids.len()
        );
        exit(1);
    }
    ids.len()
}

fn store_config(args: &Args) -> StoreConfig {
    StoreConfig {
        fetch_threads: args.fetch_threads,
        hedge: args.hedge.then(HedgeConfig::default),
        default_deadline: args.deadline,
        ..StoreConfig::default()
    }
}

fn open_store(args: &Args) -> Result<RStore, CoreError> {
    RStore::reopen(store_config(args), open_cluster(args, stored_nodes(args)))
}

/// Reopens the store with the trace sampler and/or slow-query log
/// armed (the `trace`, `slowlog` and `smoke` commands).
fn open_store_observed(
    args: &Args,
    sample: f64,
    slow_threshold: Option<Duration>,
) -> Result<RStore, CoreError> {
    let mut cfg = store_config(args);
    cfg.obs.trace = TraceConfig { sample };
    cfg.obs.slow_threshold = slow_threshold;
    RStore::reopen(cfg, open_cluster(args, stored_nodes(args)))
}

fn print_records(records: &[rstore::core::Record]) {
    for rec in records {
        println!(
            "K{}\t(origin {})\t{}",
            rec.pk,
            rec.origin,
            String::from_utf8_lossy(&rec.payload)
        );
    }
}

fn run() -> Result<(), CoreError> {
    let args = parse_args();
    match args.command.as_str() {
        "init" => {
            let (sets, dels, _) = parse_changes(&args.rest);
            if !dels.is_empty() {
                eprintln!("init does not accept --del");
                exit(2);
            }
            let store = RStore::builder().build(new_cluster(&args));
            let v = store.commit(CommitRequest::root(sets))?;
            let flush = store.seal()?;
            println!(
                "initialized {} with root {v} ({} chunk(s), commit record {} B)",
                args.data_dir.display(),
                flush.new_chunks,
                flush.record_bytes
            );
        }
        "commit" => {
            let (sets, dels, others) = parse_changes(&args.rest);
            let mut parent = None;
            let mut it = others.iter();
            while let Some(a) = it.next() {
                if a == "--parent" {
                    parent = Some(value_of(it.next(), "--parent expects a version id"));
                }
            }
            let store = open_store(&args)?;
            let parent = VersionId(
                parent.unwrap_or_else(|| (store.version_count() - 1) as u32),
            );
            let mut req = CommitRequest::child_of(parent);
            for (pk, value) in sets {
                req = req.put(pk, value);
            }
            for pk in dels {
                req = req.delete(pk);
            }
            let v = store.commit(req)?;
            // One commit per invocation: the seal is its flush.
            let flush = store.seal()?;
            println!(
                "committed {v} (parent {parent}): {} new chunk(s), {} older chunk map(s) appended to, commit record {} B",
                flush.new_chunks, flush.maps_appended, flush.record_bytes
            );
        }
        "checkout" => {
            let Some(v) = args.rest.first().and_then(|s| s.parse::<u32>().ok()) else {
                usage()
            };
            let mut range = None;
            let mut it = args.rest.iter();
            while let Some(a) = it.next() {
                if a == "--range" {
                    let Some((lo, hi)) = it.next().and_then(|s| s.split_once(':')) else {
                        usage()
                    };
                    // An empty bound is open; a malformed one is an error.
                    let bound = |b: &str, open: u64| match b {
                        "" => open,
                        b => value_of(Some(b), "--range expects LO:HI primary keys"),
                    };
                    range = Some((bound(lo, 0), bound(hi, u64::MAX)));
                }
            }
            let store = open_store(&args)?;
            let records = match range {
                Some((lo, hi)) => store.get_range(lo, hi, VersionId(v))?,
                None => store.get_version(VersionId(v))?,
            };
            print_records(&records);
        }
        "get" => {
            let Some(pk) = args.rest.first().and_then(|s| s.parse::<u64>().ok()) else {
                usage()
            };
            let mut version = None;
            let mut it = args.rest.iter();
            while let Some(a) = it.next() {
                if a == "--version" {
                    version = Some(value_of(it.next(), "--version expects a version id"));
                }
            }
            let store = open_store(&args)?;
            let v = VersionId(version.unwrap_or((store.version_count() - 1) as u32));
            match store.get_record(pk, v)? {
                Some(rec) => print_records(&[rec]),
                None => println!("K{pk} not present in {v}"),
            }
        }
        "history" => {
            let Some(pk) = args.rest.first().and_then(|s| s.parse::<u64>().ok()) else {
                usage()
            };
            let store = open_store(&args)?;
            print_records(&store.get_evolution(pk)?);
        }
        "log" => {
            let store = open_store(&args)?;
            for node in store.graph().nodes() {
                let parents: Vec<String> =
                    node.parents.iter().map(|p| p.to_string()).collect();
                println!(
                    "{}\tdepth {}\tparents [{}]\t{} records\tspan {}",
                    node.id,
                    node.depth,
                    parents.join(", "),
                    store.version_record_count(node.id)?,
                    store.version_span(node.id),
                );
            }
        }
        "stats" => {
            let store = open_store(&args)?;
            if args.rest.iter().any(|a| a == "--prom") {
                print!("{}", store.metrics_text());
                return Ok(());
            }
            if args.rest.iter().any(|a| a == "--json") {
                println!("{}", store.stats_snapshot().to_json());
                return Ok(());
            }
            // Every fact of one stats sample, labeled by its JSON
            // path: a walk over the metric table.
            let sample = store.stats_snapshot();
            for m in METRICS {
                println!("{:<20} {}", format!("{}:", m.json), m.show(&sample));
            }
            let cfg = store.config();
            println!(
                "tail defenses:       hedge {}, deadline {}",
                match cfg.hedge {
                    Some(h) => format!("on ({}x, floor {:?})", h.factor, h.min),
                    None => "off".into(),
                },
                match cfg.default_deadline {
                    Some(d) => format!("{d:?}"),
                    None => "off".into(),
                },
            );
        }
        "trace" => {
            // Sample every query, checkout one version, print the
            // span tree as Chrome trace-event JSON (load it at
            // chrome://tracing or in Perfetto).
            let mut version = None;
            let mut it = args.rest.iter();
            while let Some(a) = it.next() {
                if a == "--version" {
                    version = Some(value_of(it.next(), "--version expects a version id"));
                }
            }
            let store = open_store_observed(&args, 1.0, None)?;
            let v = VersionId(version.unwrap_or((store.version_count() - 1) as u32));
            let (records, stats) = store.query_with_stats(QuerySpec::Version(v))?;
            let Some(trace) = store.last_trace() else {
                eprintln!("no trace captured (query failed before sampling?)");
                exit(1);
            };
            eprintln!(
                "traced checkout of {v}: {} record(s), {} span(s), {:?} wall",
                records.len(),
                trace.spans.len(),
                stats.elapsed
            );
            println!("{}", trace.to_chrome_json());
        }
        "slowlog" => {
            // Arm the slow-query log (default threshold 0 captures
            // every query), run one checkout per version, dump it.
            let mut threshold = Duration::ZERO;
            let mut it = args.rest.iter();
            while let Some(a) = it.next() {
                if a == "--threshold" {
                    let ms = value_of(it.next(), "--threshold expects milliseconds");
                    threshold = Duration::from_millis(ms);
                }
            }
            let store = open_store_observed(&args, 1.0, Some(threshold))?;
            for v in 0..store.version_count() as u32 {
                let _ = store.get_version(VersionId(v))?;
            }
            let log = store.slow_log();
            if log.is_empty() {
                println!("slow-query log empty (threshold {threshold:?})");
            }
            for e in &log {
                println!(
                    "#{}\t[{}]\t{:.3} ms wall, {} chunk(s) fetched, {} record(s)\t{}\t{}",
                    e.seq,
                    e.reason.as_str(),
                    e.stats.elapsed.as_secs_f64() * 1e3,
                    e.stats.chunks_fetched,
                    e.stats.records,
                    e.spec,
                    match &e.trace {
                        Some(t) => format!("({} span(s) traced)", t.spans.len()),
                        None => "(untraced)".into(),
                    },
                );
            }
        }
        "smoke" => {
            // Single-process observability smoke for CI: build a small
            // store, run a query workload, scrape the Prometheus text
            // twice and validate (parseable, unique series, monotone
            // counters), then write the scrapes + a trace artifact.
            let mut out_dir = args.data_dir.clone();
            let mut it = args.rest.iter();
            while let Some(a) = it.next() {
                if a == "--dir" {
                    let Some(d) = it.next() else {
                        eprintln!("--dir expects a directory");
                        exit(2)
                    };
                    out_dir = PathBuf::from(d);
                }
            }
            let store = RStore::builder()
                .batch_size(1)
                .trace_sample(1.0)
                .slow_query_threshold(Duration::ZERO)
                .build(new_cluster(&args));
            let mut req = CommitRequest::root(
                (0..16u64).map(|pk| (pk, format!("{{\"k\":{pk}}}").into_bytes())),
            );
            let mut v = store.commit(req)?;
            for round in 1..6u64 {
                req = CommitRequest::child_of(v);
                for pk in 0..16u64 {
                    if (pk + round) % 3 == 0 {
                        req = req.put(pk, format!("{{\"k\":{pk},\"r\":{round}}}").into_bytes());
                    }
                }
                v = store.commit(req)?;
            }
            store.seal()?;
            for vid in 0..store.version_count() as u32 {
                let _ = store.get_version(VersionId(vid))?;
            }
            let scrape1 = store.metrics_text();
            for pk in 0..16u64 {
                let _ = store.get_evolution(pk)?;
                let _ = store.get_record(pk, v)?;
            }
            let scrape2 = store.metrics_text();
            if let Err(e) = std::fs::create_dir_all(&out_dir) {
                eprintln!("cannot create {}: {e}", out_dir.display());
                exit(1);
            }
            let write_artifact = |name: &str, data: &str| {
                let path = out_dir.join(name);
                if let Err(e) = std::fs::write(&path, data) {
                    eprintln!("cannot write {}: {e}", path.display());
                    exit(1);
                }
            };
            write_artifact("scrape1.prom", &scrape1);
            write_artifact("scrape2.prom", &scrape2);
            write_artifact("stats.json", &store.stats_snapshot().to_json());
            if let Some(trace) = store.last_trace() {
                write_artifact("trace.json", &trace.to_chrome_json());
            }
            if let Err(e) = validate_scrapes(&scrape1, &scrape2) {
                eprintln!("scrape validation FAILED: {e}");
                exit(1);
            }
            println!(
                "smoke ok: {} queries, {} slow-log entries, scrapes valid, artifacts in {}",
                store.stats_snapshot().registry.queries.get(),
                store.slow_log().len(),
                out_dir.display()
            );
        }
        "compact" => {
            let store = open_store(&args)?;
            match store.compact()? {
                Some(r) => println!(
                    "compacted {} chunks into {} ({} records moved), \
                     span {} -> {}, reclaimed {} chunk bytes, {} backend keys deleted, \
                     commit record(s) {} B",
                    r.victims,
                    r.new_chunks,
                    r.records_moved,
                    r.before.total_version_span,
                    r.after.total_version_span,
                    r.bytes_reclaimed,
                    r.keys_deleted,
                    r.record_bytes,
                ),
                None => println!("nothing to compact (layout already healthy)"),
            }
        }
        _ => usage(),
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        exit(1);
    }
}
