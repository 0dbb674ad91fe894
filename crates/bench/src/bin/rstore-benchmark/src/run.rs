//! One run of one workload: set-up, measured phase, metric assembly.

use crate::ingest::{self, CycleOutcome, CyclePlan};
use crate::metrics::{self, MetricDef, Values, CLASSES, COMPACT_STAGES, INGEST_STAGES};
use crate::oracle::{self, Fingerprint, Oracle, Scale};
use crate::probe::{self, StoredChunk};
use crate::reads::{self, ReadOutcome, Stop, Target, Tracing, RECORD, VERSION};
use crate::stats::{self, median, percentile};
use crate::trace::{self, Tracer};
use crate::workload::{Focus, Scratch, Workload, SCRATCH_DIR};
use rstore_core::plan::QuerySpec;
use rstore_core::store::{IngestStages, LoadReport, RStore};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Query blocks over which counters are kept (and below which a
/// deadline never stops the first query loop).
const COUNT_BLOCKS: usize = 10;
/// Versions of the history the read workloads replay to sample the
/// write side, how often, and how many versions they read back.
const SIDE_VERSIONS: usize = 100;
const SIDE_CYCLES: usize = 5;
const SIDE_READ_BACK: usize = 5;
/// `ingest_online`: fewest cycles, versions read back after each
/// stage, and query blocks on each restarted store.
const MIN_CYCLES: usize = 3;
const CYCLE_READ_BACK: usize = 20;
const CYCLE_QUERY_BLOCKS: usize = 10;
/// Spans written to the Chrome-trace file (all spans feed the table).
const TRACE_FILE_SPANS: usize = 50_000;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What a run produced.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub defs: Vec<MetricDef>,
    pub values: Values,
    pub fingerprint: Fingerprint,
    /// Human-readable lines: sample counts, ungated tails, span table.
    pub notes: Vec<String>,
}

struct Sizes {
    scale: Scale,
    setup_reps: usize,
    count_blocks: usize,
    side_versions: usize,
    side_cycles: usize,
    side_read_back: usize,
    min_cycles: usize,
    cycle_read_back: usize,
    cycle_query_blocks: usize,
}

impl Sizes {
    fn of(cfg: &RunConfig) -> Self {
        // `--smoke` divides every count by 20 (floored at what the
        // pipeline needs to run at all) on a dataset of matching size.
        let div = |n: usize, floor: usize| if cfg.smoke { (n / 20).max(floor) } else { n };
        Self {
            scale: if cfg.smoke { Scale::SMOKE } else { Scale::FULL },
            setup_reps: if cfg.smoke || cfg.trace {
                1
            } else {
                SETUP_REPS
            },
            count_blocks: div(COUNT_BLOCKS, 2),
            side_versions: div(SIDE_VERSIONS, 16),
            side_cycles: if cfg.smoke { 1 } else { SIDE_CYCLES },
            side_read_back: div(SIDE_READ_BACK, 2),
            // A traced run needs an untraced and a traced cycle.
            min_cycles: if cfg.smoke {
                1 + usize::from(cfg.trace)
            } else {
                MIN_CYCLES
            },
            cycle_read_back: div(CYCLE_READ_BACK, 2),
            cycle_query_blocks: div(CYCLE_QUERY_BLOCKS, 2),
        }
    }
}

/// Everything the measured phase hands to metric assembly.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    /// Records per second of each bulk load, and the last report.
    loads: Vec<f64>,
    load_report: Option<LoadReport>,
    cycles: Vec<(CycleOutcome, bool)>,
    cycle_versions: usize,
    reads: ReadOutcome,
    stored: Vec<StoredChunk>,
    attempted: u64,
    failed: u64,
}

impl Measured {
    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

pub fn run(cfg: RunConfig) -> Result<RunResult, String> {
    let sizes = Sizes::of(&cfg);
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let mut tracer = Tracer::new();
    let mut m = Measured::default();

    // Set-up: everything before the first timed operation, repeated
    // so that `setup_s` is a median. The last repetition's oracle and
    // store carry the measured phase.
    let mut last: Option<(Oracle, Option<RStore>)> = None;
    for _ in 0..sizes.setup_reps {
        drop(last.take());
        let t = Instant::now();
        let oracle = Oracle::build(&oracle::d1(sizes.scale));
        let store = match cfg.workload.focus {
            Focus::Ingest => None,
            Focus::Reads => Some(bulk_load_and_warm(&cfg, &oracle, &mut m, &mut tracer)?),
        };
        m.setup_s.push(t.elapsed().as_secs_f64());
        last = Some((oracle, store));
    }
    let (oracle, store) = last.expect("at least one set-up");
    let fingerprint = oracle.fingerprint;
    if sizes.scale == Scale::FULL && fingerprint != oracle::D1_FINGERPRINT {
        return Err(format!(
            "input fingerprint changed: D1 is now {fingerprint:?}, the benchmark was defined on {:?}",
            oracle::D1_FINGERPRINT
        ));
    }

    let phase = Instant::now();
    let ctx = Phase {
        cfg: &cfg,
        sizes: &sizes,
        oracle: &oracle,
        scratch: &scratch,
        start: phase,
    };
    match &store {
        Some(store) => ctx.reads(store, &mut m, &mut tracer)?,
        None => ctx.ingest(&mut m, &mut tracer)?,
    }
    drop(store);
    m.reads.sort();
    let spans = tracer.spans;

    let mut notes = vec![format!(
        "input: D1 (generator seed {}) = {} versions, {} distinct records, {} distinct bytes, payload FNV-1a {:016x}; query seed {}",
        oracle::DATASET_SEED, fingerprint.versions, fingerprint.distinct_records, fingerprint.distinct_bytes, fingerprint.payload_fnv, cfg.seed
    )];
    notes.push(format!(
        "1 closed-loop client, {} core(s) available, {:.1} s measured phase, {} operations checked, {} failed",
        std::thread::available_parallelism().map_or(0, usize::from),
        phase.elapsed().as_secs_f64(),
        m.attempted,
        m.failed
    ));
    let (defs, values) = if cfg.trace {
        let mut values = per_layer_values(&cfg, &m, &oracle, &spans, &mut notes)?;
        values.extend(probe::run(&m.stored, &oracle, &scratch, cfg.seed)?);
        write_trace_file(&cfg, &spans, &mut notes)?;
        (metrics::per_layer(), values)
    } else {
        (
            metrics::end_to_end(),
            end_to_end_values(&m, &oracle, &mut notes),
        )
    };
    Ok(RunResult {
        workload: cfg.workload.name,
        seed: cfg.seed,
        attempted: m.attempted,
        failed: m.failed,
        defs,
        values,
        fingerprint,
        notes,
    })
}

/// What both kinds of measured phase share.
struct Phase<'a> {
    cfg: &'a RunConfig,
    sizes: &'a Sizes,
    oracle: &'a Oracle,
    scratch: &'a Scratch,
    start: Instant,
}

impl Phase<'_> {
    fn cycle(
        &self,
        plan: CyclePlan,
        i: usize,
        tracer: &mut Tracer,
    ) -> Result<CycleOutcome, String> {
        ingest::run_cycle(
            self.cfg.workload,
            self.oracle,
            self.scratch,
            plan,
            self.cfg.seed,
            i as u64,
            tracer,
        )
        .map_err(|e| format!("scratch directory: {e}"))
    }

    /// A read workload's phase: each fifth of the measured seconds
    /// opens with one ingest cycle on a prefix of the history (the
    /// write side of the same regime) and spends the rest in the
    /// query loop on `store`. The cycles are spread out so that they
    /// do not all sample one moment of a host whose speed drifts.
    fn reads(&self, store: &RStore, m: &mut Measured, tracer: &mut Tracer) -> Result<(), String> {
        let (cfg, sizes) = (self.cfg, self.sizes);
        m.cycle_versions = sizes.side_versions;
        for i in 0..sizes.side_cycles {
            let plan = CyclePlan {
                versions: sizes.side_versions,
                bulk_load: false,
                read_back: sizes.side_read_back,
                query_blocks: 0,
                traced: cfg.trace && i + 1 == sizes.side_cycles,
                capture: false,
            };
            let cycle = self.cycle(plan, i, tracer)?;
            m.count(cycle.attempted, cycle.failed);
            m.cycles.push((cycle, plan.traced));

            let target = Target {
                store,
                oracle: self.oracle,
                versions: self.oracle.dataset.graph.len(),
                seed: cfg.seed,
                phase: 1 + i as u64,
            };
            // Only the first segment holds the counted window.
            let count_blocks = if i == 0 { sizes.count_blocks } else { 0 };
            let share = (i + 1) as f64 / sizes.side_cycles as f64;
            let stop = Stop::Deadline {
                at: self.start + Duration::from_secs_f64(cfg.seconds * share),
                min_blocks: count_blocks,
            };
            let tracing = if cfg.trace {
                Tracing::Alternate
            } else {
                Tracing::Off
            };
            let segment = reads::run_queries(target, stop, tracing, count_blocks, tracer);
            m.count(segment.attempted, segment.failed);
            m.reads.absorb(segment);
        }
        if cfg.trace {
            m.stored = probe::capture(store).map_err(|e| format!("probe capture: {e}"))?;
        }
        Ok(())
    }

    /// `ingest_online`'s phase: whole cycles on the full history.
    /// Another cycle starts only if, at the pace so far, it ends
    /// within the measured seconds.
    fn ingest(&self, m: &mut Measured, tracer: &mut Tracer) -> Result<(), String> {
        let (cfg, sizes) = (self.cfg, self.sizes);
        m.cycle_versions = self.oracle.dataset.graph.len();
        let next_would_end = |done: usize| {
            self.start.elapsed().as_secs_f64() * (done + 1) as f64 / done.max(1) as f64
        };
        let mut i = 0;
        while i < sizes.min_cycles || next_would_end(i) < cfg.seconds {
            let plan = CyclePlan {
                versions: m.cycle_versions,
                bulk_load: true,
                read_back: sizes.cycle_read_back,
                query_blocks: sizes.cycle_query_blocks,
                // Alternating, so both kinds of cycle see the same drift.
                traced: cfg.trace && i % 2 == 1,
                capture: cfg.trace && i == 1,
            };
            let mut cycle = self.cycle(plan, i, tracer)?;
            m.count(cycle.attempted, cycle.failed);
            if let Some((elapsed, report)) = cycle.load {
                m.loads
                    .push(report.num_records as f64 / elapsed.as_secs_f64());
                m.load_report = Some(report);
            }
            m.reads.absorb(std::mem::take(&mut cycle.reads));
            if !cycle.stored.is_empty() {
                m.stored = std::mem::take(&mut cycle.stored);
            }
            m.cycles.push((cycle, plan.traced));
            i += 1;
        }
        Ok(())
    }
}

/// Bulk load of `D1` into a fresh store `A` plus the workload's
/// warm-up — the part of a read workload's set-up after the oracle.
fn bulk_load_and_warm(
    cfg: &RunConfig,
    oracle: &Oracle,
    m: &mut Measured,
    tracer: &mut Tracer,
) -> Result<RStore, String> {
    let store = cfg.workload.bulk_store(cfg.workload.mem_cluster());
    let t = Instant::now();
    let report = store
        .load_dataset(&oracle.dataset)
        .map_err(|e| format!("bulk load: {e}"))?;
    m.loads
        .push(report.num_records as f64 / t.elapsed().as_secs_f64());
    m.load_report = Some(report);
    m.count(1, 0);
    if cfg.workload.resident_pass {
        let scanned = reads::run_query(&store, QuerySpec::Scan).map_or(0, |r| r.len());
        m.count(1, u64::from(scanned != oracle.records.len()));
    }
    let target = Target {
        store: &store,
        oracle,
        versions: oracle.dataset.graph.len(),
        seed: cfg.seed,
        phase: 0,
    };
    let warm = reads::run_queries(
        target,
        Stop::Blocks(cfg.workload.warmup_blocks),
        Tracing::Off,
        0,
        tracer,
    );
    m.count(warm.attempted, warm.failed);
    Ok(store)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The fastest of the run's cycles. A load, replay, compaction or
/// restart is timed once per cycle, and on a shared host noise only
/// ever adds time: over a handful of samples the minimum repeats
/// better than the median (measured: bulk load 5 % against 11 %).
fn fastest(m: &Measured, f: impl Fn(&CycleOutcome) -> Duration) -> f64 {
    m.cycles
        .iter()
        .map(|(c, _)| secs(f(c)))
        .fold(f64::INFINITY, f64::min)
}

/// Counts are the same in every cycle; the median says so if not.
fn count_over_cycles(m: &Measured, f: impl Fn(&CycleOutcome) -> f64) -> f64 {
    median(&m.cycles.iter().map(|(c, _)| f(c)).collect::<Vec<_>>())
}

fn end_to_end_values(m: &Measured, oracle: &Oracle, notes: &mut Vec<String>) -> Values {
    let mut v = Values::default();
    let lat = &m.reads.latency_ns;
    v.set("query_qps", m.reads.qps());
    v.set("version_p50_ms", percentile(&lat[VERSION], 0.5) / 1e6);
    v.set("range_p50_ms", percentile(&lat[reads::RANGE], 0.5) / 1e6);
    v.set(
        "evolution_p50_us",
        percentile(&lat[reads::EVOLUTION], 0.5) / 1e3,
    );
    v.set("record_p50_us", percentile(&lat[RECORD], 0.5) / 1e3);
    v.set(
        "load_records_per_s",
        m.loads.iter().copied().fold(0.0, f64::max),
    );
    let versions = m.cycle_versions;
    let user_bytes = oracle.user_bytes(versions) as f64;
    v.set(
        "replay_versions_per_s",
        versions as f64 / fastest(m, |c| c.replay),
    );
    v.set("compact_s", fastest(m, |c| c.compact));
    v.set("reopen_s", fastest(m, |c| c.reopen));
    v.set(
        "stored_bytes_per_user_byte",
        count_over_cycles(m, |c| c.stored_bytes as f64 / user_bytes),
    );
    v.set(
        "written_bytes_per_user_byte",
        count_over_cycles(m, |c| c.written_bytes as f64 / user_bytes),
    );
    v.set("version_span_mean", count_over_cycles(m, |c| c.span_mean));
    v.set("setup_s", median(&m.setup_s));

    notes.push(format!(
        "{} set-up(s), {} bulk load(s), {} ingest cycle(s) over {} versions ({} distinct records, {} distinct bytes)",
        m.setup_s.len(),
        m.loads.len(),
        m.cycles.len(),
        versions,
        oracle.user_records(versions),
        user_bytes
    ));
    // Ungated diagnostics: sample counts, p99, and the highest
    // percentile that still has ten samples beyond it.
    for (class, name) in CLASSES.iter().enumerate() {
        let s = &lat[class];
        let tail =
            stats::tail_percentile(s.len()).map_or("tail: too few samples".to_string(), |p| {
                format!(
                    "p{} = {:.1} us ({} beyond)",
                    p * 100.0,
                    percentile(s, p) / 1e3,
                    stats::beyond(s.len(), p)
                )
            });
        notes.push(format!(
            "{name:>9}: {} samples, p50 {:.1} us, p99 {:.1} us, {tail}",
            s.len(),
            percentile(s, 0.5) / 1e3,
            percentile(s, 0.99) / 1e3
        ));
    }
    v
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn set_ingest_stages(v: &mut Values, prefix: &str, s: &IngestStages) {
    let stages = [s.subchunk, s.partition, s.assemble, s.index, s.write];
    for (name, d) in INGEST_STAGES.iter().zip(stages) {
        v.set(format!("{prefix}.{name}_s"), secs(d));
    }
}

fn per_layer_values(
    cfg: &RunConfig,
    m: &Measured,
    oracle: &Oracle,
    spans: &[trace::Span],
    notes: &mut Vec<String>,
) -> Result<Values, String> {
    let mut v = Values::default();
    let r = &m.reads;
    let c = &r.counters;

    // Spans around plan_query / execute / drain, per class.
    let stage_layers = [
        "core.plan.plan_us",
        "core.store.execute_us",
        "core.query.drain_us",
    ];
    let mut stage_total = [0.0f64; 3];
    for (stage, layer) in stage_layers.iter().enumerate() {
        for (class, name) in CLASSES.iter().enumerate() {
            let samples = &r.stage_ns[stage][class];
            v.set(format!("{layer}.{name}"), percentile(samples, 0.5) / 1e3);
            stage_total[stage] += samples.iter().sum::<f64>();
        }
    }
    let all: f64 = stage_total.iter().sum();
    v.set("core.plan.plan_share", ratio(stage_total[0], all));
    v.set("core.store.execute_share", ratio(stage_total[1], all));
    v.set("core.query.drain_share", ratio(stage_total[2], all));
    v.set(
        "core.query.records_per_s",
        ratio(c.records as f64, stage_total[2] / 1e9),
    );

    // Counters read at the same boundaries, over the counted window.
    let counted = c.total_queries() as f64;
    for (class, name) in CLASSES.iter().enumerate() {
        let q = c.queries[class] as f64;
        v.set(
            format!("core.plan.span_mean.{name}"),
            ratio(c.span[class] as f64, q),
        );
        v.set(
            format!("kvstore.netmodel.modeled_ms_per_query.{name}"),
            ratio(c.modeled_ns[class] as f64 / 1e6, q),
        );
    }
    v.set(
        "core.plan.nodes_contacted_mean",
        ratio(c.nodes_contacted as f64, counted),
    );
    v.set(
        "core.plan.max_node_batch_mean",
        ratio(c.max_node_batch as f64, counted),
    );
    v.set(
        "core.query.useful_chunk_ratio",
        ratio(c.chunks_useful as f64, c.total_span() as f64),
    );
    v.set(
        "core.serve.queue_wait_us_mean",
        ratio(c.queue_wait_ns as f64 / 1e3, counted),
    );

    // Store-level counters over the counted window.
    let (open, close, queries) = r.window.ok_or("the counted query window never closed")?;
    let q = queries as f64;
    let probes = (close.cache.hits - open.cache.hits) + (close.cache.misses - open.cache.misses);
    v.set(
        "core.cache.hit_ratio",
        ratio((close.cache.hits - open.cache.hits) as f64, probes as f64),
    );
    v.set(
        "core.cache.evictions",
        (close.cache.evictions - open.cache.evictions) as f64,
    );
    v.set(
        "core.cache.resident_bytes",
        close.cache.resident_bytes as f64,
    );
    let cluster = close.cluster.since(&open.cluster);
    v.set(
        "kvstore.cluster.batch_gets_per_query",
        ratio(cluster.batch_gets as f64, q),
    );
    v.set(
        "kvstore.cluster.bytes_read_per_query",
        ratio(cluster.bytes_read as f64, q),
    );
    v.set(
        "core.serve.jobs_per_query",
        ratio((close.serve.jobs_run - open.serve.jobs_run) as f64, q),
    );
    v.set(
        "core.serve.peak_in_flight",
        close.serve.peak_in_flight as f64,
    );

    // Reports the ingest calls return, from the traced cycle.
    let load = m.load_report.ok_or("no bulk load was measured")?;
    set_ingest_stages(&mut v, "core.store.load", &load.stages);
    let (cycle, _) = m
        .cycles
        .iter()
        .rev()
        .find(|(_, traced)| *traced)
        .ok_or("no traced ingest cycle")?;
    set_ingest_stages(&mut v, "core.store.flush", &cycle.flush_stages);
    let mut flush = cycle.flush_ns.clone();
    let mut commit = cycle.commit_ns.clone();
    stats::sort(&mut flush);
    stats::sort(&mut commit);
    v.set("core.store.flush_ms_p50", percentile(&flush, 0.5) / 1e6);
    v.set("core.store.commit_us_p50", percentile(&commit, 0.5) / 1e3);
    v.set("core.store.seal_ms", secs(cycle.seal) * 1e3);
    let report = cycle
        .compaction
        .ok_or("the traced cycle's compaction found nothing to do")?;
    let s = report.stages;
    for (name, d) in COMPACT_STAGES.iter().zip([
        s.measure,
        s.extract,
        s.partition,
        s.rebuild,
        s.index,
        s.write,
        s.delete,
    ]) {
        v.set(format!("core.compact.{name}_s"), secs(d));
    }
    v.set("core.compact.victims", report.victims as f64);
    v.set(
        "core.compact.bytes_rewritten",
        report.bytes_rewritten as f64,
    );
    v.set(
        "core.compact.span_before",
        report.before.total_version_span as f64,
    );
    v.set(
        "core.compact.span_after",
        report.after.total_version_span as f64,
    );
    v.set("kvstore.cluster.batch_puts", cycle.batch_puts as f64);
    v.set("kvstore.cluster.bytes_written", cycle.written_bytes as f64);

    v.set("vgraph.gen.generate_s", secs(oracle.generate_time));
    v.set(
        "vgraph.materialize.materialize_s",
        secs(oracle.materialize_time),
    );

    // Tails of the untraced half of the run: recorded, not gated.
    v.set(
        "ungated.version_p95_ms",
        percentile(&r.latency_ns[VERSION], 0.95) / 1e6,
    );
    v.set(
        "ungated.record_p95_us",
        percentile(&r.latency_ns[RECORD], 0.95) / 1e3,
    );
    v.set(
        "ungated.record_p99_us",
        percentile(&r.latency_ns[RECORD], 0.99) / 1e3,
    );

    // Tracing overhead: traced rate ÷ untraced rate of the same run.
    let overhead = match cfg.workload.focus {
        Focus::Reads => ratio(r.traced_qps(), r.qps()),
        Focus::Ingest => {
            let timed = |c: &CycleOutcome| {
                secs(c.load.map_or(Duration::ZERO, |(d, _)| d) + c.replay + c.compact + c.reopen)
            };
            let of = |want: bool| {
                median(
                    &m.cycles
                        .iter()
                        .filter(|(_, t)| *t == want)
                        .map(|(c, _)| timed(c))
                        .collect::<Vec<_>>(),
                )
            };
            ratio(of(false), of(true))
        }
    };
    v.set("trace.overhead_ratio", overhead);

    // The per-layer table: self time = span minus children.
    notes.push(format!(
        "{} spans; per span name: count, total ms, self ms",
        spans.len()
    ));
    for (name, (count, total, own)) in trace::by_name(spans) {
        notes.push(format!(
            "{name:>12}: {count:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    notes.push(format!(
        "counted window: {} traced of {queries} queries",
        c.total_queries()
    ));
    Ok(v)
}

fn write_trace_file(
    cfg: &RunConfig,
    spans: &[trace::Span],
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let path = std::path::Path::new(SCRATCH_DIR)
        .join(format!("trace-{}-seed{}.json", cfg.workload.name, cfg.seed));
    std::fs::write(&path, trace::chrome_trace(spans, TRACE_FILE_SPANS).render())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!(
        "Chrome trace (first {} spans): {}",
        spans.len().min(TRACE_FILE_SPANS),
        path.display()
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// Every workload, untraced and traced, at smoke size: all checks
    /// pass and the result holds exactly the metrics of its table.
    #[test]
    fn smoke_runs_fill_both_metric_tables() {
        for workload in &WORKLOADS {
            for trace in [false, true] {
                let result = run(RunConfig {
                    workload,
                    seed: 7,
                    seconds: 0.2,
                    trace,
                    smoke: true,
                })
                .unwrap();
                assert_eq!(result.failed, 0, "{} trace={trace}", workload.name);
                assert!(result.attempted > 0);
                let table = if trace {
                    metrics::per_layer()
                } else {
                    metrics::end_to_end()
                };
                assert_eq!(result.defs, table);
                let json = result.values.to_json(&result.defs).unwrap();
                assert_eq!(json.as_obj().unwrap().len(), table.len());
                if !trace {
                    // Gated metrics are never 0.
                    for def in &table {
                        assert!(
                            result.values.get(&def.name).unwrap() > 0.0,
                            "{} on {}",
                            def.name,
                            workload.name
                        );
                    }
                }
            }
        }
    }
}
