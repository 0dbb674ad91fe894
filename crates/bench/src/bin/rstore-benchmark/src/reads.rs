//! The closed query loop: seeded query mix, `plan_query` → `execute`
//! → `into_stream().drain()` per query, every answer checked against
//! the oracle after its timer has stopped.

use crate::oracle::{Oracle, Seen};
use crate::rng::Xorshift;
use crate::stats;
use crate::trace::{Tracer, NO_PARENT};
use rstore_core::plan::QuerySpec;
use rstore_core::store::RStore;
use rstore_core::{CacheStats, CoreError, Record, ServeStats, VersionId};
use rstore_kvstore::StatsSnapshot;
use std::time::Instant;

/// Queries per block: five units of the 20-query mix. A loop checks
/// its stop rule, and switches tracing, between blocks.
pub const BLOCK: usize = 100;

/// Query classes, indexing per-class arrays in the order of
/// [`crate::metrics::CLASSES`].
pub const VERSION: usize = 0;
pub const RANGE: usize = 1;
pub const EVOLUTION: usize = 2;
pub const RECORD: usize = 3;

/// Class of the `i`-th query of a stream: per 20 queries 1 version,
/// 2 range, 2 evolution and 15 record retrievals, interleaved.
pub fn class_at(i: u64) -> usize {
    match i % 20 {
        0 => VERSION,
        5 | 15 => RANGE,
        3 | 13 => EVOLUTION,
        _ => RECORD,
    }
}

/// A seeded query stream over the first `versions` versions of the
/// oracle's history. The version is uniform; keys are uniform over
/// the keys **that version holds**, and a range covers a tenth of them
/// by rank. (Drawing keys from the whole key space instead makes
/// 45 % of the lookups miss — keys inserted on another branch, or not
/// yet — and the class medians then sit between an empty and a full
/// answer: the LAN range median read 17–36 ms over ten seeds.)
pub struct QueryStream<'a> {
    rng: Xorshift,
    oracle: &'a Oracle,
    versions: u64,
    next: u64,
}

impl<'a> QueryStream<'a> {
    pub fn new(oracle: &'a Oracle, seed: u64, stream: u64, versions: usize) -> Self {
        Self {
            rng: Xorshift::new(seed, stream),
            oracle,
            versions: versions as u64,
            next: 0,
        }
    }

    pub fn next_query(&mut self) -> (usize, QuerySpec) {
        let class = class_at(self.next);
        self.next += 1;
        let v = VersionId(self.rng.below(self.versions) as u32);
        let keys = self.oracle.versions.contents(v);
        let width = keys.len() / 10;
        let rank = self.rng.below((keys.len() - width) as u64) as usize;
        let pk = keys[rank].0;
        let spec = match class {
            VERSION => QuerySpec::Version(v),
            RANGE => QuerySpec::Range {
                lo: pk,
                hi: keys[rank + width].0,
                v,
            },
            EVOLUTION => QuerySpec::Evolution { pk },
            _ => QuerySpec::Record { pk, v },
        };
        (class, spec)
    }
}

/// When a query loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After exactly this many blocks.
    Blocks(usize),
    /// At the first block boundary past `at`, but never before
    /// `min_blocks` blocks — the window the counted metrics need.
    Deadline { at: Instant, min_blocks: usize },
}

/// Which blocks record spans and counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    Off,
    /// Odd blocks traced, even blocks not: both halves see the same
    /// store state drift, so their rates compare fairly.
    Alternate,
    All,
}

/// Counters read at the layer boundaries of traced queries.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub queries: [u64; 4],
    pub span: [u64; 4],
    pub modeled_ns: [u64; 4],
    pub nodes_contacted: u64,
    pub max_node_batch: u64,
    pub chunks_useful: u64,
    pub records: u64,
    pub queue_wait_ns: u64,
}

impl Counters {
    pub fn total_queries(&self) -> u64 {
        self.queries.iter().sum()
    }

    pub fn total_span(&self) -> u64 {
        self.span.iter().sum()
    }
}

/// Store-level counters, read where a counted window opens and closes.
#[derive(Debug, Clone, Copy)]
pub struct StoreCounters {
    pub cache: CacheStats,
    pub cluster: StatsSnapshot,
    pub serve: ServeStats,
}

impl StoreCounters {
    pub fn read(store: &RStore) -> Self {
        Self {
            cache: store.cache_stats(),
            cluster: store.cluster().stats(),
            serve: store.serve_stats(),
        }
    }
}

/// Rates of the blocks a loop ran: queries ÷ their summed latency,
/// for untraced and for traced blocks.
#[derive(Debug, Default, Clone)]
pub struct BlockRates {
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
}

/// What a query loop measured.
#[derive(Default)]
pub struct ReadOutcome {
    /// Untraced latencies per class, ns (ascending after
    /// [`ReadOutcome::sort`]).
    pub latency_ns: [Vec<f64>; 4],
    pub rates: BlockRates,
    /// Traced per-class stage times, ns: `stage_ns[stage][class]`
    /// with stages plan, execute, drain.
    pub stage_ns: [[Vec<f64>; 4]; 3],
    /// Counters over the traced blocks of the counted window.
    pub counters: Counters,
    /// Store counters at the open and close of the counted window,
    /// and the queries run in between.
    pub window: Option<(StoreCounters, StoreCounters, u64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl ReadOutcome {
    /// The median block rate. A block's rate is its queries ÷ their
    /// summed latency, so oracle checks between queries are not on
    /// the clock; the median over blocks keeps a burst of interference
    /// from a neighbour of the host out of the figure, which total ÷
    /// wall would not.
    pub fn qps(&self) -> f64 {
        stats::median(&self.rates.untraced)
    }

    /// The same over traced blocks.
    pub fn traced_qps(&self) -> f64 {
        stats::median(&self.rates.traced)
    }

    /// Folds in a later loop (segments of a phase, query batches of
    /// ingest cycles). Counters stay those of the first traced loop,
    /// so counts do not depend on how many loops the deadline allowed.
    pub fn absorb(&mut self, other: ReadOutcome) {
        for c in 0..4 {
            self.latency_ns[c].extend(&other.latency_ns[c]);
            for stage in 0..3 {
                self.stage_ns[stage][c].extend(&other.stage_ns[stage][c]);
            }
        }
        self.rates.untraced.extend(other.rates.untraced);
        self.rates.traced.extend(other.rates.traced);
        if self.counters.total_queries() == 0 {
            self.counters = other.counters;
            self.window = other.window.or(self.window);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Sorts the samples ascending, ready for percentiles.
    pub fn sort(&mut self) {
        for c in 0..4 {
            stats::sort(&mut self.latency_ns[c]);
            for stage in 0..3 {
                stats::sort(&mut self.stage_ns[stage][c]);
            }
        }
    }
}

/// Everything a query loop needs to know about its target.
#[derive(Clone, Copy)]
pub struct Target<'a> {
    pub store: &'a RStore,
    pub oracle: &'a Oracle,
    /// Versions the store holds (a prefix of the oracle's).
    pub versions: usize,
    pub seed: u64,
    /// Distinguishes the query streams of the loops of one run.
    pub phase: u64,
}

/// The three calls every public read wrapper is built from.
pub fn run_query(store: &RStore, spec: QuerySpec) -> Result<Vec<Record>, CoreError> {
    let plan = store.plan_query(spec)?;
    store.execute(plan)?.into_stream().drain()
}

/// Runs one closed query loop on the calling thread. The first
/// `count_blocks` blocks are the window over which counters are kept,
/// so that counts repeat exactly however long the deadline lets the
/// loop run.
pub fn run_queries(
    target: Target<'_>,
    stop: Stop,
    tracing: Tracing,
    count_blocks: usize,
    tracer: &mut Tracer,
) -> ReadOutcome {
    let Target {
        store,
        oracle,
        versions,
        seed,
        phase,
    } = target;
    let mut stream = QueryStream::new(oracle, seed, phase, versions);
    let mut seen = Seen::default();
    let mut out = ReadOutcome::default();
    let window_open = StoreCounters::read(store);
    let mut block = 0usize;
    loop {
        let done = match stop {
            Stop::Blocks(n) => block >= n,
            Stop::Deadline { at, min_blocks } => block >= min_blocks && Instant::now() >= at,
        };
        if done {
            break;
        }
        let traced = match tracing {
            Tracing::Off => false,
            Tracing::Alternate => block % 2 == 1,
            Tracing::All => true,
        };
        let counted = block < count_blocks;
        let (mut queries, mut busy_ns) = (0u64, 0u64);
        for i in 0..BLOCK {
            let (class, spec) = stream.next_query();
            out.attempted += 1;
            let t0 = Instant::now();
            let answer = if traced {
                let op = (phase << 32) | (block * BLOCK + i) as u64;
                traced_query(store, spec, class, counted, op, &mut out, tracer)
            } else {
                run_query(store, spec)
            };
            let ns = t0.elapsed().as_nanos() as u64;
            if answer.is_ok() {
                queries += 1;
                busy_ns += ns;
                if !traced {
                    out.latency_ns[class].push(ns as f64);
                }
            }
            match answer {
                Ok(records) if oracle.check(spec, versions, &records, &mut seen) => {}
                _ => out.failed += 1,
            }
        }
        if busy_ns > 0 {
            let rates = if traced {
                &mut out.rates.traced
            } else {
                &mut out.rates.untraced
            };
            rates.push(queries as f64 / (busy_ns as f64 / 1e9));
        }
        block += 1;
        if block == count_blocks {
            out.window = Some((
                window_open,
                StoreCounters::read(store),
                (block * BLOCK) as u64,
            ));
        }
    }
    out
}

/// One query with a span and a timestamp at every layer boundary.
fn traced_query(
    store: &RStore,
    spec: QuerySpec,
    class: usize,
    counted: bool,
    op: u64,
    out: &mut ReadOutcome,
    tracer: &mut Tracer,
) -> Result<Vec<Record>, CoreError> {
    let t0 = Instant::now();
    let plan = store.plan_query(spec)?;
    let t1 = Instant::now();
    let (span, nodes, max_batch) = (plan.span(), plan.nodes_contacted(), plan.max_node_batch());
    let executed = store.execute(plan)?;
    let t2 = Instant::now();
    let fetch = executed.metrics;
    let mut stream = executed.into_stream();
    let records = stream.drain()?;
    let t3 = Instant::now();

    let root = tracer.record("query", t0, t3, NO_PARENT, op);
    tracer.record("plan", t0, t1, root, op);
    tracer.record("execute", t1, t2, root, op);
    tracer.record("drain", t2, t3, root, op);
    for (stage, (from, to)) in [(t0, t1), (t1, t2), (t2, t3)].into_iter().enumerate() {
        out.stage_ns[stage][class].push((to - from).as_nanos() as f64);
    }
    if counted {
        let c = &mut out.counters;
        c.queries[class] += 1;
        c.span[class] += span as u64;
        c.modeled_ns[class] += fetch.modeled_network.as_nanos() as u64;
        c.nodes_contacted += nodes as u64;
        c.max_node_batch += max_batch as u64;
        c.chunks_useful += stream.chunks_useful() as u64;
        c.records += stream.records_yielded() as u64;
        c.queue_wait_ns += fetch.queue_wait.as_nanos() as u64;
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_one_two_two_fifteen_per_twenty() {
        let mut counts = [0usize; 4];
        for i in 0..BLOCK as u64 {
            counts[class_at(i)] += 1;
        }
        assert_eq!(counts, [5, 10, 10, 75]);
    }

    #[test]
    fn streams_repeat_per_seed_and_ask_for_what_the_version_holds() {
        use crate::oracle::{d1, Scale};
        let oracle = Oracle::build(&d1(Scale {
            versions: 40,
            root_records: 100,
        }));
        let specs = |seed| {
            let mut s = QueryStream::new(&oracle, seed, 0, 40);
            (0..200).map(|_| s.next_query()).collect::<Vec<_>>()
        };
        assert_eq!(specs(1), specs(1));
        assert_ne!(specs(1), specs(2));
        for (class, spec) in specs(3) {
            match spec {
                QuerySpec::Version(v) => assert!(class == VERSION && v.index() < 40),
                QuerySpec::Range { lo, hi, v } => {
                    let hit = oracle.versions.range(v, lo, hi).len();
                    assert!(class == RANGE && hit == oracle.versions.record_count(v) / 10 + 1);
                }
                QuerySpec::Evolution { pk } => assert!(
                    class == EVOLUTION && oracle.records.keys().iter().any(|ck| ck.pk == pk)
                ),
                QuerySpec::Record { pk, v } => {
                    assert!(class == RECORD && oracle.versions.lookup(v, pk).is_some())
                }
                QuerySpec::Scan => panic!("the mix never scans"),
            }
        }
    }
}
