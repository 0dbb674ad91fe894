//! One ingest cycle: bulk load → online replay → compaction → restart,
//! every stage timed from outside and every stage's data read back
//! and checked against the oracle.

use crate::oracle::{Oracle, Seen};
use crate::probe::{self, StoredChunk};
use crate::reads::{self, ReadOutcome, Stop, Target, Tracing};
use crate::rng::Xorshift;
use crate::trace::{Tracer, NO_PARENT};
use crate::workload::{Scratch, Workload, FLUSH_EVERY};
use rstore_core::plan::QuerySpec;
use rstore_core::store::{CommitRequest, IngestStages, LoadReport, RStore, StoreConfig};
use rstore_core::{CompactionReport, CoreError, VersionId};
use rstore_vgraph::Dataset;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// What one cycle does besides replay → compact → reopen.
#[derive(Debug, Clone, Copy)]
pub struct CyclePlan {
    /// Versions of the history replayed (a prefix of `D1`).
    pub versions: usize,
    /// Bulk-load the whole dataset into a store `A` first.
    pub bulk_load: bool,
    /// Versions read back and checked after each stage.
    pub read_back: usize,
    /// Query blocks run on the restarted store.
    pub query_blocks: usize,
    /// Record spans and per-query counters.
    pub traced: bool,
    /// Keep a sample of the restarted store's backend bytes for the
    /// layer probe.
    pub capture: bool,
}

/// What one cycle measured.
#[derive(Default)]
pub struct CycleOutcome {
    pub load: Option<(Duration, LoadReport)>,
    pub replay: Duration,
    pub commit_ns: Vec<f64>,
    pub flush_ns: Vec<f64>,
    /// Stage times summed over every `flush_batch` and the `seal`.
    pub flush_stages: IngestStages,
    pub seal: Duration,
    pub compact: Duration,
    pub compaction: Option<CompactionReport>,
    pub reopen: Duration,
    /// `storage_bytes()` of the compacted store.
    pub stored_bytes: usize,
    /// Backend bytes and batches written by replay plus compaction.
    pub written_bytes: u64,
    pub batch_puts: u64,
    /// Chunks per version after compaction.
    pub span_mean: f64,
    pub reads: ReadOutcome,
    pub stored: Vec<StoredChunk>,
    pub attempted: u64,
    pub failed: u64,
}

/// The commits that replay the first `versions` versions of `dataset`
/// (built before the replay clock starts: an application hands the
/// store requests, it does not derive them from deltas).
fn commit_requests(dataset: &Dataset, versions: usize) -> Vec<CommitRequest> {
    dataset.graph.nodes()[..versions]
        .iter()
        .map(|node| {
            let delta = &dataset.deltas[node.id.index()];
            let puts = delta.added.iter().map(|r| (r.pk, r.payload.clone()));
            let mut req = match node.parents.as_slice() {
                [] => CommitRequest::root(puts),
                [parent, others @ ..] => {
                    let base = if others.is_empty() {
                        CommitRequest::child_of(*parent)
                    } else {
                        CommitRequest::merge_of(*parent, others.iter().copied())
                    };
                    puts.fold(base, |req, (pk, payload)| req.put(pk, payload))
                }
            };
            // A removed key is a delete unless the same key is re-added
            // (then it is an update, which the put already expresses).
            let readded: BTreeSet<u64> = delta.added.iter().map(|r| r.pk).collect();
            for ck in &delta.removed {
                if !readded.contains(&ck.pk) {
                    req = req.delete(ck.pk);
                }
            }
            req
        })
        .collect()
}

fn add_stages(sum: &mut IngestStages, s: &IngestStages) {
    sum.subchunk += s.subchunk;
    sum.partition += s.partition;
    sum.assemble += s.assemble;
    sum.index += s.index;
    sum.write += s.write;
    sum.modeled_write += s.modeled_write;
    sum.workers = s.workers;
}

struct Checker<'a> {
    oracle: &'a Oracle,
    seen: Seen,
    attempted: u64,
    failed: u64,
}

impl Checker<'_> {
    /// Counts one store call, returning its value if it succeeded.
    fn call<T>(&mut self, result: Result<T, CoreError>) -> Option<T> {
        self.attempted += 1;
        if result.is_err() {
            self.failed += 1;
        }
        result.ok()
    }

    fn expect(&mut self, holds: bool) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
        }
    }

    /// Reads `sample` back from `store` and compares with the oracle.
    fn read_back(&mut self, store: &RStore, versions: usize, sample: &[VersionId]) {
        for &v in sample {
            let spec = QuerySpec::Version(v);
            let ok = reads::run_query(store, spec)
                .is_ok_and(|answer| self.oracle.check(spec, versions, &answer, &mut self.seen));
            self.expect(ok);
        }
    }
}

/// Runs one cycle of `plan` under `workload`'s regime in fresh
/// directories of `scratch`, which it removes again.
pub fn run_cycle(
    workload: &Workload,
    oracle: &Oracle,
    scratch: &Scratch,
    plan: CyclePlan,
    seed: u64,
    cycle: u64,
    tracer: &mut Tracer,
) -> std::io::Result<CycleOutcome> {
    let mut out = CycleOutcome::default();
    let mut check = Checker {
        oracle,
        seen: Seen::default(),
        attempted: 0,
        failed: 0,
    };
    let versions = plan.versions;
    let sample = oracle.sample_versions(
        versions,
        plan.read_back,
        &mut Xorshift::new(seed, 1000 + cycle),
    );
    let root = if plan.traced {
        tracer.begin("cycle", NO_PARENT, cycle)
    } else {
        NO_PARENT
    };
    let span = |tracer: &mut Tracer, name: &'static str, start: Instant| {
        if plan.traced {
            tracer.record(name, start, Instant::now(), root, cycle);
        }
    };

    // (a) Bulk load of the whole dataset into store A.
    if plan.bulk_load {
        let dir = scratch.fresh_dir()?;
        let a = workload.bulk_store(workload.log_cluster(&dir));
        let t = Instant::now();
        let report = check.call(a.load_dataset(&oracle.dataset));
        span(tracer, "load", t);
        if let Some(report) = report {
            out.load = Some((t.elapsed(), report));
        }
        check.read_back(
            &a,
            oracle.dataset.graph.len(),
            &oracle.sample_versions(
                oracle.dataset.graph.len(),
                plan.read_back,
                &mut Xorshift::new(seed, 2000 + cycle),
            ),
        );
        drop(a);
        std::fs::remove_dir_all(&dir)?;
    }

    // (b) Online replay into store B: commit, flush every 8th, seal.
    let dir = scratch.fresh_dir()?;
    let b = workload.online_store(workload.log_cluster(&dir));
    let requests = commit_requests(&oracle.dataset, versions);
    let replay = Instant::now();
    for (i, req) in requests.into_iter().enumerate() {
        let t = Instant::now();
        check.call(b.commit(req));
        out.commit_ns.push(t.elapsed().as_nanos() as f64);
        span(tracer, "commit", t);
        if (i + 1) % FLUSH_EVERY == 0 {
            let t = Instant::now();
            if let Some(report) = check.call(b.flush_batch()) {
                add_stages(&mut out.flush_stages, &report.stages);
            }
            out.flush_ns.push(t.elapsed().as_nanos() as f64);
            span(tracer, "flush_batch", t);
        }
    }
    let t = Instant::now();
    if let Some(report) = check.call(b.seal()) {
        add_stages(&mut out.flush_stages, &report.stages);
    }
    out.seal = t.elapsed();
    span(tracer, "seal", t);
    out.replay = replay.elapsed();
    check.expect(b.version_count() == versions);
    check.read_back(&b, versions, &sample);

    // (c) Compaction: must find victims and shrink the total span.
    let t = Instant::now();
    let compaction = check.call(b.compact()).flatten();
    out.compact = t.elapsed();
    span(tracer, "compact", t);
    check.expect(compaction.is_some_and(|r| {
        r.victims > 0 && r.after.total_version_span < r.before.total_version_span
    }));
    out.compaction = compaction;
    let written = b.cluster().stats();
    out.written_bytes = written.bytes_written;
    out.batch_puts = written.batch_puts;
    out.stored_bytes = b.storage_bytes();
    out.span_mean = b.total_version_span() as f64 / versions as f64;
    check.read_back(&b, versions, &sample);

    // (d) Restart: drop B, rebuild the cluster on its directory,
    // reopen, and read the same versions back — the durability check.
    // The restarted store runs uncached: with a budget between nothing
    // and everything, the recovery scan leaves an arbitrary part of
    // the data resident and the query medians flip between the hit
    // and the miss path from one seed to the next; uncached, every
    // query reads through the log engine, which no other phase does.
    let config = StoreConfig {
        cache_budget: 0,
        ..*b.config()
    };
    drop(b);
    let t = Instant::now();
    let reopened = check.call(RStore::reopen(config, workload.log_cluster(&dir)));
    out.reopen = t.elapsed();
    span(tracer, "reopen", t);
    if let Some(b) = reopened {
        check.expect(b.version_count() == versions);
        check.read_back(&b, versions, &sample);
        let target = Target {
            store: &b,
            oracle,
            versions,
            seed,
            phase: 2 + cycle,
        };
        let tracing = if plan.traced {
            Tracing::All
        } else {
            Tracing::Off
        };
        out.reads = reads::run_queries(
            target,
            Stop::Blocks(plan.query_blocks),
            tracing,
            plan.query_blocks,
            tracer,
        );
        if plan.capture {
            out.stored = check.call(probe::capture(&b)).unwrap_or_default();
        }
    }
    std::fs::remove_dir_all(&dir)?;
    if plan.traced {
        tracer.end(root);
    }
    out.attempted = check.attempted + out.reads.attempted;
    out.failed = check.failed + out.reads.failed;
    Ok(out)
}
