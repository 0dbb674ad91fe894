//! Shared infrastructure for the RStore experiment harness.
//!
//! Every table and figure of the paper's evaluation (§5) has a
//! binary in `src/bin/` that regenerates it; this library holds the
//! pieces they share: scaled dataset presets, store construction,
//! partition-input assembly, random query workloads and plain-text
//! table rendering. `EXPERIMENTS.md` at the workspace root records
//! paper-vs-measured for each experiment.

use rstore_core::compact::FragmentationStats;
use rstore_core::model::VersionId;
use rstore_core::partition::{PartitionInput, Partitioning, PartitionerKind};
use rstore_core::store::{IngestStages, RStore};
use rstore_kvstore::{Cluster, NetworkModel};
use rstore_vgraph::{gen::presets, Dataset, DatasetSpec, MaterializedVersions, RecordStore};

/// Default chunk capacity for scaled datasets (the paper's 1 MB,
/// scaled with the data: a version here is a few hundred KB).
pub const CHUNK_CAPACITY: usize = 16 * 1024;

/// A global scale factor for quick runs: `RSTORE_BENCH_SCALE=0.2`
/// shrinks every dataset to 20% of its preset size.
pub fn scale_factor() -> f64 {
    std::env::var("RSTORE_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&f: &f64| f > 0.0 && f <= 1.0)
        .unwrap_or(1.0)
}

/// Applies the global scale factor to a spec.
pub fn scaled(mut spec: DatasetSpec) -> DatasetSpec {
    let f = scale_factor();
    if (f - 1.0).abs() > f64::EPSILON {
        spec.num_versions = ((spec.num_versions as f64 * f) as usize).max(8);
        spec.root_records = ((spec.root_records as f64 * f) as usize).max(16);
    }
    spec
}

/// The Table 2 presets, scaled.
pub fn table2_specs() -> Vec<DatasetSpec> {
    presets::table2().into_iter().map(scaled).collect()
}

/// A generated dataset together with its oracle structures.
pub struct Bundle {
    /// The dataset.
    pub dataset: Dataset,
    /// Interned records.
    pub store: RecordStore,
    /// Materialized version contents.
    pub materialized: MaterializedVersions,
    /// Sorted item (record) ordinals per version.
    pub version_items: Vec<Vec<u32>>,
    /// Record payload sizes.
    pub item_sizes: Vec<u32>,
    /// Record primary keys.
    pub item_pk: Vec<u64>,
}

impl Bundle {
    /// Generates and materializes a dataset.
    pub fn new(spec: &DatasetSpec) -> Self {
        let dataset = spec.generate();
        let store = dataset.record_store();
        let materialized = dataset.materialize(&store);
        let version_items: Vec<Vec<u32>> = (0..dataset.graph.len())
            .map(|v| {
                let mut items: Vec<u32> = materialized
                    .contents(VersionId(v as u32))
                    .iter()
                    .map(|&(_, ord)| ord)
                    .collect();
                items.sort_unstable();
                items
            })
            .collect();
        let item_sizes: Vec<u32> = (0..store.len() as u32)
            .map(|o| store.payload(o).len() as u32)
            .collect();
        let item_pk: Vec<u64> = store.keys().iter().map(|ck| ck.pk).collect();
        Self {
            dataset,
            store,
            materialized,
            version_items,
            item_sizes,
            item_pk,
        }
    }

    /// The partitioner input view (record-level items, k = 1).
    pub fn input(&self) -> PartitionInput<'_> {
        PartitionInput {
            tree: &self.dataset.graph,
            version_items: &self.version_items,
            item_sizes: &self.item_sizes,
            item_pk: &self.item_pk,
        }
    }

    /// Total version span of a partitioning over this bundle.
    pub fn total_span(&self, p: &Partitioning) -> usize {
        let mut span = 0usize;
        let mut seen = vec![u32::MAX; p.num_chunks];
        for (v, items) in self.version_items.iter().enumerate() {
            for &i in items {
                let c = p.chunk_of[i as usize] as usize;
                if seen[c] != v as u32 {
                    seen[c] = v as u32;
                    span += 1;
                }
            }
        }
        span
    }
}

/// Builds a fresh store over an in-memory cluster. The decoded-chunk
/// cache stays disabled (the cost-model default); use
/// [`make_cached_store`] for serving-layer experiments.
pub fn make_store(
    nodes: usize,
    kind: PartitionerKind,
    k: usize,
    capacity: usize,
    network: NetworkModel,
) -> RStore {
    make_cached_store(nodes, kind, k, capacity, network, 0)
}

/// [`make_store`] with a decoded-chunk cache budget in bytes
/// (0 = disabled).
pub fn make_cached_store(
    nodes: usize,
    kind: PartitionerKind,
    k: usize,
    capacity: usize,
    network: NetworkModel,
    cache_budget: usize,
) -> RStore {
    let cluster = Cluster::builder().nodes(nodes).network(network).build();
    RStore::builder()
        .chunk_capacity(capacity)
        .max_subchunk(k)
        .partitioner(kind)
        .cache_budget(cache_budget)
        .build(cluster)
}

/// Deterministic xorshift for query workloads.
pub struct Xorshift(u64);

impl Xorshift {
    /// Seeds the generator (0 is remapped).
    pub fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Renders an aligned plain-text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:>width$}", h, width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a byte count human-readably.
pub fn fmt_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

/// Renders the per-stage ingest breakdown of a
/// [`LoadReport`](rstore_core::store::LoadReport) /
/// [`FlushReport`](rstore_core::store::FlushReport) on one line.
/// Stages overlap (writes stream while later chunks encode), so they
/// need not sum to the end-to-end time.
pub fn fmt_ingest_stages(s: &IngestStages) -> String {
    format!(
        "{} worker(s): subchunk {} | partition {} | assemble {} | index {} | write-blocked {} | modeled write {}",
        s.workers,
        fmt_duration(s.subchunk),
        fmt_duration(s.partition),
        fmt_duration(s.assemble),
        fmt_duration(s.index),
        fmt_duration(s.write),
        fmt_duration(s.modeled_write),
    )
}

/// Renders a [`FragmentationStats`] measurement on one line.
pub fn fmt_fragmentation(f: &FragmentationStats) -> String {
    format!(
        "{} chunk(s) ({} retired), mean fill {:.2} ({} under-filled) | \
         span mean {:.2} / max {} (total {}) | est read amplification {:.2}x",
        f.live_chunks,
        f.retired_chunks,
        f.mean_fill,
        f.under_filled,
        f.mean_version_span,
        f.max_version_span,
        f.total_version_span,
        f.est_read_amplification,
    )
}

// ── Shared latency accounting (PR 9) ────────────────────────────────
//
// Before the observability layer, every latency-reporting bench kept
// its own sorted `Vec<Duration>` plus a copy-pasted `percentile`
// helper. They now share the exact-percentile function below and a
// [`LatencyHist`] wrapper over the core log-bucketed histogram, whose
// `buckets_json` fragment rides along in each `BENCH_*.json` so the
// perf-trajectory files carry full distributions, not just two
// quantiles.

/// Exact percentile of an **ascending-sorted** sample vector (the
/// nearest-rank rule every bench used locally before PR 9).
pub fn percentile(sorted: &[std::time::Duration], p: f64) -> std::time::Duration {
    if sorted.is_empty() {
        return std::time::Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// A latency distribution: the core observability histogram
/// (log-bucketed, ≤3.2% relative error) behind a bench-friendly API.
#[derive(Debug, Default)]
pub struct LatencyHist {
    hist: rstore_kvstore::Histogram,
}

impl LatencyHist {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, d: std::time::Duration) {
        self.hist.record_duration(d);
    }

    /// Records a batch of samples.
    pub fn record_all(&self, samples: &[std::time::Duration]) {
        for &d in samples {
            self.record(d);
        }
    }

    /// Count / mean / p50 / p99 summary.
    pub fn summary(&self) -> rstore_core::HistSummary {
        rstore_core::HistSummary::of(&self.hist.snapshot())
    }

    /// The occupied buckets as a JSON array fragment
    /// `[[upper_bound_us, count], ...]` for `BENCH_*.json` files
    /// (microsecond bounds: every bench reports latencies in µs).
    pub fn buckets_json(&self) -> String {
        let parts: Vec<String> = self
            .hist
            .snapshot()
            .nonzero_buckets()
            .map(|(bound_ns, count)| format!("[{:.1}, {count}]", bound_ns as f64 / 1e3))
            .collect();
        format!("[{}]", parts.join(", "))
    }
}

/// Writes `BENCH_<bench>.json` at the workspace root (gitignored; CI
/// uploads it) — the one writer behind every bench's machine-readable
/// record: a flat object of `fields`, led by the bench's name. Values
/// arrive as JSON already (numbers, booleans, `buckets_json` arrays);
/// [`json_ms`] and [`json_us`] render durations.
pub fn report(bench: &str, fields: &[(&str, String)]) {
    let mut json = format!("{{\n  \"bench\": \"bench_{bench}\"");
    for (key, value) in fields {
        json.push_str(&format!(",\n  \"{key}\": {value}"));
    }
    json.push_str("\n}\n");
    let path = format!("{}/../../BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("results written to {path}");
}

/// A duration as JSON milliseconds (three decimals).
pub fn json_ms(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// A duration as JSON microseconds (one decimal).
pub fn json_us(d: std::time::Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.0} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_builds_and_span_computes() {
        let spec = DatasetSpec::tiny(5);
        let b = Bundle::new(&spec);
        let p = PartitionerKind::DepthFirst
            .build(1024)
            .partition(&b.input());
        let span = b.total_span(&p);
        assert!(span >= b.dataset.graph.len());
    }

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = Xorshift::new(7);
        let mut b = Xorshift::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xorshift::new(9);
        assert!(c.below(10) < 10);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert!(fmt_bytes(2048).contains("KB"));
        assert!(fmt_duration(std::time::Duration::from_millis(5)).contains("ms"));
    }

    #[test]
    fn scaled_respects_env_default() {
        let spec = scaled(DatasetSpec::tiny(1));
        assert!(spec.num_versions >= 8);
    }
}
