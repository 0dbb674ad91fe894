//! Shared infrastructure of the RStore bench crate.
//!
//! * [`paper`] — the paper's tables and figures as deterministic
//!   tables with asserted shape claims: the `paper_shapes` test checks
//!   them at small scale, the `paper_results` bin writes the
//!   full-scale tables to `docs/PAPER_RESULTS.md`.
//! * [`delta`] — the DELTA delta-chain comparator those figures
//!   measure against.
//! * The helpers below serve the behaviour benches in `benches/`:
//!   a deterministic RNG, latency histograms and `BENCH_*.json`
//!   reports.

pub mod delta;
pub mod paper;

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

/// Exact percentile of an **ascending-sorted** sample vector (the
/// nearest-rank rule).
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
        assert!(fmt_duration(std::time::Duration::from_millis(5)).contains("ms"));
        assert_eq!(json_us(std::time::Duration::from_micros(3)), "3.0");
    }
}
