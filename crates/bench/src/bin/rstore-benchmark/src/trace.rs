//! Benchmark-side spans: recorded around each call into a layer,
//! kept in memory, and turned into per-layer self times and a
//! Chrome-trace file once the measured phase has ended.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `parent` indexes the same span list; spans of
/// one operation (a query, an ingest cycle) share `op_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder of a run; timestamps count from its epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index (a parent handle
    /// for spans recorded after it).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        op_id: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose end is not known yet; close it with
    /// [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32, op_id: u64) -> u32 {
        let now = Instant::now();
        self.record(name, now, now, parent, op_id)
    }

    pub fn end(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.ns(Instant::now());
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover. Children are clipped to
/// the parent and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = spans.get(s.parent as usize) {
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per span name: `(count, total ns, self ns)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let row = table.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.duration_ns();
        row.2 += own;
    }
    table
}

/// The first `cap` spans as a Chrome-trace (`chrome://tracing`,
/// Perfetto) document of complete events. Timestamps are microseconds.
pub fn chrome_trace(spans: &[Span], cap: usize) -> Json {
    let events = spans
        .iter()
        .take(cap)
        .map(|s| {
            Json::obj([
                ("name", Json::Str(s.name.into())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj([
                        ("op_id", Json::Num(s.op_id as f64)),
                        (
                            "parent",
                            if s.parent == NO_PARENT {
                                Json::Null
                            } else {
                                Json::Num(f64::from(s.parent))
                            },
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ns".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // query 0..100 { plan 0..10, execute 10..70 { fetch 20..50 }, drain 70..95 }
        let spans = vec![
            span("query", 0, 100, NO_PARENT),
            span("plan", 0, 10, 0),
            span("execute", 10, 70, 0),
            span("fetch", 20, 50, 2),
            span("drain", 70, 95, 0),
        ];
        assert_eq!(self_times(&spans), vec![5, 10, 30, 30, 25]);
        let table = by_name(&spans);
        assert_eq!(table["query"], (1, 100, 5));
        assert_eq!(table["execute"], (1, 60, 30));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children 10..40 and 30..60 overlap; 90..130 overhangs the
        // parent's end; 200..210 lies outside it entirely.
        let spans = vec![
            span("parent", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 30, 60, 0),
            span("c", 90, 130, 0),
            span("d", 200, 210, 0),
            span("inside-a", 15, 20, 1),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 50 - 10);
        assert_eq!(selfs[1], 25);
        assert_eq!(selfs[2], 30);
    }

    #[test]
    fn chrome_trace_is_valid_json_and_capped() {
        let spans = vec![
            span("query", 1_000, 3_500, NO_PARENT),
            span("plan", 1_000, 1_200, 0),
            span("x", 0, 1, NO_PARENT),
        ];
        let doc = chrome_trace(&spans, 2);
        let parsed = Json::parse(&doc.render()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("dur").unwrap().as_f64(), Some(2.5));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
