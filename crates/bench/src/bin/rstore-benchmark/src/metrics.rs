//! The metric names this benchmark defines: 13 end-to-end metrics
//! with their regression bounds, and the per-layer metrics a traced
//! run emits. `BENCHMARK.json` at the repository root lists the same
//! tables; a unit test keeps the two in step.

use crate::json::Json;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old`
    /// (negative when `new` is better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - old) / old.abs(),
            Better::Higher => (old - new) / old.abs(),
        }
    }
}

/// One metric definition. `bound` is set for end-to-end metrics only:
/// the share of the reference median by which the metric may worsen
/// before it counts as a regression.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

/// The four query classes of §2.1, in the order samples are indexed.
pub const CLASSES: [&str; 4] = ["version", "range", "evolution", "record"];

/// Stage names shared by `LoadReport`/`FlushReport` breakdowns.
pub const INGEST_STAGES: [&str; 5] = [
    "subchunk",
    "partition",
    "assemble",
    "index",
    "write_blocked",
];

/// Stage names of a `CompactionReport`.
pub const COMPACT_STAGES: [&str; 7] = [
    "measure",
    "extract",
    "partition",
    "rebuild",
    "index",
    "write_blocked",
    "delete",
];

use Better::{Higher, Lower};

/// `(name, unit, direction, bound)` of every end-to-end metric.
/// Bounds wider than the issue's first proposal are twice-plus the
/// spread measured over ten seeds (see README, "Measured spread").
const END_TO_END: [(&str, &str, Better, f64); 13] = [
    ("query_qps", "1/s", Higher, 0.25),
    ("version_p50_ms", "ms", Lower, 0.25),
    ("range_p50_ms", "ms", Lower, 0.25),
    ("evolution_p50_us", "us", Lower, 0.25),
    ("record_p50_us", "us", Lower, 0.25),
    ("load_records_per_s", "1/s", Higher, 0.25),
    ("replay_versions_per_s", "1/s", Higher, 0.25),
    ("compact_s", "s", Lower, 0.25),
    ("reopen_s", "s", Lower, 0.25),
    ("stored_bytes_per_user_byte", "ratio", Lower, 0.01),
    ("written_bytes_per_user_byte", "ratio", Lower, 0.01),
    ("version_span_mean", "chunks", Lower, 0.01),
    ("setup_s", "s", Lower, 0.25),
];

/// The end-to-end metric table.
pub fn end_to_end() -> Vec<MetricDef> {
    END_TO_END
        .iter()
        .map(|&(name, unit, better, bound)| MetricDef {
            name: name.to_string(),
            unit,
            better,
            bound: Some(bound),
        })
        .collect()
}

/// The per-layer metric table (layer = module path).
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs: Vec<MetricDef> = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| {
        defs.push(MetricDef {
            name,
            unit,
            better,
            bound: None,
        })
    };
    let per_class =
        |add: &mut dyn FnMut(String, &'static str, Better), prefix: &str, unit, better| {
            for class in CLASSES {
                add(format!("{prefix}.{class}"), unit, better);
            }
        };
    per_class(&mut add, "core.plan.plan_us", "us", Lower);
    per_class(&mut add, "core.plan.span_mean", "chunks", Lower);
    add("core.plan.nodes_contacted_mean".into(), "count", Lower);
    add("core.plan.max_node_batch_mean".into(), "count", Lower);
    add("core.plan.plan_share".into(), "ratio", Lower);
    per_class(&mut add, "core.store.execute_us", "us", Lower);
    add("core.store.execute_share".into(), "ratio", Lower);
    per_class(&mut add, "core.query.drain_us", "us", Lower);
    add("core.query.drain_share".into(), "ratio", Lower);
    add("core.query.records_per_s".into(), "1/s", Higher);
    add("core.query.useful_chunk_ratio".into(), "ratio", Higher);
    add("core.cache.hit_ratio".into(), "ratio", Higher);
    add("core.cache.evictions".into(), "count", Lower);
    add("core.cache.resident_bytes".into(), "bytes", Lower);
    add("core.cache.get_ns".into(), "ns", Lower);
    add("core.cache.insert_ns".into(), "ns", Lower);
    add("core.serve.queue_wait_us_mean".into(), "us", Lower);
    add("core.serve.jobs_per_query".into(), "count", Lower);
    add("core.serve.peak_in_flight".into(), "count", Lower);
    add("core.chunk.deserialize_us_per_chunk".into(), "us", Lower);
    add("core.chunk.serialize_mb_s".into(), "MB/s", Higher);
    add("core.subchunk.build_us_per_group".into(), "us", Lower);
    add("core.subchunk.decode_us_per_group".into(), "us", Lower);
    add("core.chunkmap.deserialize_us_per_map".into(), "us", Lower);
    add("core.chunkmap.serialize_us_per_map".into(), "us", Lower);
    add("core.chunkmap.push_version_us".into(), "us", Lower);
    add(
        "core.chunkmap.iter_locals_ns_per_record".into(),
        "ns",
        Lower,
    );
    add("core.chunkmap.bytes_per_map_mean".into(), "bytes", Lower);
    add("core.partition.bottom_up_items_per_s".into(), "1/s", Higher);
    add(
        "core.partition.bottom_up_total_span".into(),
        "chunks",
        Lower,
    );
    per_class(&mut add, "core.index.chunks_for_ns", "ns", Lower);
    add("core.index.projection_bytes".into(), "bytes", Lower);
    for stage in INGEST_STAGES {
        add(format!("core.store.load.{stage}_s"), "s", Lower);
    }
    for stage in INGEST_STAGES {
        add(format!("core.store.flush.{stage}_s"), "s", Lower);
    }
    add("core.store.flush_ms_p50".into(), "ms", Lower);
    add("core.store.commit_us_p50".into(), "us", Lower);
    add("core.store.seal_ms".into(), "ms", Lower);
    for stage in COMPACT_STAGES {
        add(format!("core.compact.{stage}_s"), "s", Lower);
    }
    add("core.compact.victims".into(), "count", Lower);
    add("core.compact.bytes_rewritten".into(), "bytes", Lower);
    add("core.compact.span_before".into(), "chunks", Lower);
    add("core.compact.span_after".into(), "chunks", Lower);
    add("compress.lz.compress_mb_s".into(), "MB/s", Higher);
    add("compress.lz.decompress_mb_s".into(), "MB/s", Higher);
    add("compress.delta.diff_mb_s".into(), "MB/s", Higher);
    add("compress.delta.apply_mb_s".into(), "MB/s", Higher);
    add("compress.bitmap.serialize_ns".into(), "ns", Lower);
    add("compress.bitmap.deserialize_ns".into(), "ns", Lower);
    add("compress.varint.roundtrip_ns_per_int".into(), "ns", Lower);
    add("compress.postings.encode_ns_per_id".into(), "ns", Lower);
    add("compress.postings.decode_ns_per_id".into(), "ns", Lower);
    add("kvstore.cluster.get_us".into(), "us", Lower);
    add("kvstore.cluster.multi_get_us_per_key".into(), "us", Lower);
    add("kvstore.cluster.multi_put_us_per_pair".into(), "us", Lower);
    add(
        "kvstore.cluster.batch_gets_per_query".into(),
        "count",
        Lower,
    );
    add(
        "kvstore.cluster.bytes_read_per_query".into(),
        "bytes",
        Lower,
    );
    add("kvstore.cluster.batch_puts".into(), "count", Lower);
    add("kvstore.cluster.bytes_written".into(), "bytes", Lower);
    per_class(
        &mut add,
        "kvstore.netmodel.modeled_ms_per_query",
        "ms",
        Lower,
    );
    add("kvstore.ring.owner_of_ns".into(), "ns", Lower);
    add("kvstore.engine.mem.put_ns".into(), "ns", Lower);
    add("kvstore.engine.mem.get_ns".into(), "ns", Lower);
    add("kvstore.engine.log.put_us".into(), "us", Lower);
    add("kvstore.engine.log.get_us".into(), "us", Lower);
    add("kvstore.engine.log.replay_ms".into(), "ms", Lower);
    add("vgraph.gen.generate_s".into(), "s", Lower);
    add("vgraph.materialize.materialize_s".into(), "s", Lower);
    add("ungated.version_p95_ms".into(), "ms", Lower);
    add("ungated.record_p95_us".into(), "us", Lower);
    add("ungated.record_p99_us".into(), "us", Lower);
    add("trace.overhead_ratio".into(), "ratio", Higher);
    defs
}

/// The directory that holds the benchmark and nothing else.
pub const PATH: &str = "crates/bench/src/bin/rstore-benchmark";

/// What the driver runs from the root of a checkout, before
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "crates/bench/src/bin/rstore-benchmark/Cargo.toml",
    "--",
];

/// Measured seconds of one run (`run_seconds`), and the default of
/// `--seconds`.
pub const RUN_SECONDS: f64 = 24.0;

/// Limits of the benchmark contract.
pub const MAX_END_TO_END: usize = 16;
pub const MAX_PER_LAYER: usize = 128;
const MAX_NAME_LEN: usize = 64;
const MAX_UNIT_LEN: usize = 16;
pub const MAX_BOUND: f64 = 0.25;

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME_LEN
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= MAX_UNIT_LEN
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Checks the two tables against the contract: name and unit
/// alphabets, table sizes, no name used twice, a bounded `setup_s`.
pub fn validate(end_to_end: &[MetricDef], per_layer: &[MetricDef]) -> Result<(), String> {
    if end_to_end.is_empty() || end_to_end.len() > MAX_END_TO_END {
        return Err(format!(
            "{} end-to-end metrics (1..={MAX_END_TO_END})",
            end_to_end.len()
        ));
    }
    if per_layer.is_empty() || per_layer.len() > MAX_PER_LAYER {
        return Err(format!(
            "{} per-layer metrics (1..={MAX_PER_LAYER})",
            per_layer.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for def in end_to_end.iter().chain(per_layer) {
        if !valid_name(&def.name) {
            return Err(format!("bad metric name {:?}", def.name));
        }
        if !valid_unit(def.unit) {
            return Err(format!("bad unit {:?} for {}", def.unit, def.name));
        }
        if !seen.insert(def.name.as_str()) {
            return Err(format!("metric name {} used twice", def.name));
        }
    }
    for def in end_to_end {
        match def.bound {
            Some(b) if b > 0.0 && b <= MAX_BOUND => {}
            other => {
                return Err(format!(
                    "bound {other:?} of {} outside (0, {MAX_BOUND}]",
                    def.name
                ))
            }
        }
    }
    if per_layer.iter().any(|d| d.bound.is_some()) {
        return Err("per-layer metrics carry no bound".into());
    }
    match end_to_end.iter().find(|d| d.name == "setup_s") {
        Some(d) if d.unit == "s" && d.better == Lower => Ok(()),
        _ => Err("setup_s (unit s, lower is better) is required".into()),
    }
}

/// `BENCHMARK.json`, generated from the tables of this module and of
/// [`crate::workload`] (`rstore-benchmark manifest` prints it; a unit
/// test holds the committed file to it).
pub fn manifest() -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    let entry = |d: &MetricDef| {
        let mut pairs = vec![
            ("name", text(&d.name)),
            ("unit", text(d.unit)),
            ("better", text(d.better.as_str())),
        ];
        if let Some(bound) = d.bound {
            pairs.push(("bound", Json::Num(bound)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Json::Arr(vec![text(PATH)])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                crate::workload::WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end().iter().map(entry).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer().iter().map(entry).collect()),
        ),
    ])
}

/// Values measured by one run, by metric name.
#[derive(Debug, Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        debug_assert!(self.get(&name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn extend(&mut self, other: Values) {
        for (name, value) in other.0 {
            self.set(name, value);
        }
    }

    /// The `metrics` object of the result line: exactly the metrics
    /// of `defs`, in table order. A metric the run did not produce,
    /// or produced as a non-finite number, is an error — the driver
    /// must never see a partial or padded result.
    pub fn to_json(&self, defs: &[MetricDef]) -> Result<Json, String> {
        let mut pairs = Vec::with_capacity(defs.len());
        for def in defs {
            let value = self
                .get(&def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite", def.name));
            }
            pairs.push((
                def.name.clone(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(def.unit.into())),
                ]),
            ));
        }
        Ok(Json::Obj(pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_in_tables_are_valid() {
        let (e2e, layers) = (end_to_end(), per_layer());
        validate(&e2e, &layers).unwrap();
        assert_eq!(e2e.len(), 13);
        assert!(layers.len() <= MAX_PER_LAYER);
        assert!(layers.iter().any(|d| d.name == "core.plan.plan_us.version"));
        assert!(layers
            .iter()
            .any(|d| d.name == "kvstore.netmodel.modeled_ms_per_query.record"));
    }

    fn def(name: &str, unit: &'static str, bound: Option<f64>) -> MetricDef {
        MetricDef {
            name: name.into(),
            unit,
            better: Lower,
            bound,
        }
    }

    #[test]
    fn validator_rejects_bad_tables() {
        let setup = def("setup_s", "s", Some(0.25));
        let layers = [def("core.x", "ns", None)];
        // `setup_s` plus `extra` against the one-layer table.
        let ok_with = |extra: &[MetricDef]| {
            let mut e2e = vec![setup.clone()];
            e2e.extend_from_slice(extra);
            validate(&e2e, &layers).is_ok()
        };
        assert!(ok_with(&[]));
        assert!(ok_with(&[def("x", "1/s", Some(0.1))]));
        // Alphabet, length and first character of names; units.
        for bad in ["", "a b", "µs", "_x", "a/b", &"n".repeat(65)] {
            assert!(!ok_with(&[def(bad, "s", Some(0.1))]), "{bad:?}");
        }
        assert!(!ok_with(&[def("x", "µs", Some(0.1))]));
        assert!(!ok_with(&[def("x", "", Some(0.1))]));
        // Duplicates within and across tables.
        assert!(!ok_with(std::slice::from_ref(&setup)));
        assert!(!ok_with(&[def("core.x", "s", Some(0.1))]));
        // Bounds.
        assert!(!ok_with(&[def("x", "s", Some(0.3))]));
        assert!(!ok_with(&[def("x", "s", Some(0.0))]));
        assert!(!ok_with(&[def("x", "s", None)]));
        // Table sizes.
        let many = |n: usize, bound| {
            (0..n)
                .map(|i| def(&format!("m{i}"), "s", bound))
                .collect::<Vec<_>>()
        };
        assert!(ok_with(&many(15, Some(0.1))));
        assert!(!ok_with(&many(16, Some(0.1))));
        let e2e = [setup];
        assert!(validate(&e2e, &many(128, None)).is_ok());
        assert!(validate(&e2e, &many(129, None)).is_err());
        assert!(validate(&e2e, &[]).is_err());
        // The mandatory setup_s, and no bounds on layers.
        assert!(validate(&[def("x", "s", Some(0.1))], &layers).is_err());
        assert!(validate(&e2e, &[def("core.x", "ns", Some(0.1))]).is_err());
    }

    #[test]
    fn values_render_exactly_the_defined_set() {
        let defs = vec![def("a", "s", None), def("b", "ms", None)];
        let mut v = Values::default();
        v.set("b", 2.5);
        assert!(v.to_json(&defs).is_err(), "a is missing");
        v.set("a", 1.0);
        v.set("extra", 9.0);
        let json = v.to_json(&defs).unwrap();
        assert_eq!(
            json.render(),
            r#"{"a": {"value": 1, "unit": "s"}, "b": {"value": 2.5, "unit": "ms"}}"#
        );
        let mut nan = Values::default();
        nan.set("a", f64::NAN);
        nan.set("b", 1.0);
        assert!(nan.to_json(&defs).is_err());
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let committed = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `rstore-benchmark manifest > BENCHMARK.json`"
        );
        let keys: Vec<&str> = committed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for w in crate::workload::WORKLOADS {
            assert!(
                valid_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
        }
        assert!(COMMAND[5].starts_with(PATH));
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Lower.worsening(10.0, 9.0) < 0.0);
        assert_eq!(Lower.worsening(0.0, 5.0), 0.0);
    }
}
