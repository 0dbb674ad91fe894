//! Fig. 12: weak scalability of RStore.
//!
//! "We doubled the cluster size starting at 1 up to 16, and then
//! approximately double the amount of data by doubling the number of
//! versions." Datasets G and H (scaled); BOTTOM-UP partitioning; at
//! each cluster size we measure full-version retrieval (Q1) and
//! record-evolution (Q3) times plus the average version and key
//! spans. Good weak scaling = query times grow slowly while data
//! grows with the cluster; the increase is "largely attributable to
//! increased version or key spans".

use rstore_bench::{
    fmt_duration, fmt_ingest_stages, make_store, print_table, scaled, Xorshift, CHUNK_CAPACITY,
};
use rstore_core::model::VersionId;
use rstore_core::partition::PartitionerKind;
use rstore_core::QuerySpec;
use rstore_kvstore::NetworkModel;
use rstore_vgraph::{DatasetSpec, SelectionKind};
use std::time::Duration;

const SAMPLES: usize = 15;

/// Dataset G: many versions of mid-sized snapshots.
fn spec_g(versions: usize) -> DatasetSpec {
    scaled(DatasetSpec {
        name: format!("G/{versions}"),
        num_versions: versions,
        root_records: 800,
        branch_prob: 0.03,
        update_frac: 0.10,
        insert_frac: 0.002,
        delete_frac: 0.002,
        selection: SelectionKind::Uniform,
        record_size: 192,
        pd: 0.1,
        seed: 0x6,
    })
}

/// Dataset H: fewer versions of larger snapshots.
fn spec_h(versions: usize) -> DatasetSpec {
    scaled(DatasetSpec {
        name: format!("H/{versions}"),
        num_versions: versions,
        root_records: 2400,
        branch_prob: 0.01,
        update_frac: 0.05,
        insert_frac: 0.002,
        delete_frac: 0.002,
        selection: SelectionKind::Uniform,
        record_size: 192,
        pd: 0.1,
        seed: 0x8,
    })
}

fn run(name: &str, base_versions: usize, make_spec: fn(usize) -> DatasetSpec) {
    let mut rows = Vec::new();
    let mut last_ingest = None;
    for &nodes in &[1usize, 2, 4, 8, 12, 16] {
        // Weak scaling: data grows with the cluster.
        let spec = make_spec(base_versions * nodes);
        let dataset = spec.generate();
        let store = make_store(
            nodes,
            PartitionerKind::BottomUp { beta: usize::MAX },
            1,
            CHUNK_CAPACITY,
            NetworkModel::lan_virtual(),
        );
        let load_report = store.load_dataset(&dataset).unwrap();

        let n = dataset.graph.len();
        let max_pk = dataset
            .record_store()
            .keys()
            .iter()
            .map(|ck| ck.pk)
            .max()
            .unwrap_or(1);
        let mut rng = Xorshift::new(13);

        // Modeled query time: round trips overlap across nodes, but
        // all payload bytes funnel through the single client link and
        // chunk decoding is sequential (the paper: "RStore currently
        // processes the retrieved chunks sequentially").
        let latency = Duration::from_micros(250);
        let per_byte = Duration::from_nanos(8);
        let model = |stats: &rstore_core::query::QueryStats| {
            stats.elapsed
                + latency * stats.chunks_fetched.div_ceil(nodes) as u32
                + per_byte * stats.bytes_fetched as u32
        };

        let mut q1 = Duration::ZERO;
        let mut vspan = 0usize;
        for _ in 0..SAMPLES {
            let v = VersionId(rng.below(n) as u32);
            let (_, stats) = store.query_with_stats(QuerySpec::Version(v)).unwrap();
            q1 += model(&stats);
            vspan += stats.chunks_fetched;
        }

        let mut q3 = Duration::ZERO;
        let mut kspan = 0usize;
        for _ in 0..SAMPLES {
            let pk = rng.below(max_pk as usize) as u64;
            let (_, stats) = store.query_with_stats(QuerySpec::Evolution { pk }).unwrap();
            q3 += model(&stats);
            kspan += stats.chunks_fetched;
        }

        rows.push(vec![
            nodes.to_string(),
            n.to_string(),
            store.chunk_count().to_string(),
            fmt_duration(load_report.total_time),
            fmt_duration(q1 / SAMPLES as u32),
            format!("{:.1}", vspan as f64 / SAMPLES as f64),
            fmt_duration(q3 / SAMPLES as u32),
            format!("{:.1}", kspan as f64 / SAMPLES as f64),
        ]);
        last_ingest = Some(load_report.stages);
    }
    print_table(
        &format!("Fig. 12 dataset {name}: weak scaling (data doubles with nodes)"),
        &[
            "nodes",
            "versions",
            "chunks",
            "load",
            "Q1 time",
            "avg version span",
            "Q3 time",
            "avg key span",
        ],
        &rows,
    );
    if let Some(stages) = last_ingest {
        // Ingest dominates this experiment's wall clock; show where
        // the largest load spent it (stages overlap by design).
        println!(
            "largest load ingest pipeline — {}",
            fmt_ingest_stages(&stages)
        );
    }
}

fn main() {
    println!("# Experiment: Fig. 12 scalability (weak scaling, BOTTOM-UP)");
    run("G", 125, spec_g);
    run("H", 25, spec_h);
    println!(
        "\nShape check (paper): Q1/Q3 times rise slowly (well below the 16x \
         data growth); the rise tracks the growing version/key spans."
    );
}
