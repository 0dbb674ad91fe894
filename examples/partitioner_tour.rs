//! A tour of the partitioning algorithms: load the same synthetic
//! dataset under every algorithm and compare storage, version span
//! and query costs — a miniature of the paper's §5.2 evaluation.
//!
//! ```sh
//! cargo run --release --example partitioner_tour
//! ```

use rstore::core::QuerySpec;
use rstore::prelude::*;
use rstore::vgraph::VersionId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A branched dataset in the style of the paper's dataset C.
    let mut spec = DatasetSpec::tiny(2024);
    spec.name = "tour".into();
    spec.num_versions = 120;
    spec.root_records = 300;
    spec.branch_prob = 0.08;
    spec.update_frac = 0.10;
    spec.record_size = 160;
    let dataset = spec.generate();
    let stats = dataset.stats();
    println!(
        "dataset: {} versions (avg depth {:.1}), {} unique records, {:.1} KB deduplicated",
        stats.versions,
        stats.avg_depth,
        stats.unique_records,
        stats.unique_bytes as f64 / 1024.0
    );

    let kinds: [(&str, PartitionerKind); 5] = [
        ("BOTTOM-UP", PartitionerKind::BottomUp { beta: usize::MAX }),
        ("SHINGLE", PartitionerKind::Shingle { num_hashes: 4 }),
        ("DEPTHFIRST", PartitionerKind::DepthFirst),
        ("BREADTHFIRST", PartitionerKind::BreadthFirst),
        ("SUBCHUNK", PartitionerKind::SubchunkBaseline),
    ];

    println!(
        "\n{:<14} {:>7} {:>12} {:>12} {:>14}",
        "algorithm", "chunks", "total span", "avg span", "Q1 chunks(V60)"
    );
    for (name, kind) in kinds {
        let cluster = Cluster::builder().nodes(4).build();
        let store = RStore::builder()
            .chunk_capacity(8 * 1024)
            .partitioner(kind)
            .build(cluster);
        let report = store.load_dataset(&dataset)?;
        let (_, qstats) = store.query_with_stats(QuerySpec::Version(VersionId(60)))?;
        println!(
            "{:<14} {:>7} {:>12} {:>12.1} {:>14}",
            name,
            report.num_chunks,
            report.total_version_span,
            report.total_version_span as f64 / stats.versions as f64,
            qstats.chunks_fetched
        );
    }

    // The analytic cost model of Table 1, for context.
    println!("\nTable-1 cost model (defaults):");
    let model = CostModel::default();
    for row in model.all() {
        println!(
            "  {:<22} storage {:>12.0}  version ({:>12.0} B, {:>8.0} q)  point ({:>9.0} B, {:>6.0} q)",
            row.name,
            row.storage,
            row.version_data,
            row.version_queries,
            row.point_data,
            row.point_queries
        );
    }
    Ok(())
}
