//! Quickstart: commit a few versions of a small document collection
//! and run all four query classes.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use rstore::core::QuerySpec;
use rstore::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-node in-process cluster stands in for e.g. Cassandra.
    let cluster = Cluster::builder().nodes(4).replication(2).build();

    // RStore sits on top as a layer, exactly as in the paper.
    let store = RStore::builder()
        .chunk_capacity(16 * 1024)
        .partitioner(PartitionerKind::BottomUp { beta: usize::MAX })
        .batch_size(4)
        .build(cluster);

    // Version 0: the initial collection.
    let v0 = store.commit(CommitRequest::root([
        (0u64, br#"{"name":"ada","role":"engineer"}"#.to_vec()),
        (1u64, br#"{"name":"grace","role":"admiral"}"#.to_vec()),
        (2u64, br#"{"name":"edsger","role":"professor"}"#.to_vec()),
    ]))?;

    // Version 1: update one document, add another.
    let v1 = store.commit(
        CommitRequest::child_of(v0)
            .update(1, br#"{"name":"grace","role":"rear admiral"}"#.to_vec())
            .insert(3, br#"{"name":"barbara","role":"professor"}"#.to_vec()),
    )?;

    // Version 2: a branch off the root (collaborative editing).
    let v2 = store.commit(
        CommitRequest::child_of(v0).delete(2).insert(4, br#"{"name":"alan"}"#.to_vec()),
    )?;
    store.seal()?;

    // --- Query 1: full version retrieval -----------------------------
    println!("== versions ==");
    for v in [v0, v1, v2] {
        let records = store.get_version(v)?;
        println!(
            "{v}: {} records -> {:?}",
            records.len(),
            records.iter().map(|r| r.pk).collect::<Vec<_>>()
        );
    }

    // --- Query 2: record retrieval (origin indirection) --------------
    let rec = store.get_record(1, v2)?.expect("key 1 exists in v2");
    println!(
        "\nkey 1 in {v2} originated in {} (payload {} bytes)",
        rec.origin,
        rec.payload.len()
    );

    // --- Query 3: range retrieval ------------------------------------
    let range = store.get_range(1, 3, v1)?;
    println!(
        "keys 1..=3 in {v1}: {:?}",
        range.iter().map(|r| r.pk).collect::<Vec<_>>()
    );

    // --- Query 4: record evolution -----------------------------------
    let evolution = store.get_evolution(1)?;
    println!("\nevolution of key 1:");
    for rec in &evolution {
        println!("  {} -> {}", rec.origin, String::from_utf8_lossy(&rec.payload));
    }

    // Cost accounting: the span is the number of chunks touched.
    let (_, stats) = store.query_with_stats(QuerySpec::Version(v1))?;
    println!(
        "\nretrieving {v1} touched {} chunks ({} useful), {} bytes",
        stats.chunks_fetched, stats.chunks_useful, stats.bytes_fetched
    );
    println!("total version span: {}", store.total_version_span());
    Ok(())
}
