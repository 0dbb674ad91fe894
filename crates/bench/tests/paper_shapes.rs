//! The paper's shapes, asserted: every table and figure of the
//! evaluation runs at a fixed small scale and each of its shape
//! claims must hold — unless `paper::KNOWN_GAPS` lists it, in which
//! case it must still fail with exactly the listed measurement. A gap
//! that closes (or moves) fails the test too, so the list stays true.
//!
//! Claims rest on deterministic quantities only (spans, compression
//! ratios, modeled network time); nothing here reads a clock.

use rstore_bench::paper::{self, known_gaps, Figure};

const TABLE1_SCALE: f64 = 0.3;
const TABLE2_SCALE: f64 = 0.3;
const CHUNK_SIZE_SCALE: f64 = 1.0;
const FIG8_SCALE: f64 = 0.3;
const FIG9_SCALE: f64 = 1.0;
const FIG10_SCALE: f64 = 0.1;
const FIG11_SCALE: f64 = 0.1;
const FIG12_SCALE: f64 = 0.3;
const FIG13_SCALE: f64 = 0.2;

fn assert_shapes(fig: Figure) {
    let gaps: Vec<_> = known_gaps().filter(|g| g[0] == fig.name).collect();
    let mut errors = Vec::new();
    for c in &fig.claims {
        let gap = gaps
            .iter()
            .find(|g| (g[1], g[2]) == (c.dataset.as_str(), c.claim));
        let at = format!("{} {}: {} ({})", fig.name, c.dataset, c.claim, c.measured);
        match gap {
            None if !c.holds => errors.push(format!("fails: {at}")),
            Some(_) if c.holds => {
                errors.push(format!("known gap closed, drop it from KNOWN_GAPS: {at}"))
            }
            Some(g) if g[3] != c.measured => errors.push(format!(
                "known gap moved, update KNOWN_GAPS (listed \"{}\"): {at}",
                g[3]
            )),
            _ => {}
        }
    }
    for g in &gaps {
        if !fig
            .claims
            .iter()
            .any(|c| (c.dataset.as_str(), c.claim) == (g[1], g[2]))
        {
            errors.push(format!(
                "KNOWN_GAPS names a claim {} does not make: {g:?}",
                fig.name
            ));
        }
    }
    assert!(
        fig.claims.iter().any(|c| c.holds),
        "{}: no claim holds",
        fig.name
    );
    assert!(errors.is_empty(), "{}:\n{}", fig.name, errors.join("\n"));
}

#[test]
fn every_known_gap_has_five_cells() {
    for g in known_gaps() {
        assert_eq!(g.len(), 5, "{g:?}");
    }
}

#[test]
fn table1_measured_fetches_rank_as_the_cost_model_does() {
    assert_shapes(paper::table1(TABLE1_SCALE));
}

#[test]
fn table2_datasets_have_the_papers_shape() {
    assert_shapes(paper::table2(TABLE2_SCALE));
}

#[test]
fn chunk_size_larger_chunks_cut_modeled_reconstruction_time() {
    assert_shapes(paper::chunk_size(CHUNK_SIZE_SCALE));
}

#[test]
fn fig8_partitioners_beat_the_delta_chain() {
    assert_shapes(paper::fig8(FIG8_SCALE));
}

#[test]
fn fig9_span_does_not_rise_with_beta() {
    assert_shapes(paper::fig9(FIG9_SCALE));
}

#[test]
fn fig10_span_and_compression_follow_k() {
    assert_shapes(paper::fig10(FIG10_SCALE));
}

#[test]
fn fig11_query_costs_rank_as_in_the_paper() {
    assert_shapes(paper::fig11(FIG11_SCALE));
}

#[test]
fn fig12_spans_grow_far_slower_than_the_data() {
    assert_shapes(paper::fig12(FIG12_SCALE));
}

#[test]
fn fig13_online_quality_improves_with_batch_and_compaction() {
    assert_shapes(paper::fig13(FIG13_SCALE));
}
