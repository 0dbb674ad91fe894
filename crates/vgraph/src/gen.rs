//! Synthetic versioned-dataset generation (paper §5.1).
//!
//! "For each dataset, we first generate a corresponding version graph
//! by starting with a single version, and then generating a set of
//! modifications to it ... Thereafter, we create a set of records for
//! the base (root) version where each record is created as a JSON
//! document. Every record in the base version is assigned an
//! auto-incremented primary key and a randomly generated value of the
//! requisite size. Each of the other versions is generated by updating
//! or deleting a set of records in its parent, or inserting new
//! records. The selection of records for updating and deleting either
//! follows a random or a skewed (Zipf) distribution."
//!
//! The generator exposes the paper's five control factors (branching,
//! depth, update %, records/version, #versions) plus `Pd`, the bound
//! on how much of a record's content an update may change (§5.3) —
//! `Pd` drives how compressible sub-chunks are.
//!
//! Datasets are deterministic functions of their spec (seed included),
//! so experiments are reproducible.

use crate::delta::VersionDelta;
use crate::graph::VersionGraph;
use crate::ids::{CompositeKey, PrimaryKey, VersionId};
use crate::materialize::{MaterializedVersions, RecordStore};
use crate::record::Record;
use bytes::Bytes;
use rand::prelude::*;
use rand::rngs::StdRng;
use rustc_hash::FxHashMap;

/// How records are selected for update/delete.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionKind {
    /// Uniformly at random ("Random" in Table 2).
    Uniform,
    /// Zipf-skewed by key rank ("Skewed" in Table 2).
    Zipf {
        /// Skew exponent; the paper's skewed workloads use ~1.0.
        theta: f64,
    },
}

/// Full specification of a synthetic dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name (Table 2 uses A0..F).
    pub name: String,
    /// Number of versions to generate, root included.
    pub num_versions: usize,
    /// Records in the root version.
    pub root_records: usize,
    /// Probability that a new version branches off a uniformly random
    /// earlier version instead of extending the newest one. 0 yields a
    /// linear chain; larger values yield bushier, shallower trees.
    pub branch_prob: f64,
    /// Fraction of the parent's records updated per version.
    pub update_frac: f64,
    /// Newly inserted records per version, as a fraction of the
    /// parent's record count.
    pub insert_frac: f64,
    /// Deleted records per version, as a fraction of the parent's
    /// record count.
    pub delete_frac: f64,
    /// Update/delete victim selection.
    pub selection: SelectionKind,
    /// Approximate record payload size in bytes.
    pub record_size: usize,
    /// `Pd`: maximum fraction of a record's content changed by one
    /// update (paper §5.3; drives intra-key similarity).
    pub pd: f64,
    /// RNG seed; same spec ⇒ same dataset.
    pub seed: u64,
}

impl DatasetSpec {
    /// A small, fast spec for unit tests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            name: format!("tiny-{seed}"),
            num_versions: 24,
            root_records: 40,
            branch_prob: 0.2,
            update_frac: 0.2,
            insert_frac: 0.05,
            delete_frac: 0.05,
            selection: SelectionKind::Uniform,
            record_size: 64,
            pd: 0.1,
            seed,
        }
    }

    /// A linear-chain variant of [`DatasetSpec::tiny`].
    pub fn tiny_chain(seed: u64) -> Self {
        Self {
            branch_prob: 0.0,
            name: format!("tiny-chain-{seed}"),
            ..Self::tiny(seed)
        }
    }

    /// Generates the dataset this spec describes.
    pub fn generate(&self) -> Dataset {
        generate(self)
    }
}

/// A generated dataset: version graph plus one delta per version.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The spec that produced this dataset.
    pub spec: DatasetSpec,
    /// The version graph (a tree: the generator does not emit merges;
    /// merge handling is tested separately via `VersionGraph::to_tree`).
    pub graph: VersionGraph,
    /// `deltas[v]` derives version `v` from its primary parent.
    pub deltas: Vec<VersionDelta>,
}

impl Dataset {
    /// Interns every distinct record.
    pub fn record_store(&self) -> RecordStore {
        RecordStore::from_deltas(&self.deltas)
    }

    /// Materializes the contents of every version.
    pub fn materialize(&self, store: &RecordStore) -> MaterializedVersions {
        MaterializedVersions::build(&self.graph, &self.deltas, store)
    }

    /// Summary statistics (the columns of paper Table 2).
    pub fn stats(&self) -> DatasetStats {
        let store = self.record_store();
        let m = self.materialize(&store);
        let total_bytes: usize = (0..self.graph.len())
            .map(|v| {
                m.contents(VersionId(v as u32))
                    .iter()
                    .map(|&(_, ord)| store.payload(ord).len())
                    .sum::<usize>()
            })
            .sum();
        DatasetStats {
            name: self.spec.name.clone(),
            versions: self.graph.len(),
            avg_depth: self.graph.avg_depth(),
            avg_records_per_version: m.total_entries() as f64 / self.graph.len() as f64,
            update_percent: self.spec.update_frac * 100.0,
            update_type: match self.spec.selection {
                SelectionKind::Uniform => "Random".to_string(),
                SelectionKind::Zipf { .. } => "Skewed".to_string(),
            },
            unique_records: store.len(),
            unique_bytes: store.unique_bytes(),
            total_bytes,
        }
    }
}

/// The Table 2 statistics of a dataset.
#[derive(Debug, Clone)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// Number of versions.
    pub versions: usize,
    /// Average version depth.
    pub avg_depth: f64,
    /// Mean records per version.
    pub avg_records_per_version: f64,
    /// Percentage of records updated per version.
    pub update_percent: f64,
    /// "Random" or "Skewed".
    pub update_type: String,
    /// Distinct records across all versions.
    pub unique_records: usize,
    /// Deduplicated size in bytes.
    pub unique_bytes: usize,
    /// Sum of all version sizes in bytes (no deduplication).
    pub total_bytes: usize,
}

/// Generates a dataset from a spec.
pub fn generate(spec: &DatasetSpec) -> Dataset {
    assert!(spec.num_versions >= 1, "need at least the root version");
    assert!(spec.root_records >= 1, "need at least one root record");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut graph = VersionGraph::new();
    let mut deltas: Vec<VersionDelta> = Vec::with_capacity(spec.num_versions);

    // Root version: auto-incremented keys, random payloads.
    let root = graph.add_root();
    let mut next_pk: PrimaryKey = spec.root_records as PrimaryKey;
    let root_records: Vec<Record> = (0..spec.root_records as PrimaryKey)
        .map(|pk| Record::new(pk, root, make_payload(pk, spec.record_size, &mut rng)))
        .collect();
    deltas.push(VersionDelta::from_parts(root_records, vec![]));

    // Live contents per version: pk -> (origin, payload index into
    // `payload_of`). We keep payloads addressable by composite key so
    // updates can mutate the parent's bytes.
    let mut payload_of: FxHashMap<CompositeKey, Bytes> = FxHashMap::default();
    for rec in &deltas[0].added {
        payload_of.insert(rec.composite_key(), rec.payload.clone());
    }
    // contents[v]: sorted pk -> origin map for every generated version.
    let mut contents: Vec<Vec<(PrimaryKey, VersionId)>> = Vec::with_capacity(spec.num_versions);
    contents.push(deltas[0].added.iter().map(|r| (r.pk, r.origin)).collect());

    let mut newest = root;
    for _ in 1..spec.num_versions {
        // Choose the parent: continue the newest branch, or fork.
        let parent = if rng.random::<f64>() < spec.branch_prob {
            VersionId(rng.random_range(0..graph.len()) as u32)
        } else {
            newest
        };
        let v = graph.add_version(&[parent]);
        newest = v;

        let parent_contents = &contents[parent.index()];
        let m = parent_contents.len();
        let n_updates = ((m as f64 * spec.update_frac).round() as usize).min(m);
        let n_deletes = ((m as f64 * spec.delete_frac).round() as usize).min(m);
        let n_inserts = (m as f64 * spec.insert_frac).round() as usize;

        // Pick distinct victim indices for updates+deletes together.
        let victims = pick_victims(m, n_updates + n_deletes, spec.selection, &mut rng);

        let mut added: Vec<Record> = Vec::with_capacity(n_updates + n_inserts);
        let mut removed: Vec<CompositeKey> = Vec::with_capacity(n_updates + n_deletes);
        let mut child: Vec<(PrimaryKey, VersionId)> = parent_contents.clone();

        // First n_updates victims are updates, the rest deletions.
        let mut removed_idx: Vec<usize> = Vec::with_capacity(n_deletes);
        for (k, &idx) in victims.iter().enumerate() {
            let (pk, origin) = parent_contents[idx];
            let old_ck = CompositeKey::new(pk, origin);
            removed.push(old_ck);
            if k < n_updates {
                let parent_payload = &payload_of[&old_ck];
                let new_payload = mutate_payload(parent_payload, spec.pd, &mut rng);
                added.push(Record::new(pk, v, new_payload));
                // Update origin in place (child stays sorted by pk).
                child[idx].1 = v;
            } else {
                removed_idx.push(idx);
            }
        }
        // Remove deleted entries (descending index order).
        removed_idx.sort_unstable_by(|a, b| b.cmp(a));
        for idx in removed_idx {
            child.swap_remove(idx);
        }

        // Inserts: fresh auto-incremented keys.
        for _ in 0..n_inserts {
            let pk = next_pk;
            next_pk += 1;
            added.push(Record::new(pk, v, make_payload(pk, spec.record_size, &mut rng)));
            child.push((pk, v));
        }
        child.sort_unstable();

        for rec in &added {
            payload_of.insert(rec.composite_key(), rec.payload.clone());
        }
        contents.push(child);
        deltas.push(VersionDelta::from_parts(added, removed));
    }

    Dataset {
        spec: spec.clone(),
        graph,
        deltas,
    }
}

/// Picks `count` distinct indices in `0..m` under the given selection.
fn pick_victims(m: usize, count: usize, selection: SelectionKind, rng: &mut StdRng) -> Vec<usize> {
    let count = count.min(m);
    match selection {
        SelectionKind::Uniform => rand::seq::index::sample(rng, m, count).into_vec(),
        SelectionKind::Zipf { theta } => {
            // Weighted sampling without replacement by rank: weight of
            // rank i is 1/(i+1)^theta. Uses the exponential-keys trick
            // (Efraimidis-Spirakis): the `count` largest u^(1/w) win.
            let mut keyed: Vec<(f64, usize)> = (0..m)
                .map(|i| {
                    let w = 1.0 / ((i + 1) as f64).powf(theta);
                    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                    (u.powf(1.0 / w), i)
                })
                .collect();
            keyed.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            keyed.truncate(count);
            keyed.into_iter().map(|(_, i)| i).collect()
        }
    }
}

/// Random printable payload characters.
const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";

/// Builds a fresh JSON record of approximately `size` bytes:
/// `{"pk":N,"data":"..."}`.
fn make_payload(pk: PrimaryKey, size: usize, rng: &mut StdRng) -> Vec<u8> {
    let header = format!("{{\"pk\":{pk},\"data\":\"");
    let tail = b"\"}";
    let fill = size.saturating_sub(header.len() + tail.len()).max(1);
    let mut out = Vec::with_capacity(header.len() + fill + tail.len());
    out.extend_from_slice(header.as_bytes());
    out.extend((0..fill).map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())]));
    out.extend_from_slice(tail);
    out
}

/// Mutates at most `pd` of the data region of a JSON payload,
/// preserving JSON validity (only characters inside the quoted data
/// string change).
fn mutate_payload(parent: &[u8], pd: f64, rng: &mut StdRng) -> Vec<u8> {
    let mut out = parent.to_vec();
    // Locate the data region: after the last `:"` and before the
    // closing `"}`; payloads are always produced by make_payload.
    let start = out
        .windows(2)
        .position(|w| w == b":\"")
        .map(|p| p + 2)
        .unwrap_or(0);
    let end = out.len().saturating_sub(2).max(start);
    let region = end - start;
    if region == 0 {
        return out;
    }
    let n_mut = ((region as f64 * pd).ceil() as usize).clamp(1, region);
    for _ in 0..n_mut {
        let i = start + rng.random_range(0..region);
        out[i] = ALPHABET[rng.random_range(0..ALPHABET.len())];
    }
    out
}

/// Scaled presets mirroring paper Table 2.
///
/// The paper's datasets span 30 GB – 1 TB; these keep the *shape*
/// factors (branching, depth, update % and skew, relative version
/// counts) while scaling record counts/sizes to a single machine.
/// `docs/PAPER_RESULTS.md` lists each preset's size next to the
/// results measured on it.
pub mod presets {
    use super::*;

    fn base(name: &str, seed: u64) -> DatasetSpec {
        DatasetSpec {
            name: name.to_string(),
            num_versions: 0,
            root_records: 0,
            branch_prob: 0.0,
            update_frac: 0.0,
            insert_frac: 0.002,
            delete_frac: 0.002,
            selection: SelectionKind::Uniform,
            record_size: 128,
            pd: 0.1,
            seed,
        }
    }

    /// A0: linear chain, 50% random updates (paper: 300 versions,
    /// depth 300, 100K records/version).
    pub fn a0() -> DatasetSpec {
        DatasetSpec {
            num_versions: 300,
            root_records: 2000,
            branch_prob: 0.0,
            update_frac: 0.5,
            ..base("A0", 0xA0)
        }
    }

    /// A1: linear chain, 5% skewed updates.
    pub fn a1() -> DatasetSpec {
        DatasetSpec {
            num_versions: 300,
            root_records: 2000,
            branch_prob: 0.0,
            update_frac: 0.05,
            selection: SelectionKind::Zipf { theta: 1.0 },
            ..base("A1", 0xA1)
        }
    }

    /// A2: linear chain, 5% random updates.
    pub fn a2() -> DatasetSpec {
        DatasetSpec {
            num_versions: 300,
            root_records: 2000,
            branch_prob: 0.0,
            update_frac: 0.05,
            ..base("A2", 0xA2)
        }
    }

    /// B0: mildly branched (paper: 1001 versions, avg depth 293.5),
    /// 5% skewed updates.
    pub fn b0() -> DatasetSpec {
        DatasetSpec {
            num_versions: 1001,
            root_records: 2000,
            branch_prob: 0.004,
            update_frac: 0.05,
            selection: SelectionKind::Zipf { theta: 1.0 },
            ..base("B0", 0xB0)
        }
    }

    /// B1: like B0 with random updates.
    pub fn b1() -> DatasetSpec {
        DatasetSpec {
            selection: SelectionKind::Uniform,
            ..DatasetSpec {
                name: "B1".into(),
                seed: 0xB1,
                ..b0()
            }
        }
    }

    /// B2: like B1 with 10% updates.
    pub fn b2() -> DatasetSpec {
        DatasetSpec {
            update_frac: 0.10,
            ..DatasetSpec {
                name: "B2".into(),
                seed: 0xB2,
                ..b1()
            }
        }
    }

    /// C0: branched (paper: 10001 versions, avg depth 143, 20K
    /// records/version), 10% random updates.
    pub fn c0() -> DatasetSpec {
        DatasetSpec {
            num_versions: 2001,
            root_records: 800,
            branch_prob: 0.03,
            update_frac: 0.10,
            ..base("C0", 0xC0)
        }
    }

    /// C1: like C0 with 1% updates.
    pub fn c1() -> DatasetSpec {
        DatasetSpec {
            update_frac: 0.01,
            ..DatasetSpec {
                name: "C1".into(),
                seed: 0xC1,
                ..c0()
            }
        }
    }

    /// C2: like C0 with 5% skewed updates.
    pub fn c2() -> DatasetSpec {
        DatasetSpec {
            update_frac: 0.05,
            selection: SelectionKind::Zipf { theta: 1.0 },
            ..DatasetSpec {
                name: "C2".into(),
                seed: 0xC2,
                ..c0()
            }
        }
    }

    /// D0: bushier than C (paper: avg depth 94.4), 10% random.
    pub fn d0() -> DatasetSpec {
        DatasetSpec {
            num_versions: 2001,
            root_records: 800,
            branch_prob: 0.08,
            update_frac: 0.10,
            ..base("D0", 0xD0)
        }
    }

    /// D1: like D0 with 1% updates.
    pub fn d1() -> DatasetSpec {
        DatasetSpec {
            update_frac: 0.01,
            ..DatasetSpec {
                name: "D1".into(),
                seed: 0xD1,
                ..d0()
            }
        }
    }

    /// D2: like D0 with 5% skewed updates.
    pub fn d2() -> DatasetSpec {
        DatasetSpec {
            update_frac: 0.05,
            selection: SelectionKind::Zipf { theta: 1.0 },
            ..DatasetSpec {
                name: "D2".into(),
                seed: 0xD2,
                ..d0()
            }
        }
    }

    /// E: deep branched tree with large records (paper: 10001
    /// versions, 973 GB total).
    pub fn e() -> DatasetSpec {
        DatasetSpec {
            num_versions: 2001,
            root_records: 800,
            branch_prob: 0.02,
            update_frac: 0.10,
            record_size: 512,
            ..base("E", 0xE0)
        }
    }

    /// F: very bushy shallow tree (paper: avg depth 56 over 1001
    /// versions), 20% random updates.
    pub fn f() -> DatasetSpec {
        DatasetSpec {
            num_versions: 1001,
            root_records: 2000,
            branch_prob: 0.25,
            update_frac: 0.20,
            ..base("F", 0xF0)
        }
    }

    /// All Table 2 presets in paper order.
    pub fn table2() -> Vec<DatasetSpec> {
        vec![
            a0(),
            a1(),
            a2(),
            b0(),
            b1(),
            b2(),
            c0(),
            c1(),
            c2(),
            d0(),
            d1(),
            d2(),
            e(),
            f(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = DatasetSpec::tiny(7).generate();
        let b = DatasetSpec::tiny(7).generate();
        assert_eq!(a.deltas.len(), b.deltas.len());
        for (da, db) in a.deltas.iter().zip(&b.deltas) {
            assert_eq!(da.added, db.added);
            assert_eq!(da.removed, db.removed);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = DatasetSpec::tiny(1).generate();
        let b = DatasetSpec::tiny(2).generate();
        let pa: Vec<_> = a.deltas[1].added.iter().map(|r| r.pk).collect();
        let pb: Vec<_> = b.deltas[1].added.iter().map(|r| r.pk).collect();
        assert!(pa != pb || a.deltas[1].added != b.deltas[1].added);
    }

    #[test]
    fn all_deltas_validate() {
        let ds = DatasetSpec::tiny(3).generate();
        for (i, d) in ds.deltas.iter().enumerate() {
            d.validate(VersionId(i as u32)).unwrap();
        }
    }

    #[test]
    fn materialization_succeeds_and_counts_match() {
        let spec = DatasetSpec::tiny(5);
        let ds = spec.generate();
        let store = ds.record_store();
        let m = ds.materialize(&store);
        assert_eq!(m.version_count(), spec.num_versions);
        // Root has exactly root_records records.
        assert_eq!(m.record_count(VersionId::ROOT), spec.root_records);
        // Update-only churn keeps version sizes near the root size.
        for v in ds.graph.ids() {
            let c = m.record_count(v);
            assert!(c > 0, "version {v} is empty");
        }
    }

    #[test]
    fn chain_spec_yields_linear_graph() {
        let ds = DatasetSpec::tiny_chain(11).generate();
        assert_eq!(ds.graph.max_depth() as usize, ds.graph.len() - 1);
        assert_eq!(ds.graph.leaves().len(), 1);
    }

    #[test]
    fn branching_spec_yields_shallower_graph() {
        let mut spec = DatasetSpec::tiny(13);
        spec.num_versions = 200;
        spec.branch_prob = 0.3;
        let ds = spec.generate();
        assert!(ds.graph.max_depth() < 199);
        assert!(ds.graph.leaves().len() > 1);
    }

    #[test]
    fn update_counts_respect_fraction() {
        let mut spec = DatasetSpec::tiny_chain(17);
        spec.root_records = 100;
        spec.update_frac = 0.2;
        spec.insert_frac = 0.0;
        spec.delete_frac = 0.0;
        let ds = spec.generate();
        for d in &ds.deltas[1..] {
            assert_eq!(d.added.len(), 20);
            assert_eq!(d.removed.len(), 20);
        }
    }

    /// Checks the exact shape `make_payload` emits —
    /// `{"pk":<pk>,"data":"<alnum>"}` — which is also valid JSON.
    fn assert_payload_shape(payload: &[u8], pk: PrimaryKey) {
        let s = std::str::from_utf8(payload).expect("payload must be UTF-8");
        let body = s
            .strip_prefix(&format!("{{\"pk\":{pk},\"data\":\""))
            .unwrap_or_else(|| panic!("bad payload header: {s}"));
        let data = body
            .strip_suffix("\"}")
            .unwrap_or_else(|| panic!("bad payload tail: {s}"));
        assert!(
            data.bytes().all(|b| b.is_ascii_alphanumeric()),
            "data region must stay alphanumeric (JSON-safe): {data}"
        );
    }

    #[test]
    fn payloads_are_valid_json_of_requested_size() {
        let spec = DatasetSpec::tiny(19);
        let ds = spec.generate();
        for d in &ds.deltas {
            for rec in &d.added {
                assert_payload_shape(&rec.payload, rec.pk);
                let sz = rec.payload.len();
                assert!(
                    sz >= spec.record_size / 2 && sz <= spec.record_size * 2,
                    "payload size {sz} far from requested {}",
                    spec.record_size
                );
            }
        }
    }

    #[test]
    fn updates_change_bounded_fraction() {
        let mut spec = DatasetSpec::tiny_chain(23);
        spec.pd = 0.05;
        spec.record_size = 256;
        spec.update_frac = 0.3;
        spec.insert_frac = 0.0;
        spec.delete_frac = 0.0;
        let ds = spec.generate();
        let store = ds.record_store();
        // For every update, compare child payload to parent payload.
        for (vi, d) in ds.deltas.iter().enumerate().skip(1) {
            for rec in &d.added {
                // Find the removed ck with the same pk (the parent value).
                let old = d.removed.iter().find(|ck| ck.pk == rec.pk).unwrap();
                let old_payload = store.payload(store.ord(*old).unwrap());
                assert_eq!(old_payload.len(), rec.payload.len());
                let changed = old_payload
                    .iter()
                    .zip(rec.payload.iter())
                    .filter(|(a, b)| a != b)
                    .count();
                let bound = (rec.payload.len() as f64 * spec.pd).ceil() as usize + 1;
                assert!(
                    changed <= bound,
                    "version {vi}: {changed} bytes changed, bound {bound}"
                );
                assert!(changed >= 1 || old_payload == &rec.payload[..]);
            }
        }
    }

    #[test]
    fn zipf_selection_is_skewed() {
        let mut spec = DatasetSpec::tiny_chain(29);
        spec.root_records = 500;
        spec.num_versions = 60;
        spec.update_frac = 0.05;
        spec.insert_frac = 0.0;
        spec.delete_frac = 0.0;
        spec.selection = SelectionKind::Zipf { theta: 1.2 };
        let ds = spec.generate();
        // Count updates per pk; low-rank keys must dominate.
        let mut counts: FxHashMap<PrimaryKey, usize> = FxHashMap::default();
        for d in &ds.deltas[1..] {
            for rec in &d.added {
                *counts.entry(rec.pk).or_default() += 1;
            }
        }
        let low: usize = (0..50).map(|pk| counts.get(&pk).copied().unwrap_or(0)).sum();
        let high: usize = (450..500)
            .map(|pk| counts.get(&pk).copied().unwrap_or(0))
            .sum();
        assert!(
            low > high * 2,
            "zipf skew not visible: low-rank {low} vs high-rank {high}"
        );
    }

    #[test]
    fn uniform_selection_is_not_skewed() {
        let mut spec = DatasetSpec::tiny_chain(31);
        spec.root_records = 500;
        spec.num_versions = 100;
        spec.update_frac = 0.1;
        spec.insert_frac = 0.0;
        spec.delete_frac = 0.0;
        let ds = spec.generate();
        let mut counts: FxHashMap<PrimaryKey, usize> = FxHashMap::default();
        for d in &ds.deltas[1..] {
            for rec in &d.added {
                *counts.entry(rec.pk).or_default() += 1;
            }
        }
        let low: usize = (0..100).map(|pk| counts.get(&pk).copied().unwrap_or(0)).sum();
        let high: usize = (400..500)
            .map(|pk| counts.get(&pk).copied().unwrap_or(0))
            .sum();
        // Both buckets saw ~ 100 versions * 50 updates * (100/500) = 1000.
        let ratio = low as f64 / high.max(1) as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "uniform selection skewed: {low} vs {high}"
        );
    }

    #[test]
    fn inserts_extend_key_space() {
        let mut spec = DatasetSpec::tiny_chain(37);
        spec.insert_frac = 0.1;
        spec.delete_frac = 0.0;
        spec.update_frac = 0.0;
        let ds = spec.generate();
        let store = ds.record_store();
        let max_pk = store.keys().iter().map(|ck| ck.pk).max().unwrap();
        assert!(max_pk >= spec.root_records as u64, "no inserts happened");
    }

    #[test]
    fn stats_report_plausible_numbers() {
        let ds = DatasetSpec::tiny(41).generate();
        let s = ds.stats();
        assert_eq!(s.versions, 24);
        assert!(s.unique_records >= 40);
        assert!(s.unique_bytes > 0);
        assert!(s.total_bytes >= s.unique_bytes);
        assert!(s.avg_records_per_version > 0.0);
    }

    #[test]
    fn table2_presets_have_distinct_names() {
        let ps = presets::table2();
        let mut names: Vec<&str> = ps.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 14);
    }

    #[test]
    fn preset_shapes_follow_table2_ordering() {
        // Generate miniature versions of A0 (chain) and F (bushy) and
        // verify the depth relationship the paper's Table 2 reports.
        let mut a0 = presets::a0();
        a0.num_versions = 80;
        a0.root_records = 60;
        let mut f = presets::f();
        f.num_versions = 80;
        f.root_records = 60;
        let da = a0.generate();
        let df = f.generate();
        assert!(da.graph.avg_depth() > df.graph.avg_depth());
    }
}
