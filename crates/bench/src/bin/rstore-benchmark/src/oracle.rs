//! The shared input `D1` and the oracle every answer is checked
//! against: the dataset's interned records and materialized version
//! contents, built once per set-up straight from `rstore_vgraph`.

use rstore_core::plan::QuerySpec;
use rstore_core::{CompositeKey, PrimaryKey, Record, VersionId};
use rstore_vgraph::{Dataset, DatasetSpec, MaterializedVersions, RecordStore, SelectionKind};
use std::time::{Duration, Instant};

/// Sizes of the shared dataset: constants of the benchmark
/// (`RSTORE_BENCH_SCALE` is ignored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub versions: usize,
    pub root_records: usize,
}

impl Scale {
    /// `D1`: ≈87 k distinct records, 22 MB distinct payload.
    pub const FULL: Scale = Scale {
        versions: 400,
        root_records: 4000,
    };
    /// `--smoke`: small enough for all four workloads in seconds.
    pub const SMOKE: Scale = Scale {
        versions: 80,
        root_records: 400,
    };
}

/// The generator seed of `D1`. `--seed` varies every query stream and
/// read-back sample but not the history they run against: layout
/// quality, bytes stored and bytes written are then exact counts that
/// repeat across seeds (so they can be gated at 1 %), and latency
/// medians are not moved by which keys one history happens to update
/// — between histories the LAN range median alone differed by 28 %.
pub const DATASET_SEED: u64 = 1;

/// The `D1` spec at `scale`.
pub fn d1(scale: Scale) -> DatasetSpec {
    DatasetSpec {
        name: "D1".into(),
        num_versions: scale.versions,
        root_records: scale.root_records,
        branch_prob: 0.02,
        update_frac: 0.05,
        insert_frac: 0.002,
        delete_frac: 0.002,
        selection: SelectionKind::Zipf { theta: 1.0 },
        record_size: 256,
        pd: 0.1,
        seed: DATASET_SEED,
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// What identifies the generated input: a later change to
/// `vgraph::gen` (outside this benchmark) that alters the workload
/// alters this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub versions: usize,
    pub distinct_records: usize,
    pub distinct_bytes: usize,
    /// FNV-1a over every distinct `(pk, origin, payload)` in ordinal
    /// order.
    pub payload_fnv: u64,
}

/// The fingerprint `D1` must have at full scale.
pub const D1_FINGERPRINT: Fingerprint = Fingerprint {
    versions: 400,
    distinct_records: 86_992,
    distinct_bytes: 22_269_952,
    payload_fnv: 0x6EEED802AE6F1213,
};

/// The dataset plus everything needed to check answers against it.
pub struct Oracle {
    pub dataset: Dataset,
    pub records: RecordStore,
    pub versions: MaterializedVersions,
    /// `(pk, ordinal)` of every distinct record, sorted: the
    /// evolution oracle.
    by_pk: Vec<(PrimaryKey, u32)>,
    pub fingerprint: Fingerprint,
    pub generate_time: Duration,
    pub materialize_time: Duration,
}

impl Oracle {
    /// Generates `spec` and builds the oracle structures.
    pub fn build(spec: &DatasetSpec) -> Self {
        let t = Instant::now();
        let dataset = spec.generate();
        let generate_time = t.elapsed();
        let t = Instant::now();
        let records = dataset.record_store();
        let versions = dataset.materialize(&records);
        let materialize_time = t.elapsed();
        let mut by_pk: Vec<(PrimaryKey, u32)> = records
            .keys()
            .iter()
            .enumerate()
            .map(|(ord, ck)| (ck.pk, ord as u32))
            .collect();
        by_pk.sort_unstable();
        let mut payload_fnv = FNV_OFFSET;
        for (ord, ck) in records.keys().iter().enumerate() {
            payload_fnv = fnv1a(payload_fnv, &ck.to_bytes());
            payload_fnv = fnv1a(payload_fnv, records.payload(ord as u32));
        }
        let fingerprint = Fingerprint {
            versions: dataset.graph.len(),
            distinct_records: records.len(),
            distinct_bytes: records.unique_bytes(),
            payload_fnv,
        };
        Self {
            dataset,
            records,
            versions,
            by_pk,
            fingerprint,
            generate_time,
            materialize_time,
        }
    }

    /// Distinct payload bytes committed by the first `versions`
    /// versions (the denominator of the bytes-per-user-byte metrics).
    pub fn user_bytes(&self, versions: usize) -> usize {
        self.dataset.deltas[..versions]
            .iter()
            .map(|d| d.added_bytes())
            .sum()
    }

    /// Distinct records committed by the first `versions` versions.
    pub fn user_records(&self, versions: usize) -> usize {
        self.dataset.deltas[..versions]
            .iter()
            .map(|d| d.added.len())
            .sum()
    }

    /// Ordinals of every distinct value `pk` ever had.
    fn history(&self, pk: PrimaryKey) -> &[(PrimaryKey, u32)] {
        let lo = self.by_pk.partition_point(|&(k, _)| k < pk);
        let hi = self.by_pk.partition_point(|&(k, _)| k <= pk);
        &self.by_pk[lo..hi]
    }

    /// Whether `answer` is exactly what `spec` must return from a
    /// store holding the first `versions` versions of the dataset.
    ///
    /// Every returned record must be a distinct record of the dataset
    /// with identical payload bytes (stronger than comparing a hash),
    /// belong to the queried set, appear once, and the count must
    /// match — which together make the two sets equal. Answer order
    /// is the store's business and is not compared.
    pub fn check(
        &self,
        spec: QuerySpec,
        versions: usize,
        answer: &[Record],
        seen: &mut Seen,
    ) -> bool {
        let expected = match spec {
            QuerySpec::Version(v) => self.versions.record_count(v),
            QuerySpec::Range { lo, hi, v } => self.versions.range(v, lo, hi).len(),
            QuerySpec::Record { pk, v } => usize::from(self.versions.lookup(v, pk).is_some()),
            QuerySpec::Evolution { pk } => self
                .history(pk)
                .iter()
                .filter(|&&(_, ord)| self.records.key(ord).origin.index() < versions)
                .count(),
            QuerySpec::Scan => return false,
        };
        if answer.len() != expected {
            return false;
        }
        seen.next_answer(self.records.len());
        answer.iter().all(|r| {
            // The distinct record this must be, found through the
            // queried version where there is one (a binary search in
            // its contents; the interning map is only needed for
            // histories).
            let ord = match spec {
                QuerySpec::Version(v)
                | QuerySpec::Range { v, .. }
                | QuerySpec::Record { v, .. } => self
                    .versions
                    .lookup(v, r.pk)
                    .filter(|&ord| self.records.key(ord).origin == r.origin),
                QuerySpec::Evolution { .. } => self
                    .records
                    .ord(CompositeKey::new(r.pk, r.origin))
                    .filter(|_| r.origin.index() < versions),
                QuerySpec::Scan => None,
            };
            let asked_for = match spec {
                QuerySpec::Range { lo, hi, .. } => r.pk >= lo && r.pk <= hi,
                QuerySpec::Record { pk, .. } | QuerySpec::Evolution { pk } => r.pk == pk,
                _ => true,
            };
            ord.is_some_and(|ord| {
                asked_for && seen.first_time(ord) && self.records.payload(ord) == r.payload.as_ref()
            })
        })
    }

    /// `count` version ids spread deterministically over the first
    /// `versions` versions (the read-back samples of the ingest
    /// checks), the last version always among them.
    pub fn sample_versions(
        &self,
        versions: usize,
        count: usize,
        rng: &mut crate::rng::Xorshift,
    ) -> Vec<VersionId> {
        let mut out: Vec<VersionId> = (1..count)
            .map(|_| VersionId(rng.below(versions as u64) as u32))
            .collect();
        out.push(VersionId(versions as u32 - 1));
        out
    }
}

/// Duplicate detection across the records of one answer: a stamp per
/// record ordinal, reused between answers without clearing.
#[derive(Debug, Default)]
pub struct Seen {
    stamps: Vec<u32>,
    current: u32,
}

impl Seen {
    fn next_answer(&mut self, ordinals: usize) {
        if self.stamps.len() < ordinals {
            self.stamps.resize(ordinals, 0);
        }
        self.current = self.current.wrapping_add(1);
        if self.current == 0 {
            self.stamps.fill(0);
            self.current = 1;
        }
    }

    fn first_time(&mut self, ord: u32) -> bool {
        let slot = &mut self.stamps[ord as usize];
        let fresh = *slot != self.current;
        *slot = self.current;
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstore_vgraph::PrimaryKey;

    const TINY: Scale = Scale {
        versions: 12,
        root_records: 30,
    };

    fn tiny() -> Oracle {
        Oracle::build(&d1(TINY))
    }

    fn version_answer(o: &Oracle, v: VersionId) -> Vec<Record> {
        o.versions
            .contents(v)
            .iter()
            .map(|&(pk, ord)| {
                Record::new(
                    pk,
                    o.records.key(ord).origin,
                    o.records.payload(ord).to_vec(),
                )
            })
            .collect()
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn fingerprint_repeats_and_tracks_the_generator_seed() {
        assert_eq!(tiny().fingerprint, tiny().fingerprint);
        let other = Oracle::build(&DatasetSpec {
            seed: 6,
            ..d1(TINY)
        });
        assert_ne!(
            tiny().fingerprint.payload_fnv,
            other.fingerprint.payload_fnv
        );
    }

    #[test]
    fn check_accepts_exact_answers_in_any_order() {
        let o = tiny();
        let mut seen = Seen::default();
        let v = VersionId(7);
        let mut answer = version_answer(&o, v);
        answer.reverse();
        assert!(o.check(QuerySpec::Version(v), 12, &answer, &mut seen));
        let (lo, hi): (PrimaryKey, PrimaryKey) = (5, 15);
        let range: Vec<Record> = answer
            .iter()
            .filter(|r| r.pk >= lo && r.pk <= hi)
            .cloned()
            .collect();
        assert!(o.check(QuerySpec::Range { lo, hi, v }, 12, &range, &mut seen));
        let one = answer[0].clone();
        assert!(o.check(
            QuerySpec::Record { pk: one.pk, v },
            12,
            std::slice::from_ref(&one),
            &mut seen
        ));
        let absent = o.by_pk.last().unwrap().0 + 1;
        assert!(o.check(QuerySpec::Record { pk: absent, v }, 12, &[], &mut seen));
        let history: Vec<Record> = o
            .history(one.pk)
            .iter()
            .map(|&(pk, ord)| {
                Record::new(
                    pk,
                    o.records.key(ord).origin,
                    o.records.payload(ord).to_vec(),
                )
            })
            .collect();
        assert!(o.check(QuerySpec::Evolution { pk: one.pk }, 12, &history, &mut seen));
    }

    #[test]
    fn check_rejects_wrong_answers() {
        let o = tiny();
        let mut seen = Seen::default();
        let v = VersionId(7);
        let good = version_answer(&o, v);
        let spec = QuerySpec::Version(v);
        // Missing record.
        assert!(!o.check(spec, 12, &good[1..], &mut seen));
        // Duplicate in place of a missing record (count still right).
        let mut dup = good.clone();
        dup[0] = dup[1].clone();
        assert!(!o.check(spec, 12, &dup, &mut seen));
        // One payload byte flipped.
        let mut flipped = good.clone();
        let mut bytes = flipped[3].payload.to_vec();
        bytes[0] ^= 1;
        flipped[3].payload = bytes.into();
        assert!(!o.check(spec, 12, &flipped, &mut seen));
        // A stale value of the right key (wrong origin).
        let stale = (0..o.records.len() as u32).find_map(|ord| {
            let ck = o.records.key(ord);
            (o.versions.lookup(v, ck.pk).is_some_and(|cur| cur != ord)).then_some((ck, ord))
        });
        if let Some((ck, ord)) = stale {
            let mut wrong = good.clone();
            let at = wrong.iter().position(|r| r.pk == ck.pk).unwrap();
            wrong[at] = Record::new(ck.pk, ck.origin, o.records.payload(ord).to_vec());
            assert!(!o.check(spec, 12, &wrong, &mut seen));
        }
        // A record of the version, but outside the queried range.
        let range = QuerySpec::Range { lo: 5, hi: 15, v };
        let mut in_range: Vec<Record> = good
            .iter()
            .filter(|r| r.pk >= 5 && r.pk <= 15)
            .cloned()
            .collect();
        assert!(o.check(range, 12, &in_range, &mut seen));
        in_range[0] = good
            .iter()
            .find(|r| r.pk > 15)
            .expect("version has keys past 15")
            .clone();
        assert!(!o.check(range, 12, &in_range, &mut seen));
        // The good answer still passes after all the rejections.
        assert!(o.check(spec, 12, &good, &mut seen));
    }

    #[test]
    fn evolution_oracle_respects_a_version_prefix() {
        let o = tiny();
        let mut seen = Seen::default();
        // A key updated after version 5 has a shorter history there.
        let (pk, _) = *o
            .by_pk
            .iter()
            .find(|&&(_, ord)| o.records.key(ord).origin.index() >= 6)
            .expect("some record originates late");
        let early: Vec<Record> = o
            .history(pk)
            .iter()
            .filter(|&&(_, ord)| o.records.key(ord).origin.index() < 6)
            .map(|&(pk, ord)| {
                Record::new(
                    pk,
                    o.records.key(ord).origin,
                    o.records.payload(ord).to_vec(),
                )
            })
            .collect();
        assert!(o.check(QuerySpec::Evolution { pk }, 6, &early, &mut seen));
        assert!(!o.check(QuerySpec::Evolution { pk }, 12, &early, &mut seen));
        assert_eq!(o.user_records(12), o.records.len());
        assert_eq!(o.user_bytes(12), o.records.unique_bytes());
    }
}
