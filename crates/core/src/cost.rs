//! The analytical cost model of paper Table 1.
//!
//! Compares the storage strategies "along different dimensions under
//! some simplifying assumptions": `n` versions arranged in a chain,
//! each with `m_v` records of size `s`; every update touches a
//! fraction `d` of the records; record-level compression achieves
//! ratio `c` (typically `c·d ≪ 1`); chunks hold `s_c` bytes. For each
//! strategy the model gives total storage, the cost of a random full
//! version retrieval (data volume and query count), and the cost of a
//! point (single-record) query.

/// Model parameters (Table 1 caption).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Number of versions, arranged in a chain.
    pub n: f64,
    /// Records per version (constant).
    pub m_v: f64,
    /// Fraction of records updated per version step.
    pub d: f64,
    /// Compression ratio achieved on co-located similar records.
    pub c: f64,
    /// Record size in bytes.
    pub s: f64,
    /// Chunk size in bytes.
    pub s_c: f64,
}

/// The costs of one strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyCosts {
    /// Strategy name as in Table 1.
    pub name: &'static str,
    /// Total storage in bytes.
    pub storage: f64,
    /// Bytes retrieved for a random full-version query.
    pub version_data: f64,
    /// Backend queries issued for a random full-version query.
    pub version_queries: f64,
    /// Bytes retrieved for a point query.
    pub point_data: f64,
    /// Backend queries issued for a point query.
    pub point_queries: f64,
}

impl CostModel {
    /// "Independent w/chunking": every version's records stored
    /// independently (no cross-version dedup), packed into chunks.
    pub fn independent_chunked(&self) -> StrategyCosts {
        StrategyCosts {
            name: "Independent w/chunking",
            storage: self.n * self.m_v * self.s,
            version_data: self.m_v * self.s,
            version_queries: (self.m_v * self.s / self.s_c).max(1.0),
            point_data: self.s_c,
            point_queries: 1.0,
        }
    }

    /// DELTA: one full version plus n−1 compressed deltas in chains.
    pub fn delta(&self) -> StrategyCosts {
        let tail = self.c * self.d * (self.n - 1.0) * self.m_v * self.s;
        StrategyCosts {
            name: "DELTA",
            storage: self.m_v * self.s + tail,
            // A random version sits halfway down the chain on average.
            version_data: self.m_v * self.s + tail / 2.0,
            version_queries: self.n / 2.0,
            point_data: self.m_v * self.s + tail / 2.0,
            point_queries: self.n / 2.0,
        }
    }

    /// SUBCHUNK: all records of a key compressed together.
    pub fn subchunk(&self) -> StrategyCosts {
        let per_key = self.s + self.c * self.d * (self.n - 1.0) * self.s;
        StrategyCosts {
            name: "SUBCHUNK",
            storage: self.m_v * per_key,
            version_data: self.m_v * per_key,
            version_queries: self.m_v,
            point_data: per_key,
            point_queries: 1.0,
        }
    }

    /// Single address space: each record under its composite key.
    pub fn single_address(&self) -> StrategyCosts {
        StrategyCosts {
            name: "Single-address space",
            storage: self.m_v * self.s + self.d * (self.n - 1.0) * self.m_v * self.s,
            version_data: self.m_v * self.s,
            version_queries: self.m_v,
            point_data: self.s,
            point_queries: 1.0,
        }
    }

    /// All four rows in Table 1 order.
    pub fn all(&self) -> [StrategyCosts; 4] {
        [
            self.independent_chunked(),
            self.delta(),
            self.subchunk(),
            self.single_address(),
        ]
    }
}

impl Default for CostModel {
    /// Defaults mirroring the paper's experimental regime: 1000
    /// versions of 100K 100-byte records, 5% updates, 10× compression
    /// on similar records, 1 MB chunks.
    fn default() -> Self {
        Self {
            n: 1000.0,
            m_v: 100_000.0,
            d: 0.05,
            c: 0.1,
            s: 100.0,
            s_c: 1_048_576.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn chunking_answers_version_queries_with_few_requests() {
        let m = model();
        let chunked = m.independent_chunked();
        let single = m.single_address();
        // The §2.3 claim: chunking reduces queries by orders of
        // magnitude vs per-record retrieval.
        assert!(chunked.version_queries * 100.0 < single.version_queries);
    }

    #[test]
    fn delta_storage_beats_uncompressed_when_cd_small() {
        let m = model();
        assert!(m.delta().storage < m.single_address().storage);
        assert!(m.delta().storage < m.independent_chunked().storage);
    }

    #[test]
    fn subchunk_has_best_storage_with_compression() {
        let m = model();
        let rows = m.all();
        let sub = m.subchunk();
        for r in &rows {
            assert!(
                sub.storage <= r.storage + 1e-6,
                "{} storage {} < subchunk {}",
                r.name,
                r.storage,
                sub.storage
            );
        }
    }

    #[test]
    fn delta_point_queries_are_abysmal() {
        // The paper's core criticism of DELTA.
        let m = model();
        // A point query walks half the chain: 500x SUBCHUNK's one fetch.
        assert_eq!(
            m.delta().point_queries / m.subchunk().point_queries,
            m.n / 2.0
        );
        assert!(m.delta().point_data > 1000.0 * m.single_address().point_data);
    }

    #[test]
    fn subchunk_version_retrieval_reads_irrelevant_data() {
        let m = model();
        // SUBCHUNK fetches every key's whole history for one version.
        assert!(m.subchunk().version_data > m.independent_chunked().version_data);
    }

    #[test]
    fn all_returns_four_named_rows() {
        let rows = model().all();
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            vec![
                "Independent w/chunking",
                "DELTA",
                "SUBCHUNK",
                "Single-address space"
            ]
        );
    }
}
