//! Shared infrastructure of the RStore bench crate.
//!
//! * [`paper`] — the paper's tables and figures as deterministic
//!   tables with asserted shape claims: the `paper_shapes` test checks
//!   them at small scale, the `paper_results` bin writes the
//!   full-scale tables to `docs/PAPER_RESULTS.md`.
//! * [`delta`] — the DELTA delta-chain comparator those figures
//!   measure against.
//! * [`Xorshift`] — the deterministic RNG the figures' query
//!   workloads draw from.

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
}
