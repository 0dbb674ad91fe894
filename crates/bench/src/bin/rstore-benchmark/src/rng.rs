//! The benchmark's own deterministic generator (xorshift64), seeded
//! through splitmix64 so that small seeds (1, 2, …) and per-loop
//! stream numbers still start from well-mixed states.

/// Deterministic xorshift64 generator.
pub struct Xorshift(u64);

impl Xorshift {
    /// Stream `stream` of the generator family for `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0xA076_1D64_78BD_642F))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // xorshift has one fixed point, the all-zero state.
        Self(if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z })
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

    /// Uniform value in `0..n` (`n = 0` yields 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xorshift::new(7, 0);
        let mut b = Xorshift::new(7, 0);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_and_seeds_differ() {
        let first = |seed, stream| Xorshift::new(seed, stream).next_u64();
        assert_ne!(first(1, 0), first(1, 1));
        assert_ne!(first(1, 0), first(2, 0));
        let mut r = Xorshift::new(3, 0);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
        assert_eq!(r.below(0), 0);
    }
}
