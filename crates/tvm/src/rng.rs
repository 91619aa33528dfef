//! A small deterministic PRNG for seeded scheduling and test-data
//! generation.
//!
//! The scheduler only needs a reproducible stream — the same seed must
//! yield the same interleaving on every platform and in every build — not
//! cryptographic quality. SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) is
//! a tiny, well-distributed generator that passes BigCrush, has a full
//! 2^64 period over its state, and costs a handful of arithmetic ops per
//! draw, so it is also what the property tests and workload generators use.

/// SplitMix64 generator.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed; equal seeds yield equal streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..bound` (`bound` must be non-zero), using
    /// Lemire's widening-multiply rejection method so the result is
    /// unbiased and cheap.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a non-zero bound");
        loop {
            let x = self.next_u64();
            let wide = u128::from(x) * u128::from(bound);
            #[allow(clippy::cast_possible_truncation)]
            let low = wide as u64;
            if low >= bound.wrapping_neg() % bound {
                return (wide >> 64) as u64;
            }
            // Rejected draw: retry with fresh bits (rare unless `bound`
            // is close to 2^64).
        }
    }

    /// Uniform draw from the inclusive range `lo..=hi`.
    pub fn next_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "next_in requires lo <= hi");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(span + 1)
    }

    /// Uniform index into a slice of the given length.
    pub fn next_index(&mut self, len: usize) -> usize {
        usize::try_from(self.next_below(len as u64)).expect("index fits usize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_answer_vector() {
        // Reference values for seed 1234567 from the published SplitMix64
        // algorithm; pins the implementation against accidental drift,
        // which would silently change every seeded schedule.
        let mut rng = SplitMix64::new(1234567);
        let expect = [6457827717110365317u64, 3203168211198807973, 9817491932198370423];
        for e in expect {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn bounded_draws_stay_in_range_and_cover() {
        let mut rng = SplitMix64::new(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = rng.next_below(5);
            assert!(v < 5);
            seen[v as usize] = true;
            let r = rng.next_in(3, 9);
            assert!((3..=9).contains(&r));
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear in 200 draws");
    }

    #[test]
    fn full_range_draw_works() {
        let mut rng = SplitMix64::new(9);
        // Must not overflow or loop forever.
        let _ = rng.next_in(0, u64::MAX);
        let _ = rng.next_below(u64::MAX);
    }
}
