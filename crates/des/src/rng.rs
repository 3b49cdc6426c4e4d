//! Deterministic pseudo-random numbers.
//!
//! The whole reproduction is built around bit-exact replayability: inputs,
//! fuzzed machine models and randomized test cases must all be derivable
//! from a seed with no platform- or crate-version-dependence. `SplitMix64`
//! (Steele, Lea & Flood, OOPSLA 2014) is small, fast and statistically
//! adequate for workload generation — and owning the implementation keeps
//! the generated streams stable forever.

/// A 64-bit SplitMix64 generator.
///
/// # Examples
///
/// ```
/// use fluidicl_des::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// The Weyl-sequence increment: the state after `k` draws is `seed + k·γ`.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function: a bijective finalizer of the state.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The 24-bit unit float `next_f32` makes from a raw draw.
fn unit_f32(raw: u64) -> f32 {
    (raw >> 40) as f32 / (1u32 << 24) as f32
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// Uniform `f64` in `[0, 1)` (53 random bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f32` in `[0, 1)` (24 random bits).
    pub fn next_f32(&mut self) -> f32 {
        unit_f32(self.next_u64())
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform `f32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + (hi - lo) * self.next_f32()
    }

    /// Fills `out` with uniform `f32`s in `[lo, hi)`, bit-identical to
    /// calling [`range_f32`](Self::range_f32) `out.len()` times, and leaves
    /// the generator where those calls would.
    ///
    /// Element `i` is `mix(state + (i+1)·γ)`: the only value carried from
    /// one element to the next is the counter, a plain add, so the
    /// compiler can unroll and interleave the mixing. The range is checked
    /// once per call, not once per element.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`, even when `out` is empty.
    pub fn fill_range_f32(&mut self, out: &mut [f32], lo: f32, hi: f32) {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi - lo;
        let mut counter = self.state;
        for v in out.iter_mut() {
            counter = counter.wrapping_add(GAMMA);
            *v = lo + span * unit_f32(mix(counter));
        }
        self.state = counter;
    }

    /// Uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A fair coin flip.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A derived generator, decorrelated from this one; useful for giving
    /// each sub-task its own stream.
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            let f = r.next_f32();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn ranges_are_half_open() {
        let mut r = SplitMix64::new(5);
        for _ in 0..1000 {
            assert!((-1.0..1.0).contains(&r.range_f32(-1.0, 1.0)));
            let v = r.range_u64(3, 9);
            assert!((3..9).contains(&v));
            let v = r.range_usize(0, 2);
            assert!(v < 2);
        }
    }

    #[test]
    fn fill_matches_repeated_range_draws() {
        for seed in [0, 42, u64::MAX] {
            for len in [0, 1, 2, 3, 7, 1000] {
                let (mut a, mut b) = (SplitMix64::new(seed), SplitMix64::new(seed));
                let want: Vec<u32> = (0..len).map(|_| a.range_f32(-1.0, 1.0).to_bits()).collect();
                let mut got = vec![0.0f32; len];
                b.fill_range_f32(&mut got, -1.0, 1.0);
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "seed {seed} len {len}");
                assert_eq!(
                    b.next_u64(),
                    a.next_u64(),
                    "state after seed {seed} len {len}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn fill_rejects_an_empty_range() {
        SplitMix64::new(1).fill_range_f32(&mut [], 1.0, 1.0);
    }

    #[test]
    fn fork_departs_from_parent() {
        let mut a = SplitMix64::new(11);
        let mut child = a.fork();
        assert_ne!(a.next_u64(), child.next_u64());
    }
}
