//! Deterministic input generation for the benchmark suite.
//!
//! Inputs are seeded so every runtime (CPU-only, GPU-only, FluidiCL, static
//! splits, SOCL) computes over identical data and can be validated against
//! the same sequential reference, bit for bit. Generation uses the in-tree
//! [`SplitMix64`] generator so the streams never depend on an external
//! crate's version.
//!
//! Each buffer is filled with [`SplitMix64::fill_range_f32`], which derives
//! element `i` from the counter `seed + (i+1)·γ` instead of from element
//! `i-1`. The values are the ones a draw-by-draw loop produces; the
//! `streams_are_pinned` test holds them to digests taken before the fill
//! existed, so a change to the stream fails a test instead of silently
//! moving every reproduced table.

use fluidicl_des::SplitMix64;

/// `len` seeded values in `[lo, hi)`.
fn gen_range(len: usize, seed: u64, lo: f32, hi: f32) -> Vec<f32> {
    let mut out = vec![0.0; len];
    SplitMix64::new(seed).fill_range_f32(&mut out, lo, hi);
    out
}

/// Generates an `rows × cols` matrix (row-major) of values in `[-1, 1)`.
pub fn gen_matrix(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
    gen_range(rows * cols, seed, -1.0, 1.0)
}

/// Generates a vector of `len` values in `[-1, 1)`.
pub fn gen_vector(len: usize, seed: u64) -> Vec<f32> {
    gen_matrix(len, 1, seed)
}

/// Generates strictly positive values in `[0.1, 1.1)` (for inputs where
/// zero variance or cancellation would be degenerate, e.g. CORR).
pub fn gen_positive(len: usize, seed: u64) -> Vec<f32> {
    gen_range(len, seed, 0.1, 1.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(gen_matrix(8, 8, 42), gen_matrix(8, 8, 42));
        assert_eq!(gen_vector(16, 7), gen_vector(16, 7));
        assert_eq!(gen_positive(16, 7), gen_positive(16, 7));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(gen_matrix(8, 8, 1), gen_matrix(8, 8, 2));
    }

    #[test]
    fn ranges_hold() {
        assert!(gen_matrix(100, 1, 3)
            .iter()
            .all(|&v| (-1.0..1.0).contains(&v)));
        assert!(gen_positive(100, 3)
            .iter()
            .all(|&v| (0.1..1.1).contains(&v)));
    }

    /// FNV-1a over the little-endian bit patterns.
    fn digest(v: &[f32]) -> u64 {
        v.iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Digests recorded from the draw-by-draw generator the fill replaced.
    #[test]
    fn streams_are_pinned() {
        let m = gen_matrix(64, 64, 7);
        assert_eq!(digest(&m), 0xdd24_62eb_f0ea_4d33);
        assert_eq!(
            bits(&m[..4]),
            [0xbe61_a0f8, 0xbf77_6788, 0x3f4d_3080, 0x3e29_d758]
        );
        assert_eq!(m[4095].to_bits(), 0x3ef8_2908);
        let p = gen_positive(4096, 3);
        assert_eq!(digest(&p), 0xa97b_00bc_fa5e_7e87);
        assert_eq!(
            bits(&p[..4]),
            [0x3e5a_92b6, 0x3f4c_e009, 0x3f36_8582, 0x3e31_03f6]
        );
        assert_eq!(p[4095].to_bits(), 0x3e91_ebb9);
    }

    #[test]
    fn sizes_are_respected() {
        assert_eq!(gen_matrix(3, 5, 0).len(), 15);
        assert_eq!(gen_vector(9, 0).len(), 9);
    }
}
