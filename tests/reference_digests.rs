//! Pinned digests of every sequential reference.
//!
//! The references are what every runtime's output is validated against,
//! bit for bit, so an edit that moves one of them (a reordered sum, an
//! interchanged loop that changes the accumulation order) would silently
//! move every table that validates against it. These digests were taken
//! from the straightforward row-by-column loops; any rewrite of a
//! reference must keep them.

use fluidicl_check::{sweep_size, SWEEP_SEED};
use fluidicl_polybench::{all_benchmarks, find};

/// The seed of the `repro` experiments, which run at the default sizes.
const REPRO_SEED: u64 = 20140215;

/// FNV-1a over the little-endian bit patterns of every output, in order.
fn digest(outputs: &[Vec<f32>]) -> u64 {
    outputs
        .iter()
        .flatten()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn check(name: &str, n: usize, seed: u64, want: u64) {
    let b = find(name).expect("benchmark registered");
    let got = digest(&(b.reference)(n, seed));
    assert_eq!(
        got, want,
        "{name} reference at n = {n}, seed {seed:#x}: digest {got:#018x}, pinned {want:#018x}"
    );
}

#[test]
fn references_at_sweep_sizes_are_pinned() {
    let pinned = [
        ("ATAX", 0x78bf_e2b7_45c4_aa6b),
        ("BICG", 0xe47b_3481_8acd_5e7f),
        ("CORR", 0x4e95_8aab_3af0_67f1),
        ("GESUMMV", 0xa2ed_7af4_d0c5_b763),
        ("SYRK", 0x368a_ee05_1655_2727),
        ("SYR2K", 0x00fc_7a50_818f_5657),
        ("MVT", 0x21b1_e405_910a_a0e9),
        ("GEMM", 0xace8_5d86_f8a6_82e3),
        ("2MM", 0x694b_127d_4cbb_ac9d),
    ];
    let names: Vec<_> = all_benchmarks().iter().map(|b| b.name).collect();
    assert_eq!(
        names,
        pinned.map(|(name, _)| name),
        "every app is pinned once"
    );
    for (name, want) in pinned {
        check(name, sweep_size(name), SWEEP_SEED, want);
    }
}

#[test]
fn column_walking_references_at_default_sizes_are_pinned() {
    for (name, want) in [
        ("ATAX", 0x2e08_f2d6_907f_663b),
        ("BICG", 0x8664_a8b3_e68a_f30c),
        ("MVT", 0x3cb2_9d68_1bb9_10a7),
        ("CORR", 0x448b_75bf_aaff_2dd1),
    ] {
        let n = find(name).expect("benchmark registered").default_n;
        check(name, n, REPRO_SEED, want);
    }
}
