//! CORR: Pearson correlation matrix — four kernels of very different
//! shapes (tiny column reductions, an element-wise normalisation, and a
//! heavy triangular correlation kernel).
//!
//! CORR is the paper's online-profiling showcase (Table 3): the baseline
//! correlation kernel is GPU-oriented and cache-hostile on the CPU; a
//! loop-interchanged alternative makes the CPU competitive, and FluidiCL's
//! online profiling (§6.6) finds it without user intervention.
//!
//! Both versions of the correlation kernel register the same functional
//! body, [`corr_body`]; they differ only in their [`KernelProfile`], which
//! is all the cost models and the online profiler see. What the paper's
//! two OpenCL versions compute is identical, so one body serves both.

use fluidicl_hetsim::KernelProfile;
use fluidicl_vcl::{
    AccessPattern, ArgRole, ArgSpec, ClDriver, ClResult, KernelArg, KernelDef, NdRange, Program,
    Scalars, WorkItem,
};

use crate::data::gen_positive;

/// Default (scaled) problem size (paper: 2048²).
pub const DEFAULT_N: usize = 576;
/// Work-group size of the 1-D reduction kernels.
pub const WG_1D: usize = 32;
/// Work-group edge of the 2-D centering kernel.
pub const WG_2D: usize = 16;
/// Work-group size of the triangular correlation kernel.
pub const WG_CORR: usize = 2;

const EPS: f32 = 0.005;

fn profile_mean(n: usize) -> KernelProfile {
    KernelProfile::new("corr_mean")
        .flops_per_item(n as f64 + 1.0)
        .bytes_read_per_item(4.0 * n as f64)
        .bytes_written_per_item(4.0)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(0.95)
        .cpu_cache_locality(0.3)
        .cpu_simd_friendliness(0.5)
}

fn profile_std(n: usize) -> KernelProfile {
    KernelProfile::new("corr_std")
        .flops_per_item(3.0 * n as f64 + 4.0)
        .bytes_read_per_item(4.0 * n as f64)
        .bytes_written_per_item(4.0)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(0.95)
        .cpu_cache_locality(0.3)
        .cpu_simd_friendliness(0.5)
}

fn profile_center(_n: usize) -> KernelProfile {
    KernelProfile::new("corr_center")
        .flops_per_item(3.0)
        .bytes_read_per_item(12.0)
        .bytes_written_per_item(4.0)
        .gpu_coalescing(1.0)
        .cpu_cache_locality(0.95)
        .cpu_simd_friendliness(0.95)
}

fn profile_corr_base(n: usize) -> KernelProfile {
    // Cost of the paper's naive GPU-oriented version, whose k-loop walks
    // columns: the GPU coalesces that across the warp, the CPU cache hates
    // it. (The functional body, shared by both versions, is `corr_body`.)
    KernelProfile::new("corr_corr")
        .flops_per_item((n as f64) * (n as f64))
        .bytes_read_per_item(4.0 * (n as f64) * (n as f64))
        .bytes_written_per_item(4.0 * n as f64)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(0.8)
        .gpu_divergence(0.3)
        .cpu_cache_locality(0.05)
        .cpu_simd_friendliness(0.1)
}

fn profile_corr_interchanged(n: usize) -> KernelProfile {
    // Cost of the hand-written CPU alternative of paper Table 3, with loops
    // interchanged for cache locality: identical semantics, far better CPU
    // behaviour. Only this profile distinguishes the version; it runs the
    // same `corr_body` as the baseline.
    KernelProfile::new("corr_corr_interchanged")
        .flops_per_item((n as f64) * (n as f64))
        // Loop interchange enables cache blocking: each matrix element is
        // loaded once per block instead of once per j2, cutting DRAM
        // traffic by ~4x on top of the improved access pattern.
        .bytes_read_per_item((n as f64) * (n as f64))
        .bytes_written_per_item(4.0 * n as f64)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(0.2)
        .gpu_divergence(0.3)
        .cpu_cache_locality(0.95)
        .cpu_simd_friendliness(0.9)
}

/// Row `j1` of the correlation matrix past its diagonal: for each `j2` in
/// `j1+1..n`, in order, the sum `Σₖ data[k·n + j1] · data[k·n + j2]`.
///
/// Each sum runs over `k` in increasing order from `0.0`, as a loop over
/// `k` per `j2` does, so every element is bit-identical to it; the loops
/// are interchanged (`k` outer, `j2` inner over a row accumulator) so
/// `data` is read row by row instead of down two columns.
fn corr_row(data: &[f32], n: usize, j1: usize) -> Vec<f32> {
    let mut acc = vec![0.0f32; n - j1 - 1];
    for row in data.chunks_exact(n).take(n) {
        let d1 = row[j1];
        for (s, &d2) in acc.iter_mut().zip(&row[j1 + 1..]) {
            *s += d1 * d2;
        }
    }
    acc
}

/// Work-item `j1` of the correlation kernel, shared by both versions: the
/// diagonal plus row `j1` past it, mirrored below the diagonal.
fn corr_body(
    item: &WorkItem,
    scalars: &Scalars,
    ins: &fluidicl_vcl::Inputs<'_>,
    outs: &mut fluidicl_vcl::Outputs<'_>,
) {
    let n = scalars.usize(0);
    let j1 = item.global[0];
    let row = corr_row(ins.get(0), n, j1);
    let symmat = outs.at(0);
    symmat[j1 * n + j1] = 1.0;
    for (j2, acc) in ((j1 + 1)..n).zip(row) {
        symmat[j1 * n + j2] = acc;
        symmat[j2 * n + j1] = acc;
    }
}

/// Builds the CORR program for problem size `n`. The correlation kernel
/// carries the loop-interchanged alternate version for online profiling:
/// the same body under a different cost profile.
pub fn program(n: usize) -> Program {
    let mut p = Program::new();
    p.register(KernelDef::new(
        "corr_mean",
        vec![
            ArgSpec::new("data", ArgRole::In).with_access(AccessPattern::Col {
                dim: 0,
                width_scalar: 0,
            }),
            ArgSpec::new("mean", ArgRole::Out).with_access(AccessPattern::Element),
            ArgSpec::new("n", ArgRole::Scalar),
        ],
        profile_mean(n),
        |item, scalars, ins, outs| {
            let n = scalars.usize(0);
            let j = item.global[0];
            let data = ins.get(0);
            let mut acc = 0.0f32;
            for i in 0..n {
                acc += data[i * n + j];
            }
            outs.at(0)[j] = acc / n as f32;
        },
    ));
    p.register(KernelDef::new(
        "corr_std",
        vec![
            ArgSpec::new("data", ArgRole::In).with_access(AccessPattern::Col {
                dim: 0,
                width_scalar: 0,
            }),
            ArgSpec::new("mean", ArgRole::In).with_access(AccessPattern::Element),
            ArgSpec::new("std", ArgRole::Out).with_access(AccessPattern::Element),
            ArgSpec::new("n", ArgRole::Scalar),
        ],
        profile_std(n),
        |item, scalars, ins, outs| {
            let n = scalars.usize(0);
            let j = item.global[0];
            let data = ins.get(0);
            let mean = ins.get(1);
            let mut acc = 0.0f32;
            for i in 0..n {
                let d = data[i * n + j] - mean[j];
                acc += d * d;
            }
            let sd = (acc / n as f32).sqrt();
            outs.at(0)[j] = if sd <= EPS { 1.0 } else { sd };
        },
    ));
    p.register(KernelDef::new(
        "corr_center",
        vec![
            ArgSpec::new("mean", ArgRole::In).with_access(AccessPattern::WholeBuffer),
            ArgSpec::new("std", ArgRole::In).with_access(AccessPattern::WholeBuffer),
            ArgSpec::new("data", ArgRole::InOut).with_access(AccessPattern::Element),
            ArgSpec::new("n", ArgRole::Scalar),
        ],
        profile_center(n),
        |item, scalars, ins, outs| {
            let n = scalars.usize(0);
            let j = item.global[0];
            let i = item.global[1];
            let mean = ins.get(0);
            let std = ins.get(1);
            let data = outs.at(0);
            data[i * n + j] = (data[i * n + j] - mean[j]) / ((n as f32).sqrt() * std[j]);
        },
    ));
    p.register(
        KernelDef::new(
            "corr_corr",
            vec![
                ArgSpec::new("data", ArgRole::In).with_access(AccessPattern::WholeBuffer),
                // Item j1 owns the tail of row j1 (the diagonal onward) plus
                // the mirrored cells symmat[j2][j1] below it — exactly what
                // `corr_body` writes.
                ArgSpec::new("symmat", ArgRole::Out).with_access(AccessPattern::custom(
                    |item, scalars, _len| {
                        let n = scalars.usize(0);
                        let j1 = item.global[0];
                        let mut ranges = vec![(j1 * n + j1, j1 * n + n)];
                        for j2 in (j1 + 1)..n {
                            ranges.push((j2 * n + j1, j2 * n + j1 + 1));
                        }
                        ranges
                    },
                )),
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            profile_corr_base(n),
            corr_body,
        )
        .with_version("loop-interchanged", profile_corr_interchanged(n), corr_body),
    );
    p
}

/// Runs CORR on `driver`, returning `[symmat]`.
///
/// # Errors
///
/// Propagates driver errors.
pub fn run(driver: &mut dyn ClDriver, n: usize, seed: u64) -> ClResult<Vec<Vec<f32>>> {
    let data = gen_positive(n * n, seed);
    let data_buf = driver.create_buffer(n * n);
    let mean_buf = driver.create_buffer(n);
    let std_buf = driver.create_buffer(n);
    let symmat_buf = driver.create_buffer(n * n);
    driver.write_buffer(data_buf, &data)?;
    let nd1 = NdRange::d1(n, WG_1D)?;
    driver.enqueue_kernel(
        "corr_mean",
        nd1,
        &[
            KernelArg::Buffer(data_buf),
            KernelArg::Buffer(mean_buf),
            KernelArg::Usize(n),
        ],
    )?;
    driver.enqueue_kernel(
        "corr_std",
        nd1,
        &[
            KernelArg::Buffer(data_buf),
            KernelArg::Buffer(mean_buf),
            KernelArg::Buffer(std_buf),
            KernelArg::Usize(n),
        ],
    )?;
    driver.enqueue_kernel(
        "corr_center",
        NdRange::d2(n, n, WG_2D, WG_2D)?,
        &[
            KernelArg::Buffer(mean_buf),
            KernelArg::Buffer(std_buf),
            KernelArg::Buffer(data_buf),
            KernelArg::Usize(n),
        ],
    )?;
    driver.enqueue_kernel(
        "corr_corr",
        NdRange::d1(n, WG_CORR)?,
        &[
            KernelArg::Buffer(data_buf),
            KernelArg::Buffer(symmat_buf),
            KernelArg::Usize(n),
        ],
    )?;
    Ok(vec![driver.read_buffer(symmat_buf)?])
}

/// Sequential reference.
pub fn reference(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut data = gen_positive(n * n, seed);
    let nf = n as f32;
    // Column sums accumulate row by row: each column still sums over `i`
    // in increasing order, so the results match the kernels' column walks.
    let mut mean = vec![0.0f32; n];
    for row in data.chunks_exact(n) {
        for (m, &x) in mean.iter_mut().zip(row) {
            *m += x;
        }
    }
    for m in &mut mean {
        *m /= nf;
    }
    let mut std = vec![0.0f32; n];
    for row in data.chunks_exact(n) {
        for ((s, &x), &m) in std.iter_mut().zip(row).zip(&mean) {
            let d = x - m;
            *s += d * d;
        }
    }
    for s in &mut std {
        let sd = (*s / nf).sqrt();
        *s = if sd <= EPS { 1.0 } else { sd };
    }
    for i in 0..n {
        for j in 0..n {
            data[i * n + j] = (data[i * n + j] - mean[j]) / (nf.sqrt() * std[j]);
        }
    }
    let mut symmat = vec![0.0f32; n * n];
    for j1 in 0..n {
        symmat[j1 * n + j1] = 1.0;
        for (j2, acc) in ((j1 + 1)..n).zip(corr_row(&data, n, j1)) {
            symmat[j1 * n + j2] = acc;
            symmat[j2 * n + j1] = acc;
        }
    }
    vec![symmat]
}

/// Work-group counts per kernel.
pub fn workgroups(n: usize) -> Vec<u64> {
    vec![
        (n / WG_1D) as u64,
        (n / WG_1D) as u64,
        ((n / WG_2D) * (n / WG_2D)) as u64,
        (n / WG_CORR) as u64,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidicl_hetsim::MachineConfig;
    use fluidicl_vcl::{DeviceKind, SingleDeviceRuntime};

    #[test]
    fn matches_reference_on_both_devices() {
        let n = 64;
        for device in [DeviceKind::Cpu, DeviceKind::Gpu] {
            let mut rt =
                SingleDeviceRuntime::new(MachineConfig::paper_testbed(), device, program(n));
            assert_eq!(run(&mut rt, n, 17).unwrap(), reference(n, 17));
        }
    }

    #[test]
    fn has_four_kernels_with_alternate_version() {
        let p = program(DEFAULT_N);
        assert_eq!(p.len(), 4);
        let corr = p.kernel("corr_corr").unwrap();
        assert_eq!(corr.versions().len(), 2);
        assert_eq!(corr.versions()[1].label, "loop-interchanged");
    }

    #[test]
    fn interchange_improves_cpu_profile() {
        let base = profile_corr_base(256);
        let alt = profile_corr_interchanged(256);
        assert!(alt.cache_locality() > base.cache_locality());
    }

    #[test]
    fn workgroup_shape() {
        assert_eq!(workgroups(256), vec![8, 8, 256, 128]);
    }
}
