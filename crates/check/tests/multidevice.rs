//! Integration tests for N-way co-execution: output correctness and trace
//! hygiene on the three-device machine, byte-identity of the device-capped
//! two-device configuration, the N=3-beats-N=2 virtual-time claim, and the
//! `cpu_version_used` propagation on degraded runs.

use fluidicl::{render_timeline, Finisher, Fluidicl, FluidiclConfig, KernelReport, TraceKind};
use fluidicl_check::{race_check_report, sweep_size, SWEEP_SEED};
use fluidicl_hetsim::{KernelProfile, MachineConfig};
use fluidicl_polybench::all_benchmarks;
use fluidicl_vcl::{
    ArgRole, ArgSpec, ClDriver, FaultKind, FaultPlan, KernelArg, KernelDef, NdRange, Program,
};

/// Whether a report's trace names a peer-GPU endpoint (endpoint ≥ 1).
fn names_a_peer(report: &KernelReport) -> bool {
    report.trace.iter().any(|e| {
        matches!(
            e.kind,
            TraceKind::EpSubkernelStart { dev, .. }
                | TraceKind::EpSubkernelDone { dev, .. }
                | TraceKind::EpSend { dev, .. }
                | TraceKind::EpStatus { dev, .. }
                | TraceKind::NonOwnerLost { dev } if dev > 0
        )
    })
}

/// Every Polybench benchmark on the three-device machine must match its
/// sequential reference, co-execute every kernel with the peer endpoint,
/// and pass the happens-before race check on every kernel.
#[test]
fn three_device_coexecution_matches_references() {
    let machine = MachineConfig::paper_testbed_3dev();
    let mut peer_wgs_total = 0u64;
    for b in all_benchmarks() {
        let n = sweep_size(b.name);
        let config = FluidiclConfig::default().with_validate_protocol(true);
        let mut rt = Fluidicl::new(machine.clone(), config, (b.program)(n));
        let defs = (b.program)(n);
        let ok = b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap();
        assert!(ok, "{}: 3-device run diverged from reference", b.name);
        for report in rt.reports() {
            assert_eq!(
                report.peer_executed_wgs.len(),
                1,
                "{} kernel `{}`: expected the peer endpoint to co-execute",
                b.name,
                report.kernel
            );
            peer_wgs_total += report.peer_executed_wgs.iter().sum::<u64>();
            let kdef = defs.kernel(&report.kernel).unwrap();
            let findings = race_check_report(&kdef, report);
            assert!(
                findings.is_empty(),
                "{} kernel `{}`: {findings:?}",
                b.name,
                report.kernel
            );
        }
    }
    assert!(
        peer_wgs_total > 0,
        "the peer GPU never executed a single work-group across the suite"
    );
}

/// `with_devices(2)` on the three-device machine must reduce to the paper's
/// two-device protocol exactly: every kernel's rendered timeline is
/// byte-identical to a run on the plain paper testbed.
#[test]
fn two_device_cap_reproduces_paper_testbed_traces() {
    for b in all_benchmarks() {
        let n = sweep_size(b.name);
        let mut two = Fluidicl::new(
            MachineConfig::paper_testbed(),
            FluidiclConfig::default().with_validate_protocol(true),
            (b.program)(n),
        );
        assert!(b.run_and_validate_sized(&mut two, n, SWEEP_SEED).unwrap());
        let mut capped = Fluidicl::new(
            MachineConfig::paper_testbed_3dev(),
            FluidiclConfig::default()
                .with_validate_protocol(true)
                .with_devices(2),
            (b.program)(n),
        );
        assert!(b
            .run_and_validate_sized(&mut capped, n, SWEEP_SEED)
            .unwrap());
        assert_eq!(two.reports().len(), capped.reports().len());
        for (a, c) in two.reports().iter().zip(capped.reports()) {
            assert!(
                !names_a_peer(c),
                "capped run must never name a peer endpoint"
            );
            assert_eq!(
                render_timeline(&a.kernel, &a.trace),
                render_timeline(&c.kernel, &c.trace),
                "{} kernel `{}`: devices=2 trace differs from paper testbed",
                b.name,
                a.kernel
            );
            assert_eq!(a.duration, c.duration);
            assert!(c.peer_executed_wgs.is_empty());
        }
    }
}

/// The scaling claim behind the tentpole: with the mid-range peer GPU
/// enabled, total virtual time must beat the two-device configuration on at
/// least 3 Polybench benchmarks. Measured at 2x the sweep sizes — the peer
/// pays an up-front begin broadcast over its slower link, so the win only
/// materialises once kernels are large enough to amortise it (the paper's
/// scaling argument, §7). The regression bound is deliberately loose:
/// with a peer the CPU can no longer finish a kernel alone (the §4.2
/// shortcut needs the CPU to be the sole non-owner), so kernels where the
/// CPU used to win outright (GESUMMV, MVT) now complete through the merge
/// and its device-to-host transfer.
#[test]
fn three_devices_beat_two_on_virtual_time() {
    let mut faster = Vec::new();
    let mut slower = Vec::new();
    for b in all_benchmarks() {
        let n = 2 * sweep_size(b.name);
        let run = |machine: MachineConfig| {
            let mut rt = Fluidicl::new(machine, FluidiclConfig::default(), (b.program)(n));
            assert!(
                b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap(),
                "{}: diverged from reference",
                b.name
            );
            rt.summary().total_kernel_time
        };
        let two = run(MachineConfig::paper_testbed());
        let three = run(MachineConfig::paper_testbed_3dev());
        if three < two {
            faster.push((b.name, two, three));
        } else if three.as_nanos() as f64 > two.as_nanos() as f64 * 1.15 {
            slower.push((b.name, two, three));
        }
    }
    assert!(
        faster.len() >= 3,
        "3 devices beat 2 on only {} benchmark(s): {faster:?}",
        faster.len()
    );
    assert!(slower.is_empty(), "3 devices regressed >15% on: {slower:?}");
}

/// A two-version program: the baseline is deliberately CPU-hostile and the
/// alternate CPU-friendly, so online profiling (paper §6.6) must settle on
/// version 1.
fn two_version_program() -> Program {
    let body = |item: &fluidicl_vcl::WorkItem,
                scalars: &fluidicl_vcl::Scalars,
                ins: &fluidicl_vcl::Inputs<'_>,
                outs: &mut fluidicl_vcl::Outputs<'_>| {
        let n = scalars.usize(0);
        let i = item.global_linear();
        if i < n {
            outs.at(0)[i] = ins.get(0)[i] * 2.0 + 1.0;
        }
    };
    let mut p = Program::new();
    p.register(
        KernelDef::new(
            "scale",
            vec![
                ArgSpec::new("src", ArgRole::In),
                ArgSpec::new("dst", ArgRole::Out),
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            KernelProfile::new("scale")
                .flops_per_item(40.0)
                .bytes_read_per_item(8.0)
                .bytes_written_per_item(4.0)
                .cpu_cache_locality(0.05),
            body,
        )
        .with_version(
            "cpu-tuned",
            KernelProfile::new("scale-cpu")
                .flops_per_item(2.0)
                .bytes_read_per_item(8.0)
                .bytes_written_per_item(4.0)
                .cpu_cache_locality(0.95),
            body,
        ),
    );
    p
}

/// Satellite regression: a degraded (GPU-lost) kernel must report the
/// kernel version online profiling selected, not a hardcoded 0.
#[test]
fn degraded_runs_report_the_selected_version() {
    // Seeds sweep until one kills the GPU *after* profiling has settled on
    // the alternate version but *before* the last launch, leaving at least
    // one degraded launch in the report list. The schedule is deterministic
    // per seed, so the first qualifying seed is stable.
    let n = 4096usize;
    'seeds: for seed in 0..64u64 {
        let config = FluidiclConfig::default()
            .with_online_profiling(true)
            .with_faults(Some(FaultPlan::new(FaultKind::GpuLost, seed)));
        let mut rt = Fluidicl::new(
            MachineConfig::paper_testbed(),
            config,
            two_version_program(),
        );
        let src: Vec<f32> = (0..n).map(|i| (i % 97) as f32).collect();
        let a = rt.create_buffer(n);
        let b = rt.create_buffer(n);
        rt.write_buffer(a, &src).unwrap();
        for _ in 0..6 {
            let r = rt.enqueue_kernel(
                "scale",
                NdRange::d1(n, 64).unwrap(),
                &[
                    KernelArg::Buffer(a),
                    KernelArg::Buffer(b),
                    KernelArg::Usize(n),
                ],
            );
            if r.is_err() {
                continue 'seeds;
            }
        }
        let out = rt.read_buffer(b).unwrap();
        assert_eq!(out, src.iter().map(|v| v * 2.0 + 1.0).collect::<Vec<f32>>());
        let reports = rt.reports();
        let Some(first_degraded) = reports.iter().position(|r| {
            r.trace
                .iter()
                .any(|e| matches!(e.kind, TraceKind::EpDegradedRun { dev: 0, .. }))
        }) else {
            continue 'seeds;
        };
        // Profiling must have settled on the alternate before the loss.
        if reports[..first_degraded]
            .iter()
            .all(|r| r.cpu_version_used != 1)
        {
            continue 'seeds;
        }
        for r in &reports[first_degraded..] {
            assert_eq!(
                r.cpu_version_used, 1,
                "degraded kernel `{}` (id {}) dropped the selected version",
                r.kernel, r.kernel_id
            );
            assert_eq!(r.finished_by, Finisher::Cpu);
        }
        return; // found a qualifying seed and the contract held
    }
    panic!("no seed produced a degraded run after version selection");
}
