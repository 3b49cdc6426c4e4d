//! Mutation harness for the protocol-trace linter: take genuine traces from
//! co-executed Polybench kernels, verify they lint clean, then inject
//! protocol bugs and verify every one is flagged — on a two-device trace
//! (the CPU as the sole non-owner) and on a three-device trace (CPU plus a
//! peer GPU), each mutation under the same rule id.

use fluidicl::{Finisher, Fluidicl, FluidiclConfig, KernelReport, TraceEvent, TraceKind};
use fluidicl_check::{lint_report, lint_trace, sweep_size, LintSeverity, SWEEP_SEED};
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::all_benchmarks;

/// Runs `names` under FluidiCL on `machine` at `scale` times the sweep
/// size and returns every kernel report.
fn reports_on(machine: &MachineConfig, names: &[&str], scale: usize) -> Vec<KernelReport> {
    let mut reports = Vec::new();
    for b in all_benchmarks()
        .into_iter()
        .filter(|b| names.contains(&b.name))
    {
        let n = scale * sweep_size(b.name);
        let mut rt = Fluidicl::new(machine.clone(), FluidiclConfig::default(), (b.program)(n));
        let ok = b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap();
        assert!(ok, "{} diverged from reference", b.name);
        reports.extend(rt.reports().iter().cloned());
    }
    assert!(!reports.is_empty());
    reports
}

/// Two-device reports. The weak-GPU laptop makes the CPU competitive, so
/// SYRK there yields traces with several waves *and* several arrived
/// statuses.
fn two_device_reports() -> Vec<KernelReport> {
    let mut reports = reports_on(&MachineConfig::paper_testbed(), &["ATAX", "CORR"], 1);
    reports.extend(reports_on(
        &MachineConfig::weak_gpu_laptop(),
        &["SYRK", "GEMM"],
        1,
    ));
    reports
}

/// Three-device reports: the paper testbed plus a peer GPU, at twice the
/// sweep sizes (the `repro ndev` scale), where the peer's begin broadcast
/// amortises and SYRK/GEMM traces interleave both endpoints' claims with
/// several owner waves and statuses.
fn three_device_reports() -> Vec<KernelReport> {
    reports_on(
        &MachineConfig::paper_testbed_3dev(),
        &["ATAX", "CORR", "SYRK", "GEMM"],
        2,
    )
}

fn count(trace: &[TraceEvent], pred: impl Fn(&TraceKind) -> bool) -> usize {
    trace.iter().filter(|e| pred(&e.kind)).count()
}

/// A real trace rich enough for every mutation: it has arrived statuses,
/// at least two owner waves, and claims from `endpoints` distinct
/// endpoints.
fn rich_trace(reports: &[KernelReport], endpoints: usize) -> Vec<TraceEvent> {
    reports
        .iter()
        .map(|r| &r.trace)
        .find(|t| {
            let mut devs: Vec<u32> = t
                .iter()
                .filter_map(|e| match e.kind {
                    TraceKind::EpSubkernelStart { dev, .. } => Some(dev),
                    _ => None,
                })
                .collect();
            devs.sort_unstable();
            devs.dedup();
            count(t, |k| matches!(k, TraceKind::EpStatus { .. })) >= 1
                && count(t, |k| matches!(k, TraceKind::GpuWaveDone { .. })) >= 2
                && devs.len() == endpoints
        })
        .expect("some kernel produced statuses, multiple waves and the wanted endpoints")
        .clone()
}

/// The rich two-device and three-device traces every mutation runs on.
fn rich_traces() -> [(&'static str, Vec<TraceEvent>); 2] {
    [
        ("2-device", rich_trace(&two_device_reports(), 1)),
        ("3-device", rich_trace(&three_device_reports(), 2)),
    ]
}

fn errors(trace: &[TraceEvent]) -> Vec<String> {
    lint_trace(trace)
        .into_iter()
        .filter(|d| d.severity == LintSeverity::Error)
        .map(|d| d.rule.to_string())
        .collect()
}

/// Applies `mutate` to both rich traces and asserts the linter flags
/// `rule` on each.
fn assert_flags(rule: &str, mutate: impl Fn(&mut Vec<TraceEvent>)) {
    for (label, mut t) in rich_traces() {
        assert!(
            errors(&t).is_empty(),
            "{label}: unmutated trace must lint clean"
        );
        mutate(&mut t);
        let rules = errors(&t);
        assert!(
            rules.iter().any(|r| r == rule),
            "{label}: expected `{rule}`, got {rules:?}"
        );
    }
}

#[test]
fn real_traces_lint_clean() {
    for r in two_device_reports().iter().chain(&three_device_reports()) {
        let diags = lint_report(r);
        assert!(
            diags.is_empty(),
            "kernel `{}` trace should be clean, got {diags:?}",
            r.kernel
        );
    }
}

#[test]
fn mutation_missing_enqueue_record() {
    assert_flags("trace-shape", |t| {
        t.remove(0);
    });
}

#[test]
fn mutation_rising_watermark() {
    assert_flags("watermark-monotone", |t| {
        let total = match t[0].kind {
            TraceKind::Enqueued { total_wgs, .. } => total_wgs,
            _ => unreachable!(),
        };
        // Make the last status claim a watermark above the whole NDRange:
        // the watermark would have to rise.
        let last_status = t
            .iter_mut()
            .rev()
            .find(|e| matches!(e.kind, TraceKind::EpStatus { .. }))
            .unwrap();
        if let TraceKind::EpStatus { dev, .. } = last_status.kind {
            last_status.kind = TraceKind::EpStatus {
                dev,
                boundary: total + 1,
                watermark: total + 1,
            };
        }
    });
}

#[test]
fn mutation_status_without_data() {
    // Drop every data transfer: the in-order queues now deliver statuses
    // whose payload was never sent.
    assert_flags("data-before-status", |t| {
        t.retain(|e| !matches!(e.kind, TraceKind::EpSend { .. }));
    });
}

#[test]
fn mutation_dropped_wave() {
    // Remove the first wave's start/done pair: the next wave no longer
    // starts at the expected work-group.
    assert_flags("wave-contiguity", |t| {
        let mut dropped_start = false;
        let mut dropped_done = false;
        t.retain(|e| match e.kind {
            TraceKind::GpuWaveStart { .. } if !dropped_start => {
                dropped_start = true;
                false
            }
            TraceKind::GpuWaveDone { .. } if !dropped_done => {
                dropped_done = true;
                false
            }
            _ => true,
        });
    });
}

#[test]
fn mutation_missing_gpu_exit() {
    assert_flags("gpu-exit", |t| {
        t.retain(|e| !matches!(e.kind, TraceKind::GpuExit));
    });
}

#[test]
fn mutation_missing_merge() {
    assert_flags("merge", |t| {
        t.retain(|e| !matches!(e.kind, TraceKind::MergeDone));
    });
}

#[test]
fn mutation_duplicated_completion() {
    assert_flags("completion", |t| {
        let last = t.last().unwrap().clone();
        t.push(TraceEvent {
            at: last.at,
            kind: TraceKind::KernelComplete {
                finisher: Finisher::Gpu,
            },
        });
    });
}

#[test]
fn mutation_broken_subkernel_descent() {
    // Shift the first claim up by one: it no longer starts the descent at
    // the top of the NDRange.
    assert_flags("cpu-contiguity", |t| {
        let first = t
            .iter_mut()
            .find(|e| matches!(e.kind, TraceKind::EpSubkernelStart { .. }))
            .unwrap();
        if let TraceKind::EpSubkernelStart {
            dev,
            from,
            to,
            version,
        } = first.kind
        {
            first.kind = TraceKind::EpSubkernelStart {
                dev,
                from: from + 1,
                to: to + 1,
                version,
            };
        }
    });
}

#[test]
fn mutation_claims_out_of_frontier_order() {
    // Three devices: the first two claims (by different endpoints) swap
    // their ranges, start and completion alike — the first claim no longer
    // comes off the frontier top, and the second lands above the top
    // although no loss or promotion returned that range.
    let (label, mut t) = rich_traces().into_iter().nth(1).unwrap();
    assert!(
        errors(&t).is_empty(),
        "{label}: unmutated trace must lint clean"
    );
    let starts: Vec<usize> = t
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.kind, TraceKind::EpSubkernelStart { .. }))
        .map(|(i, _)| i)
        .collect();
    let claim = |i: usize| match t[i].kind {
        TraceKind::EpSubkernelStart { dev, from, to, .. } => (dev, from, to),
        _ => unreachable!(),
    };
    let a = starts[0];
    let b = *starts
        .iter()
        .find(|&&i| claim(i).0 != claim(a).0)
        .expect("a second endpoint claimed work");
    let (ca, cb) = (claim(a), claim(b));
    for e in t.iter_mut() {
        if let TraceKind::EpSubkernelStart { dev, from, to, .. }
        | TraceKind::EpSubkernelDone { dev, from, to } = &mut e.kind
        {
            let swapped = if (*dev, *from, *to) == ca {
                (cb.1, cb.2)
            } else if (*dev, *from, *to) == cb {
                (ca.1, ca.2)
            } else {
                continue;
            };
            (*from, *to) = swapped;
        }
    }
    let rules = errors(&t);
    assert!(
        rules.iter().any(|r| r == "cpu-contiguity"),
        "{label}: expected `cpu-contiguity`, got {rules:?}"
    );
}

#[test]
fn mutation_unsorted_timestamps() {
    // Move the GPU launch to the very end of the log.
    assert_flags("chronology", |t| {
        let pos = t
            .iter()
            .position(|e| matches!(e.kind, TraceKind::GpuLaunch))
            .unwrap();
        let ev = t.remove(pos);
        t.push(ev);
    });
}

#[test]
fn mutation_inconsistent_report_counters() {
    for reports in [two_device_reports(), three_device_reports()] {
        let mut r = reports
            .iter()
            .find(|r| r.gpu_executed_wgs > 0)
            .unwrap()
            .clone();
        r.gpu_executed_wgs += 1;
        let diags = lint_report(&r);
        assert!(
            diags.iter().any(|d| d.rule == "report-consistency"),
            "{diags:?}"
        );
    }
}

#[test]
fn runtime_rejects_protocol_violations_when_enabled() {
    // The config flag is what wires the linter into the runtime; with it on
    // (the debug/test default) every report returned to callers has already
    // been vetted, so its trace lints clean here.
    let b = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "SYRK")
        .unwrap();
    let n = sweep_size(b.name);
    for machine in [
        MachineConfig::paper_testbed(),
        MachineConfig::paper_testbed_3dev(),
    ] {
        let config = FluidiclConfig::default().with_validate_protocol(true);
        let mut rt = Fluidicl::new(machine, config, (b.program)(n));
        assert!(b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap());
        assert!(rt.config().validate_protocol);
        for r in rt.reports() {
            assert!(lint_report(r).is_empty());
        }
    }
}
