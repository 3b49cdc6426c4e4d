//! Owner-failover contract on the 3-device testbed: when the acting owner
//! GPU misses its wave watchdog, a surviving peer is promoted to owner
//! under a new epoch and the kernel still completes bit-identically to the
//! sequential reference — stale old-epoch messages are rejected, the
//! promoted peer's pre-promotion contributions are rolled back and
//! recomputed exactly once, and follow-on kernels re-form co-execution on
//! every healthy survivor instead of degrading to a single device.
//!
//! The full grid runs in `fluidicl-check --faults` (the owner-failover
//! sweep families); these tests pin one hand-picked scenario per guarantee.

use fluidicl::{render_timeline, Fluidicl, FluidiclConfig, RecoveryPolicy, TraceKind};
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::all_benchmarks;
use fluidicl_vcl::{ClError, ClResult, DeviceKind, FaultKind, FaultPlan};

fn test_size(name: &str) -> usize {
    match name {
        "ATAX" | "BICG" | "MVT" => 256,
        "CORR" => 64,
        "GESUMMV" => 512,
        "SYRK" | "SYR2K" | "GEMM" | "2MM" => 64,
        other => panic!("unknown benchmark {other}"),
    }
}

const SEED: u64 = 0xF1D1C1;
const SCAN: u64 = 64;

fn faulty(kind: FaultKind, plan_seed: u64) -> FluidiclConfig {
    FluidiclConfig::default()
        .with_validate_protocol(true)
        .with_faults(Some(FaultPlan::new(kind, plan_seed)))
}

/// Runs `name` on the paper testbed extended with one peer GPU (a CPU, the
/// primary owner card and one midrange peer — the smallest machine where
/// owner loss leaves two survivors).
fn run3(name: &str, config: FluidiclConfig) -> (Fluidicl, ClResult<bool>) {
    let b = all_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .expect("benchmark");
    let n = test_size(name);
    let mut rt = Fluidicl::new(MachineConfig::paper_testbed_3dev(), config, (b.program)(n));
    let res = b.run_and_validate_sized(&mut rt, n, SEED);
    (rt, res)
}

fn has_event(rt: &Fluidicl, pred: impl Fn(&TraceKind) -> bool) -> bool {
    rt.reports()
        .iter()
        .any(|r| r.trace.iter().any(|e| pred(&e.kind)))
}

/// Scans plan seeds until a run matching `pred` appears — fault triggers
/// are seed-positioned, so a given scenario only materialises on some
/// seeds. Deterministic: the same seed always yields the same run.
fn scan3(
    name: &str,
    config: impl Fn(u64) -> FluidiclConfig,
    pred: impl Fn(&Fluidicl, &ClResult<bool>) -> bool,
) -> (Fluidicl, ClResult<bool>) {
    for ps in 0..SCAN {
        let (rt, res) = run3(name, config(ps));
        if pred(&rt, &res) {
            return (rt, res);
        }
    }
    panic!("no plan seed in 0..{SCAN} produced the scenario for {name}");
}

fn promoted(rt: &Fluidicl) -> bool {
    has_event(rt, |k| matches!(k, TraceKind::OwnerPromoted { .. }))
}

#[test]
fn owner_loss_promotes_a_surviving_peer_and_recovers_bit_identically() {
    let (rt, res) = scan3(
        "SYRK",
        |ps| faulty(FaultKind::GpuLost, ps),
        |rt, _| promoted(rt),
    );
    assert!(res.unwrap(), "promoted run must match the reference");
    assert!(rt.fault_fired());
    // The promotion migrates ownership under a fresh epoch (primary owner
    // is epoch 0) and the trace still records the primary card's loss.
    assert!(has_event(&rt, |k| matches!(
        k,
        TraceKind::OwnerPromoted { dev, epoch } if *dev > 0 && *epoch > 0
    )));
    assert!(has_event(&rt, |k| matches!(k, TraceKind::DeviceLost)));
    // The roster charges the loss to the primary card only: the CPU and
    // the promoted peer stay healthy for follow-on kernels.
    assert!(!rt.roster().gpu_healthy());
    assert!(rt.roster().cpu_healthy());
    assert!(rt.roster().dead_peers().is_empty());
}

#[test]
fn promotion_rejects_stale_old_epoch_messages() {
    // ATAX's many small work-groups keep sends in flight at the instant
    // the owner dies, so some status messages arrive addressed to the dead
    // epoch. The new owner must reject them (their ranges stay below the
    // watermark and the wave walk re-covers them) and still validate.
    let (rt, res) = scan3(
        "ATAX",
        |ps| faulty(FaultKind::GpuLost, ps),
        |rt, _| promoted(rt) && has_event(rt, |k| matches!(k, TraceKind::EpochRejected { .. })),
    );
    assert!(res.unwrap(), "epoch-fenced run must match the reference");
    assert!(rt.fault_fired());
}

#[test]
fn follow_on_kernels_reform_on_cpu_and_peer_after_owner_loss() {
    // CORR enqueues four kernels. Once the owner GPU dies in an early one
    // and a peer is promoted, every later kernel must re-form two-device
    // co-execution (CPU + acting-owner peer) — never a single-device
    // degraded run — and the whole benchmark must match the reference.
    let (rt, res) = scan3(
        "CORR",
        |ps| faulty(FaultKind::GpuLost, ps),
        |rt, res| {
            if !matches!(res, Ok(true)) {
                return false;
            }
            rt.reports()
                .iter()
                .position(|r| {
                    r.trace
                        .iter()
                        .any(|e| matches!(e.kind, TraceKind::OwnerPromoted { .. }))
                })
                .is_some_and(|i| i + 1 < rt.reports().len())
        },
    );
    assert!(res.unwrap());
    assert!(!rt.roster().gpu_healthy() && rt.roster().cpu_healthy());
    let lost_at = rt
        .reports()
        .iter()
        .position(|r| {
            r.trace
                .iter()
                .any(|e| matches!(e.kind, TraceKind::OwnerPromoted { .. }))
        })
        .unwrap();
    // The kernel right after the loss re-forms with the peer as acting
    // owner and the CPU as its partner — two healthy survivors, so no
    // single-device degraded span, and both devices execute work-groups
    // (owner waves + CPU subkernels). Later
    // kernels may still degrade: the plan's sticky verdict keeps killing
    // GPU waves, so the acting peer can be the cascade's next victim.
    let r = &rt.reports()[lost_at + 1];
    let degraded = r.trace.iter().any(|e| {
        matches!(
            e.kind,
            TraceKind::DegradedRun { .. } | TraceKind::EpDegradedRun { .. }
        )
    });
    assert!(
        !degraded,
        "{}: the kernel after owner loss must co-execute on the survivors",
        r.kernel
    );
    let owner_ran = r
        .trace
        .iter()
        .any(|e| matches!(e.kind, TraceKind::GpuWaveStart { .. }));
    let cpu_ran = r
        .trace
        .iter()
        .any(|e| matches!(e.kind, TraceKind::EpSubkernelStart { dev: 0, .. }));
    assert!(
        owner_ran && cpu_ran,
        "{}: both survivors must execute work-groups",
        r.kernel
    );
}

#[test]
fn follow_on_kernels_reform_on_owner_and_peer_after_cpu_loss() {
    // Losing the CPU in a 3-device machine leaves two healthy GPUs: later
    // kernels keep co-executing (owner waves + peer claims) instead of
    // collapsing onto the owner alone.
    let (rt, res) = scan3(
        "CORR",
        |ps| faulty(FaultKind::CpuLost, ps),
        |rt, res| {
            if !matches!(res, Ok(true)) {
                return false;
            }
            rt.reports()
                .iter()
                .position(|r| {
                    r.trace
                        .iter()
                        .any(|e| matches!(e.kind, TraceKind::NonOwnerLost { dev: 0 }))
                })
                .is_some_and(|i| i + 1 < rt.reports().len())
        },
    );
    assert!(res.unwrap());
    assert!(!rt.roster().cpu_healthy() && rt.roster().gpu_healthy());
    let lost_at = rt
        .reports()
        .iter()
        .position(|r| {
            r.trace
                .iter()
                .any(|e| matches!(e.kind, TraceKind::NonOwnerLost { dev: 0 }))
        })
        .unwrap();
    for r in &rt.reports()[lost_at + 1..] {
        let degraded = r.trace.iter().any(|e| {
            matches!(
                e.kind,
                TraceKind::DegradedRun { .. } | TraceKind::EpDegradedRun { .. }
            )
        });
        assert!(
            !degraded,
            "{}: kernels after CPU loss must co-execute on the GPUs",
            r.kernel
        );
        let owner_ran = r
            .trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::GpuWaveStart { .. }));
        let peer_ran = r
            .trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::EpSubkernelStart { dev, .. } if dev > 0));
        assert!(
            owner_ran && peer_ran,
            "{}: both surviving GPUs must execute work-groups",
            r.kernel
        );
    }
}

#[test]
fn disabling_promotion_names_the_device_that_missed_its_watchdog() {
    // Satellite regression: with promotion off, a double loss that takes
    // the owner first and a *peer GPU* last must blame the peer — the
    // typed error used to say "CPU subkernel" no matter which endpoint
    // actually missed its deadline.
    let config = |ps| {
        faulty(FaultKind::DoubleLoss, ps)
            .with_recovery(RecoveryPolicy::default().with_promote_on_owner_loss(false))
    };
    let mut saw_peer_detail = false;
    let mut saw_cpu_detail = false;
    for ps in 0..SCAN {
        let (_, res) = run3("ATAX", config(ps));
        if let Err(ClError::DeviceLost { device, detail }) = res {
            if detail.contains("missed its watchdog deadline after the GPU was already lost") {
                if detail.contains("peer GPU ep") {
                    assert_eq!(device, DeviceKind::Gpu, "a peer-blaming loss is a GPU loss");
                    saw_peer_detail = true;
                } else {
                    assert!(
                        detail.contains("CPU subkernel"),
                        "unexpected detail {detail}"
                    );
                    assert_eq!(device, DeviceKind::Cpu);
                    saw_cpu_detail = true;
                }
            }
        }
        if saw_peer_detail && saw_cpu_detail {
            return;
        }
    }
    assert!(
        saw_peer_detail,
        "no plan seed in 0..{SCAN} made a peer GPU the last watchdog victim"
    );
}

#[test]
fn promoted_runs_are_deterministic() {
    // Same plan seed, same machine: a run that promotes mid-kernel must
    // reproduce its outcome, timings and full rendered trace exactly.
    let ps = (0..SCAN)
        .find(|ps| promoted(&run3("SYRK", faulty(FaultKind::GpuLost, *ps)).0))
        .expect("some plan seed promotes");
    let (rt_a, res_a) = run3("SYRK", faulty(FaultKind::GpuLost, ps));
    let (rt_b, res_b) = run3("SYRK", faulty(FaultKind::GpuLost, ps));
    let render = |res: &ClResult<bool>| match res {
        Ok(ok) => format!("ok({ok})"),
        Err(e) => format!("err({e})"),
    };
    assert_eq!(render(&res_a), render(&res_b), "outcome differs");
    assert_eq!(rt_a.reports().len(), rt_b.reports().len());
    for (ra, rb) in rt_a.reports().iter().zip(rt_b.reports()) {
        assert_eq!(ra.duration, rb.duration, "duration differs");
        assert_eq!(
            render_timeline(&ra.kernel, &ra.trace),
            render_timeline(&rb.kernel, &rb.trace),
            "rendered traces differ"
        );
    }
}

#[test]
fn cascading_owner_losses_end_in_a_typed_error_or_a_valid_run() {
    // DoubleLoss with promotion on: the owner dies, a peer is promoted,
    // and the sticky kill verdicts keep eating survivors. Whatever the
    // interleaving, the run must end bit-identical or in a typed
    // DeviceLost — never a panic, a hang or silent corruption.
    let mut cascades = 0;
    for ps in 0..SCAN {
        let (rt, res) = run3("ATAX", faulty(FaultKind::DoubleLoss, ps));
        if promoted(&rt) {
            cascades += 1;
        }
        match res {
            Ok(ok) => assert!(ok, "plan seed {ps}: recovered run must validate"),
            Err(ClError::DeviceLost { .. }) => {}
            Err(e) => panic!("plan seed {ps}: expected DeviceLost, got {e}"),
        }
    }
    assert!(cascades > 0, "no plan seed promoted before the cascade");
}
