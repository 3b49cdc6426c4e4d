//! Protocol-trace linter: checks a co-executed kernel's [`TraceEvent`] log
//! against the FluidiCL protocol invariants.
//!
//! The co-execution engine records every protocol event with its virtual
//! timestamp (sorted chronologically, ties in processing order), so the
//! trace is a complete replayable record of one kernel's execution. Every
//! run — the paper's CPU + GPU pair or N devices — records the same
//! dev-tagged vocabulary (endpoint 0 is the CPU, 1.. are peer GPUs), and
//! one replay verifies the properties the protocol guarantees by
//! construction:
//!
//! * the owner's **watermark only decreases** between promotions, and each
//!   status reports exactly the covered suffix of the ranges delivered so
//!   far (paper §4.2 — with the CPU alone, boundaries move from the top of
//!   the NDRange downward);
//! * **data precedes status** on every endpoint's in-order link: its k-th
//!   status corresponds to its k-th send and cannot arrive before it was
//!   sent, and each send carries exactly that endpoint's next unshipped
//!   completed subkernels with the lowest start as its boundary (§4.2,
//!   §5.4);
//! * owner **waves stay below the watermark** known when they start, ascend
//!   contiguously from 0, and never run past the kernel exit (§4.2, Fig. 6);
//! * **claims come off the frontier top** (`cpu-contiguity`): with the CPU
//!   alone this is the paper's contiguous top-down subkernel descent
//!   (§4.2, Fig. 7); only ranges a recorded loss or promotion returned to
//!   the frontier may be claimed above the untouched region. Claims of
//!   live endpoints never overlap (`claim-disjoint`), every endpoint runs
//!   one subkernel at a time (`ep-pairing`), and every claim completes
//!   unless its endpoint was lost or promoted;
//! * owner-executed ranges and the delivered suffix together **cover**
//!   `[0, total)` — no work-group is lost (§4.3);
//! * exactly one **exit → merge → complete** sequence, in order (§4.3–4.4);
//!   a CPU finisher is legal only when the CPU is the sole endpoint and its
//!   descent reached work-group 0 before the merge (the §4.2 shortcut);
//! * under dirty-range transfers, every send ships exactly its **coalesced
//!   dirty payload plus the status message**; a batch of several
//!   subkernels may not appear in a serial (depth-1) trace.
//!
//! When the trace contains fault or recovery events (transfer faults,
//! rejections and timeouts, endpoint or owner losses, promotions and
//! stale-epoch rejections) the linter switches to a *recovery-aware* mode:
//! retried and resent transfers may repeat boundaries out of the strict
//! send order, a truncated trace is legal as long as it is consistent with
//! the recorded recovery (a lost endpoint may leave its killed subkernel
//! open; a lost owner finishes without exit or merge, by the survivors),
//! and a degraded single-device span replaces the co-execution shape
//! entirely. Everything that is *not* explained by a recorded recovery
//! event is still an error — faults excuse exactly the damage they cause.
//!
//! [`lint_trace`] checks a bare event log; [`lint_report`] additionally
//! cross-checks the log against the [`KernelReport`] counters. The runtime
//! calls `lint_report` after every co-executed kernel when
//! [`FluidiclConfig::validate_protocol`](crate::FluidiclConfig) is set
//! (the default in debug and test builds) and fails the enqueue with
//! [`ClError::ProtocolViolation`](fluidicl_vcl::ClError) on any error.

use std::collections::BTreeMap;
use std::fmt;

use fluidicl_des::SimTime;

use crate::frontier::Coverage;
use crate::stats::{Finisher, KernelReport};
use crate::trace::{TraceEvent, TraceKind, STATUS_MSG_BYTES};

/// How bad a lint finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintSeverity {
    /// Suspicious but not provably wrong.
    Warning,
    /// A protocol invariant is violated; results cannot be trusted.
    Error,
}

/// One finding of the protocol linter (or of the `fluidicl-check` access
/// sanitizer, which reuses the same diagnostic vocabulary).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintDiagnostic {
    /// Stable rule identifier (e.g. `watermark-monotone`).
    pub rule: &'static str,
    /// Severity of the finding.
    pub severity: LintSeverity,
    /// Human-readable description.
    pub message: String,
}

impl LintDiagnostic {
    /// Creates an error-severity diagnostic.
    pub fn error(rule: &'static str, message: impl Into<String>) -> Self {
        LintDiagnostic {
            rule,
            severity: LintSeverity::Error,
            message: message.into(),
        }
    }

    /// Creates a warning-severity diagnostic.
    pub fn warning(rule: &'static str, message: impl Into<String>) -> Self {
        LintDiagnostic {
            rule,
            severity: LintSeverity::Warning,
            message: message.into(),
        }
    }
}

impl fmt::Display for LintDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            LintSeverity::Warning => "warning",
            LintSeverity::Error => "error",
        };
        write!(f, "[{sev}] {}: {}", self.rule, self.message)
    }
}

/// One enqueued send in the replay: `(at, boundary, consumed ranges)`.
type EpSendRec = (SimTime, u64, Vec<(u64, u64)>);

/// Per-endpoint replay state.
#[derive(Default)]
struct EpReplay {
    open_sub: Option<(u64, u64)>,
    /// Completed subkernels `(at, from, to)` in completion order.
    done: Vec<(SimTime, u64, u64)>,
    /// How many completed subkernels earlier sends already carried.
    shipped: usize,
    /// Every send in enqueue order.
    sends: Vec<EpSendRec>,
    statuses: usize,
    lost: bool,
}

/// Whether `[from, to)` lies inside the union of `ranges`.
fn covered_by(ranges: &mut [(u64, u64)], from: u64, to: u64) -> bool {
    ranges.sort_unstable();
    let mut reach = from;
    for &(f, t) in ranges.iter() {
        if f > reach {
            break;
        }
        reach = reach.max(t);
        if reach >= to {
            return true;
        }
    }
    reach >= to
}

/// Reports every gap in `[0, total)` left by `ranges` under `rule`;
/// `who` names the executors in the message.
fn check_coverage(
    mut ranges: Vec<(u64, u64)>,
    total: u64,
    who: &str,
    out: &mut Vec<LintDiagnostic>,
) {
    ranges.sort_unstable();
    let mut reach = 0u64;
    for (from, to) in ranges {
        if from > reach {
            out.push(LintDiagnostic::error(
                "coverage",
                format!("work-groups {reach}..{from} were never executed by {who}"),
            ));
        }
        reach = reach.max(to);
    }
    if reach < total {
        out.push(LintDiagnostic::error(
            "coverage",
            format!("work-groups {reach}..{total} were never executed by {who}"),
        ));
    }
}

/// Lints a protocol trace. Returns every violated invariant; an empty vector
/// means the trace is a legal FluidiCL execution.
///
/// The trace must be chronologically sorted with ties in processing order —
/// exactly what the engine stores in [`KernelReport::trace`].
pub fn lint_trace(events: &[TraceEvent]) -> Vec<LintDiagnostic> {
    let mut out = Vec::new();
    let Some(first) = events.first() else {
        out.push(LintDiagnostic::error("trace-shape", "trace is empty"));
        return out;
    };
    let TraceKind::Enqueued {
        total_wgs: total,
        pipeline_depth: depth,
    } = first.kind
    else {
        out.push(LintDiagnostic::error(
            "trace-shape",
            format!(
                "first event is `{}`, expected the enqueue record",
                first.kind
            ),
        ));
        return out;
    };
    // Single-endpoint spans have their own three-event shapes: a
    // graph-scheduled node on a peer lane, or a degraded run after a
    // permanent loss.
    if events
        .iter()
        .any(|e| matches!(&e.kind, TraceKind::GraphRun { .. }))
    {
        return lint_lone_run(events, total, true, out);
    }
    if events.iter().any(|e| {
        matches!(
            &e.kind,
            TraceKind::DegradedRun { .. } | TraceKind::EpDegradedRun { .. }
        )
    }) {
        return lint_lone_run(events, total, false, out);
    }
    // Fault and recovery events switch the replay into recovery-aware mode
    // (see the module docs): retries, resends and losses excuse exactly the
    // reordering they cause (statuses may apply out of send order behind a
    // redelivery, claims may re-cover a returned range), and nothing else.
    let relaxed = events.iter().any(|e| {
        matches!(
            &e.kind,
            TraceKind::EpTransferFault { .. }
                | TraceKind::EpTransferRejected { .. }
                | TraceKind::EpTransferTimeout { .. }
                | TraceKind::NonOwnerLost { .. }
                | TraceKind::DeviceLost
                | TraceKind::OwnerPromoted { .. }
                | TraceKind::EpochRejected { .. }
        )
    });

    let mut prev_at = first.at;
    let mut eps: BTreeMap<u32, EpReplay> = BTreeMap::new();
    // All claimed ranges with their claimant, for frontier disjointness.
    let mut claims: Vec<(u64, u64, u32)> = Vec::new();
    // Top of the untouched frontier region `[0, top)`: a claim must end
    // here unless it re-claims a range a loss or promotion returned.
    let mut top = total;
    let mut lost_devs: Vec<u32> = Vec::new();
    // Owner-failover replay: every promotion hands the owner role to a
    // surviving peer, bumps the epoch, and restarts the wave walk from 0.
    let mut promotions = 0usize;
    let mut gpu_losses = 0usize;
    let mut promoted_devs: Vec<u32> = Vec::new();
    // Watermark replay: EpStatus events carry the engine's value; the
    // linter recomputes it from delivered ranges and cross-checks.
    let mut watermark = total;
    let mut coverage = Coverage::new(total);
    // Delivered-and-credited ranges per endpoint. Owner failover
    // un-credits the promoted endpoint's deliveries, so the post-promotion
    // watermark is the covered suffix of the *other* endpoints' ranges —
    // this map is what lets the replay rebuild it exactly.
    let mut applied_by_dev: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    // Owner wave replay.
    let mut expected_next = 0u64;
    let mut open_wave: Option<(u64, u64)> = None;
    let mut wave_aborted = false;
    let mut launches = 0usize;
    let mut exec_ranges: Vec<(u64, u64)> = Vec::new();
    let mut exit_at: Option<SimTime> = None;
    let mut merge_at: Option<SimTime> = None;
    let mut completes: Vec<(SimTime, Finisher)> = Vec::new();

    for e in &events[1..] {
        if e.at < prev_at {
            out.push(LintDiagnostic::error(
                "chronology",
                format!("event `{}` is timestamped before its predecessor", e.kind),
            ));
        }
        prev_at = e.at;
        let exited = exit_at.is_some();
        match &e.kind {
            TraceKind::Enqueued { .. } => {
                out.push(LintDiagnostic::error(
                    "trace-shape",
                    "duplicate enqueue record",
                ));
            }
            TraceKind::GpuLaunch => {
                launches += 1;
                // Each promotion legally relaunches the owner walk once.
                if launches > promotions + 1 {
                    out.push(LintDiagnostic::error("trace-shape", "gpu launched twice"));
                }
                if exited {
                    out.push(LintDiagnostic::error(
                        "gpu-exit",
                        "gpu launch recorded after the gpu exit",
                    ));
                }
            }
            TraceKind::GpuWaveStart { from, to } => {
                if exited {
                    out.push(LintDiagnostic::error(
                        "gpu-exit",
                        format!("wave {from}..{to} started after the gpu exit"),
                    ));
                }
                if wave_aborted {
                    out.push(LintDiagnostic::error(
                        "wave-contiguity",
                        format!("wave {from}..{to} started after an abort; the gpu must exit next"),
                    ));
                }
                if open_wave.is_some() {
                    out.push(LintDiagnostic::error(
                        "wave-contiguity",
                        format!("wave {from}..{to} started while another wave is running"),
                    ));
                }
                if *from != expected_next {
                    out.push(LintDiagnostic::error(
                        "wave-contiguity",
                        format!("wave starts at {from}, expected {expected_next}"),
                    ));
                }
                if from >= to {
                    out.push(LintDiagnostic::error(
                        "wave-bounds",
                        format!("wave {from}..{to} is empty or reversed"),
                    ));
                }
                let limit = watermark.min(total);
                if *to > limit {
                    out.push(LintDiagnostic::error(
                        "wave-bounds",
                        format!(
                            "wave {from}..{to} runs past the watermark {limit} known at its start"
                        ),
                    ));
                }
                open_wave = Some((*from, *to));
            }
            TraceKind::GpuWaveDone {
                from,
                to,
                executed_to,
            } => match open_wave.take() {
                Some((wf, wt)) if wf == *from && wt == *to => {
                    if executed_to < from || executed_to > to {
                        out.push(LintDiagnostic::error(
                            "wave-bounds",
                            format!("wave {from}..{to} reports executing up to {executed_to}"),
                        ));
                    }
                    if *executed_to > *from {
                        exec_ranges.push((*from, *executed_to));
                    }
                    expected_next = *to;
                }
                other => {
                    out.push(LintDiagnostic::error(
                        "wave-contiguity",
                        format!("wave {from}..{to} finished but {other:?} was running"),
                    ));
                }
            },
            TraceKind::GpuWaveAborted { from, to } => match open_wave.take() {
                Some((wf, wt)) if wf == *from && wt == *to => {
                    wave_aborted = true;
                    if watermark > *from {
                        out.push(LintDiagnostic::error(
                            "wave-bounds",
                            format!(
                                "wave {from}..{to} aborted although the watermark {watermark} \
                                 had not covered it"
                            ),
                        ));
                    }
                }
                other => {
                    out.push(LintDiagnostic::error(
                        "wave-contiguity",
                        format!("wave {from}..{to} aborted but {other:?} was running"),
                    ));
                }
            },
            TraceKind::GpuExit => {
                if exited {
                    out.push(LintDiagnostic::error("gpu-exit", "gpu exited twice"));
                } else {
                    if let Some((wf, wt)) = open_wave {
                        out.push(LintDiagnostic::error(
                            "gpu-exit",
                            format!("gpu exited while wave {wf}..{wt} is still running"),
                        ));
                    }
                    let limit = watermark.min(total);
                    if expected_next < limit {
                        out.push(LintDiagnostic::error(
                            "gpu-exit",
                            format!(
                                "gpu exited at work-group {expected_next}, below the \
                                 watermark {limit}"
                            ),
                        ));
                    }
                    exit_at = Some(e.at);
                }
            }
            TraceKind::MergeDone => {
                if merge_at.is_some() {
                    out.push(LintDiagnostic::error("merge", "diff-merge completed twice"));
                } else {
                    if exit_at.is_none() {
                        out.push(LintDiagnostic::error(
                            "merge",
                            "diff-merge completed before the gpu exited",
                        ));
                    }
                    merge_at = Some(e.at);
                }
            }
            TraceKind::EpSubkernelStart { dev, from, to, .. } => {
                if exited {
                    out.push(LintDiagnostic::error(
                        "ep-pairing",
                        format!("ep{dev} subkernel {from}..{to} started after the gpu exit"),
                    ));
                }
                if from >= to || *to > total {
                    out.push(LintDiagnostic::error(
                        "cpu-contiguity",
                        format!("ep{dev} subkernel {from}..{to} is empty, reversed or oversized"),
                    ));
                } else if *to == top {
                    top = *from;
                } else {
                    // Above the untouched region only returned ranges are
                    // claimable: those of an endpoint that was lost or
                    // promoted (a superset of what the engine returned —
                    // delivered ranges of a lost endpoint stay claimed,
                    // and `claim-disjoint` catches a re-claim of those).
                    let mut returned: Vec<(u64, u64)> = claims
                        .iter()
                        .filter(|(_, _, c)| lost_devs.contains(c) || promoted_devs.contains(c))
                        .map(|&(f, t, _)| (f, t))
                        .collect();
                    if *to > top && covered_by(&mut returned, (*from).max(top), *to) {
                        top = top.min(*from);
                    } else {
                        out.push(LintDiagnostic::error(
                            "cpu-contiguity",
                            format!(
                                "ep{dev} subkernel {from}..{to} breaks the descent; expected \
                                 it to end at the frontier top {top}"
                            ),
                        ));
                    }
                }
                let ep = eps.entry(*dev).or_default();
                if ep.open_sub.is_some() {
                    out.push(LintDiagnostic::error(
                        "ep-pairing",
                        format!(
                            "ep{dev} subkernel {from}..{to} started while another is running \
                             on the same endpoint"
                        ),
                    ));
                }
                ep.open_sub = Some((*from, *to));
                if promoted_devs.contains(dev) {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        format!(
                            "ep{dev} subkernel {from}..{to} started after its promotion to owner"
                        ),
                    ));
                }
                // Frontier disjointness: a claim may only overlap a range a
                // *lost* or *promoted* endpoint claimed — the frontier
                // returned it (promotion re-enqueues un-acked claims).
                for (cf, ct, cdev) in &claims {
                    if from < ct
                        && cf < to
                        && !lost_devs.contains(cdev)
                        && !promoted_devs.contains(cdev)
                    {
                        out.push(LintDiagnostic::error(
                            "claim-disjoint",
                            format!(
                                "ep{dev} claim {from}..{to} overlaps ep{cdev} claim {cf}..{ct} \
                                 although ep{cdev} was never lost"
                            ),
                        ));
                    }
                }
                claims.push((*from, *to, *dev));
            }
            TraceKind::EpSubkernelDone { dev, from, to } => {
                let ep = eps.entry(*dev).or_default();
                match ep.open_sub.take() {
                    Some((sf, st)) if sf == *from && st == *to => {
                        ep.done.push((e.at, *from, *to));
                    }
                    other => {
                        out.push(LintDiagnostic::error(
                            "ep-pairing",
                            format!(
                                "ep{dev} subkernel {from}..{to} finished but {other:?} was \
                                 running on that endpoint"
                            ),
                        ));
                    }
                }
            }
            TraceKind::EpSend {
                dev,
                boundary,
                bytes,
                dirty_bytes,
                subkernels,
            } => {
                if exited {
                    out.push(LintDiagnostic::error(
                        "data-before-status",
                        format!(
                            "ep{dev} transfer (boundary {boundary}) enqueued after the gpu exit"
                        ),
                    ));
                }
                if promoted_devs.contains(dev) {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        format!(
                            "ep{dev} transfer (boundary {boundary}) enqueued after its \
                             promotion to owner"
                        ),
                    ));
                }
                if *subkernels == 0 {
                    out.push(LintDiagnostic::error(
                        "data-before-status",
                        format!("ep{dev} transfer (boundary {boundary}) carries no subkernels"),
                    ));
                }
                // A batch exists precisely because several copies queued up
                // behind a busy link, which a serial trace never allows.
                if *subkernels > 1 && depth <= 1 {
                    out.push(LintDiagnostic::error(
                        "coalesced-send",
                        format!(
                            "ep{dev} batch of {subkernels} subkernels in a serial trace \
                             (pipeline depth {depth})"
                        ),
                    ));
                }
                if let Some(d) = dirty_bytes {
                    if *bytes != d + STATUS_MSG_BYTES {
                        out.push(LintDiagnostic::error(
                            "transfer-bytes",
                            format!(
                                "ep{dev} transfer (boundary {boundary}) ships {bytes} B but its \
                                 dirty payload is {d} B + {STATUS_MSG_BYTES} B status"
                            ),
                        ));
                    }
                }
                let ep = eps.entry(*dev).or_default();
                let batch = *subkernels as usize;
                if relaxed {
                    // Resends repeat already-shipped ranges; the surviving
                    // invariant is that the boundary names one of this
                    // endpoint's completed subkernels.
                    if !ep.done.iter().any(|(_, f, _)| f == boundary) {
                        out.push(LintDiagnostic::error(
                            "data-before-status",
                            format!(
                                "ep{dev} transfer carries boundary {boundary} but no completed \
                                 subkernel of that endpoint starts there"
                            ),
                        ));
                    }
                    // Reconstruct the batch for the credit ledger: a send
                    // (and any resend of it) carries a consecutive
                    // completion-order window of this endpoint's done
                    // subkernels whose lowest start is the boundary.
                    let consumed: Vec<(u64, u64)> = if batch == 0 || batch > ep.done.len() {
                        Vec::new()
                    } else {
                        (0..=ep.done.len() - batch)
                            .map(|i| &ep.done[i..i + batch])
                            .find(|w| {
                                w.iter().all(|(at, _, _)| *at <= e.at)
                                    && w.iter().map(|(_, f, _)| *f).min() == Some(*boundary)
                            })
                            .map(|w| w.iter().map(|(_, f, t)| (*f, *t)).collect())
                            .unwrap_or_default()
                    };
                    ep.sends.push((e.at, *boundary, consumed));
                } else {
                    // Fault-free shipping consumes this endpoint's completed
                    // subkernels strictly in completion order; the boundary
                    // is the lowest start in the batch.
                    let end = ep.shipped + batch;
                    if end > ep.done.len() {
                        out.push(LintDiagnostic::error(
                            "data-before-status",
                            format!(
                                "ep{dev} batch of {batch} (boundary {boundary}) outruns the \
                                 {} completed subkernels of that endpoint",
                                ep.done.len()
                            ),
                        ));
                        ep.sends.push((e.at, *boundary, Vec::new()));
                    } else {
                        let consumed: Vec<(u64, u64)> = ep.done[ep.shipped..end]
                            .iter()
                            .map(|(_, f, t)| (*f, *t))
                            .collect();
                        let lowest = consumed.iter().map(|(f, _)| *f).min().unwrap_or(total);
                        if lowest != *boundary {
                            out.push(LintDiagnostic::error(
                                "data-before-status",
                                format!(
                                    "ep{dev} batch of {batch} carries boundary {boundary} but \
                                     its lowest subkernel starts at {lowest}"
                                ),
                            ));
                        }
                        ep.sends.push((e.at, *boundary, consumed));
                        ep.shipped = end;
                    }
                }
            }
            TraceKind::EpStatus {
                dev,
                boundary,
                watermark: wm,
            } => {
                if exited {
                    out.push(LintDiagnostic::error(
                        "gpu-exit",
                        format!("ep{dev} status (boundary {boundary}) arrived after the gpu exit"),
                    ));
                }
                if *wm > watermark {
                    out.push(LintDiagnostic::error(
                        "watermark-monotone",
                        format!("watermark rose from {watermark} to {wm}"),
                    ));
                }
                let ep = eps.entry(*dev).or_default();
                if relaxed {
                    // Failed sends produce no status and resends duplicate
                    // boundaries, so index pairing no longer holds. The
                    // surviving invariant: every accepted status follows a
                    // transfer of its endpoint that carried its boundary.
                    match ep
                        .sends
                        .iter()
                        .find(|(sent_at, b, _)| b == boundary && *sent_at <= e.at)
                    {
                        None => out.push(LintDiagnostic::error(
                            "data-before-status",
                            format!(
                                "ep{dev} status (boundary {boundary}) arrived without a prior \
                                 transfer carrying it"
                            ),
                        )),
                        Some((_, _, ranges)) => {
                            // A retry re-ships the same subkernels, so any
                            // send matching the boundary carries the same
                            // ranges — good enough for the credit ledger.
                            let credited = applied_by_dev.entry(*dev).or_default();
                            for &(f, t) in ranges {
                                if f < t && t <= total {
                                    credited.push((f, t));
                                }
                            }
                        }
                    }
                } else {
                    match ep.sends.get(ep.statuses) {
                        None => out.push(LintDiagnostic::error(
                            "data-before-status",
                            format!(
                                "ep{dev} status (boundary {boundary}) arrived without a \
                                 matching enqueued transfer"
                            ),
                        )),
                        Some((sent_at, sent_boundary, ranges)) => {
                            if sent_boundary != boundary {
                                out.push(LintDiagnostic::error(
                                    "data-before-status",
                                    format!(
                                        "ep{dev} status boundary {boundary} does not match its \
                                         in-order queue (transfer {} carried {sent_boundary})",
                                        ep.statuses
                                    ),
                                ));
                            }
                            if e.at < *sent_at {
                                out.push(LintDiagnostic::error(
                                    "data-before-status",
                                    format!(
                                        "ep{dev} status (boundary {boundary}) arrived before \
                                         it was sent"
                                    ),
                                ));
                            }
                            let credited = applied_by_dev.entry(*dev).or_default();
                            for (f, t) in ranges {
                                // Out-of-bounds ranges were already reported
                                // at their claim; never feed them to the
                                // coverage set (its bounds are asserted).
                                if f < t && *t <= total {
                                    coverage.add(*f, *t);
                                    credited.push((*f, *t));
                                }
                            }
                            let suffix = coverage.suffix_start();
                            if *wm != suffix {
                                out.push(LintDiagnostic::error(
                                    "watermark-monotone",
                                    format!(
                                        "ep{dev} status reports watermark {wm} but the \
                                         delivered ranges put the covered suffix at {suffix}"
                                    ),
                                ));
                            }
                        }
                    }
                }
                ep.statuses += 1;
                watermark = watermark.min(*wm);
            }
            TraceKind::EpTransferFault { dev, boundary, .. }
            | TraceKind::EpTransferRejected { dev, boundary }
            | TraceKind::EpTransferTimeout { dev, boundary } => {
                let ep = eps.entry(*dev).or_default();
                if !ep.sends.iter().any(|(_, b, _)| b == boundary) {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        format!(
                            "ep{dev} transfer fault reported for boundary {boundary} but no \
                             enqueued transfer of that endpoint carried it"
                        ),
                    ));
                }
            }
            TraceKind::NonOwnerLost { dev } => {
                let ep = eps.entry(*dev).or_default();
                if ep.lost {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        format!("ep{dev} was declared lost twice"),
                    ));
                }
                ep.lost = true;
                lost_devs.push(*dev);
            }
            TraceKind::OwnerPromoted { dev, epoch } => {
                if promotions >= gpu_losses {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        format!("ep{dev} promoted although the acting owner was not lost"),
                    ));
                }
                if *epoch as usize != promotions + 1 {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        format!(
                            "ep{dev} promoted to epoch {epoch}, expected epoch {} (epochs are \
                             strictly sequential)",
                            promotions + 1
                        ),
                    ));
                }
                if lost_devs.contains(dev) || promoted_devs.contains(dev) {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        format!("ep{dev} promoted although it is lost or already the owner"),
                    ));
                }
                promotions += 1;
                promoted_devs.push(*dev);
                // The new owner resumes the wave walk from work-group 0.
                expected_next = 0;
                wave_aborted = false;
                // Promotion un-credits the promoted endpoint's delivered
                // ranges (they leave coverage and return to the frontier
                // for the survivors), so the engine's watermark may legally
                // rise here: rebuild it as the covered suffix of the other
                // endpoints' still-credited deliveries.
                applied_by_dev.remove(dev);
                let mut rebuilt = Coverage::new(total);
                for ranges in applied_by_dev.values() {
                    for &(f, t) in ranges {
                        rebuilt.add(f, t);
                    }
                }
                watermark = rebuilt.suffix_start();
                coverage = rebuilt;
            }
            TraceKind::EpochRejected { dev, boundary } => {
                if promotions == 0 {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        format!(
                            "ep{dev} status (boundary {boundary}) rejected as stale although \
                             no promotion occurred"
                        ),
                    ));
                }
                let ep = eps.entry(*dev).or_default();
                if !ep.sends.iter().any(|(_, b, _)| b == boundary) {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        format!(
                            "ep{dev} stale-epoch rejection for boundary {boundary} but no \
                             enqueued transfer of that endpoint carried it"
                        ),
                    ));
                }
            }
            TraceKind::DeviceLost => {
                // A second owner loss is legal only when a promotion
                // installed a new owner in between (cascading failover).
                if gpu_losses > promotions {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        "device Gpu was declared lost twice",
                    ));
                }
                gpu_losses += 1;
                // The acting owner died mid-walk: its running wave is
                // abandoned, never completed.
                open_wave = None;
            }
            TraceKind::KernelComplete { finisher } => {
                completes.push((e.at, *finisher));
            }
            // Lone-run spans were dispatched to `lint_lone_run` above.
            TraceKind::GraphRun { .. }
            | TraceKind::DegradedRun { .. }
            | TraceKind::EpDegradedRun { .. } => unreachable!("dispatched to lint_lone_run"),
        }
    }

    if launches == 0 && total > 0 {
        out.push(LintDiagnostic::error(
            "trace-shape",
            "gpu was never launched",
        ));
    }
    for (dev, ep) in &eps {
        if let Some((sf, st)) = ep.open_sub {
            // A lost endpoint legally leaves exactly its killed subkernel
            // open, and so does a promoted one (its in-flight subkernel is
            // abandoned when it takes the owner role); any other claim must
            // be carried to completion.
            if !ep.lost && !promoted_devs.contains(dev) {
                out.push(LintDiagnostic::error(
                    "cpu-contiguity",
                    format!("ep{dev} subkernel {sf}..{st} never completed"),
                ));
            }
        }
    }
    let all_done = || eps.values().flat_map(|ep| ep.done.iter().copied());
    // The owner-lost endgame applies only when the *final* acting owner is
    // dead — a promotion that installed a healthy new owner means the
    // kernel still exits, merges and completes through the owner role.
    if gpu_losses > promotions {
        // A lost owner never exits and never merges; the non-owners finish
        // the whole NDRange among themselves and the host assembles.
        if exit_at.is_some() {
            out.push(LintDiagnostic::error(
                "recovery",
                "gpu exited although it was declared lost",
            ));
        }
        if merge_at.is_some() {
            out.push(LintDiagnostic::error(
                "recovery",
                "diff-merge completed although the gpu was lost",
            ));
        }
        match completes.as_slice() {
            [(at, Finisher::Cpu)] => {
                if !all_done().any(|(t, _, _)| t == *at) {
                    out.push(LintDiagnostic::error(
                        "completion",
                        "cpu finisher without any subkernel completing at that time",
                    ));
                }
            }
            [(_, Finisher::Gpu)] => out.push(LintDiagnostic::error(
                "completion",
                "a kernel whose gpu was lost cannot be finished by the gpu",
            )),
            [] => out.push(LintDiagnostic::error(
                "completion",
                "kernel never completed",
            )),
            _ => out.push(LintDiagnostic::error(
                "completion",
                "kernel completed more than once",
            )),
        }
        let covered = all_done().map(|(_, f, t)| (f, t)).collect();
        check_coverage(covered, total, "any survivor", &mut out);
        return out;
    }
    if let Some((wf, wt)) = open_wave {
        if exit_at.is_none() {
            out.push(LintDiagnostic::error(
                "gpu-exit",
                format!("wave {wf}..{wt} never completed and the gpu never exited"),
            ));
        }
    }
    let Some(exit) = exit_at else {
        out.push(LintDiagnostic::error("gpu-exit", "gpu never exited"));
        return out;
    };
    let Some(merge) = merge_at else {
        out.push(LintDiagnostic::error("merge", "diff-merge never completed"));
        return out;
    };
    if merge < exit {
        out.push(LintDiagnostic::error(
            "merge",
            "diff-merge completed before the gpu exit",
        ));
    }
    match completes.as_slice() {
        [(at, Finisher::Gpu)] => {
            if *at != merge {
                out.push(LintDiagnostic::error(
                    "completion",
                    "gpu-finished kernel must complete exactly at merge time",
                ));
            }
        }
        // The §4.2 shortcut: a CPU that is the sole endpoint and reached
        // work-group 0 before the merge holds the authoritative data. With
        // peers the final data only ever exists assembled on the owner.
        [(at, Finisher::Cpu)] => {
            if eps.keys().any(|dev| *dev != 0) {
                out.push(LintDiagnostic::error(
                    "completion",
                    "a kernel with peer endpoints and a healthy owner must be finished by the gpu",
                ));
            }
            if *at >= merge {
                out.push(LintDiagnostic::error(
                    "completion",
                    "cpu-finished kernel must complete strictly before the merge",
                ));
            }
            let reached_zero = eps
                .get(&0)
                .is_some_and(|ep| ep.done.iter().any(|(t, f, _)| *f == 0 && t == at));
            if !reached_zero {
                out.push(LintDiagnostic::error(
                    "completion",
                    "cpu finisher without a subkernel reaching work-group 0 at that time",
                ));
            }
        }
        [] => out.push(LintDiagnostic::error(
            "completion",
            "kernel never completed",
        )),
        _ => out.push(LintDiagnostic::error(
            "completion",
            "kernel completed more than once",
        )),
    }

    // Coverage: the owner's executed ranges plus the delivered suffix
    // [watermark, total) must cover every work-group (delivered islands
    // below the watermark are re-executed by the owner — duplicated, never
    // lost).
    let mut covered = exec_ranges;
    if watermark < total {
        covered.push((watermark, total));
    }
    check_coverage(covered, total, "any device", &mut out);
    out
}

/// Lints a lone-run trace, `[Enqueued, span, KernelComplete]`: one device
/// ran the whole NDRange alone — a degraded run after a permanent loss
/// (`graph == false`), or a graph-scheduled node on a peer lane while its
/// siblings used the other devices (`with_graph_scheduling`). No
/// co-execution machinery (waves, subkernels, transfers) may appear, the
/// spans must cover `[0, total)`, and a graph node's spans must all name
/// one endpoint (a node never migrates mid-flush).
fn lint_lone_run(
    events: &[TraceEvent],
    total: u64,
    graph: bool,
    mut out: Vec<LintDiagnostic>,
) -> Vec<LintDiagnostic> {
    let (rule, what, who) = if graph {
        ("graph-shape", "graph-run", "the node's endpoint")
    } else {
        ("degraded-shape", "degraded", "the survivor")
    };
    let mut prev_at = events[0].at;
    let mut spans: Vec<(u64, u64)> = Vec::new();
    let mut devs: Vec<u32> = Vec::new();
    let mut completes = 0usize;
    for e in &events[1..] {
        if e.at < prev_at {
            out.push(LintDiagnostic::error(
                "chronology",
                format!("event `{}` is timestamped before its predecessor", e.kind),
            ));
        }
        prev_at = e.at;
        let span = match e.kind {
            TraceKind::GraphRun { dev, from, to, .. } if graph => Some((dev, from, to)),
            TraceKind::EpDegradedRun { dev, from, to } if !graph => Some((dev, from, to)),
            TraceKind::DegradedRun { from, to } if !graph => Some((0, from, to)),
            TraceKind::KernelComplete { .. } => {
                completes += 1;
                continue;
            }
            TraceKind::DeviceLost if !graph => continue,
            _ => None,
        };
        let Some((dev, from, to)) = span else {
            out.push(LintDiagnostic::error(
                rule,
                format!("event `{}` has no place in a {what} trace", e.kind),
            ));
            continue;
        };
        if from >= to {
            out.push(LintDiagnostic::error(
                rule,
                format!("{what} span {from}..{to} is empty or reversed"),
            ));
        }
        spans.push((from, to));
        devs.push(dev);
    }
    if completes != 1 {
        out.push(LintDiagnostic::error(
            "completion",
            format!("{what} trace completed {completes} times, expected exactly once"),
        ));
    }
    devs.dedup();
    if graph && devs.len() > 1 {
        out.push(LintDiagnostic::error(
            rule,
            "one graph node ran on more than one endpoint",
        ));
    }
    check_coverage(spans, total, who, &mut out);
    out
}

/// Lints a kernel report: runs [`lint_trace`] on its trace and cross-checks
/// the report counters against what the trace records.
pub fn lint_report(report: &KernelReport) -> Vec<LintDiagnostic> {
    let mut out = lint_trace(&report.trace);
    let mut gpu_executed = 0u64;
    let mut cpu_executed = 0u64;
    let mut peer_executed = 0u64;
    let mut subkernel_starts = 0u64;
    let mut trace_hd_bytes = 0u64;
    let mut final_watermark = report.total_wgs;
    let mut complete: Option<(SimTime, Finisher)> = None;
    let mut trace_total: Option<u64> = None;
    let mut device_lost = false;
    for e in &report.trace {
        match &e.kind {
            TraceKind::Enqueued { total_wgs, .. } => {
                trace_total.get_or_insert(*total_wgs);
                if e.at != report.enqueued_at {
                    out.push(LintDiagnostic::error(
                        "report-consistency",
                        "trace enqueue time differs from the report",
                    ));
                }
            }
            TraceKind::GpuWaveDone {
                from, executed_to, ..
            } => gpu_executed += executed_to.saturating_sub(*from),
            TraceKind::KernelComplete { finisher } => complete = Some((e.at, *finisher)),
            TraceKind::DegradedRun { from, to } => gpu_executed += to - from,
            TraceKind::DeviceLost | TraceKind::NonOwnerLost { .. } => device_lost = true,
            TraceKind::EpSubkernelStart { .. } => subkernel_starts += 1,
            TraceKind::EpSubkernelDone { dev, from, to }
            | TraceKind::EpDegradedRun { dev, from, to } => {
                if *dev == 0 {
                    cpu_executed += to - from;
                } else {
                    peer_executed += to - from;
                }
            }
            TraceKind::EpSend { bytes, .. } => trace_hd_bytes += bytes,
            TraceKind::EpStatus { watermark, .. } => {
                final_watermark = final_watermark.min(*watermark);
            }
            TraceKind::GraphRun { from, to, .. } => peer_executed += to - from,
            _ => {}
        }
    }
    let mut mismatch = |what: &str, trace_v: u64, report_v: u64| {
        if trace_v != report_v {
            out.push(LintDiagnostic::error(
                "report-consistency",
                format!("trace shows {trace_v} {what}, report claims {report_v}"),
            ));
        }
    };
    mismatch(
        "total work-groups",
        trace_total.unwrap_or(report.total_wgs),
        report.total_wgs,
    );
    mismatch(
        "gpu-executed work-groups",
        gpu_executed,
        report.gpu_executed_wgs,
    );
    mismatch(
        "cpu-executed work-groups",
        cpu_executed,
        report.cpu_executed_wgs,
    );
    mismatch(
        "peer-executed work-groups",
        peer_executed,
        report.peer_executed_wgs.iter().sum(),
    );
    mismatch("subkernels", subkernel_starts, report.subkernels);
    mismatch("hd bytes", trace_hd_bytes, report.hd_bytes);
    // After a device loss the merged region is decoupled from the
    // watermark (a lost GPU merges nothing at all), so the watermark
    // cross-check only holds for fault-free and transfer-fault runs. With
    // the CPU as the sole endpoint the merged region is exactly the
    // delivered suffix; with peers, delivered islands below the final
    // watermark also merge, so the watermark bounds the merged count from
    // below and the endpoints' executed total bounds it from above.
    if !device_lost {
        let suffix = report.total_wgs - final_watermark;
        if report.peer_executed_wgs.is_empty() {
            mismatch("cpu-merged work-groups", suffix, report.cpu_merged_wgs);
        } else {
            if report.cpu_merged_wgs < suffix {
                out.push(LintDiagnostic::error(
                    "report-consistency",
                    format!(
                        "report merges {} work-groups but the delivered suffix alone covers {suffix}",
                        report.cpu_merged_wgs
                    ),
                ));
            }
            if report.cpu_merged_wgs > cpu_executed + peer_executed {
                out.push(LintDiagnostic::error(
                    "report-consistency",
                    format!(
                        "report merges {} work-groups but the endpoints only executed {}",
                        report.cpu_merged_wgs,
                        cpu_executed + peer_executed
                    ),
                ));
            }
        }
    }
    if let Some((at, finisher)) = complete {
        if at != report.complete_at || finisher != report.finished_by {
            out.push(LintDiagnostic::error(
                "report-consistency",
                "trace completion event disagrees with the report",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidicl_des::SimTime;

    fn ev(ns: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_nanos(ns),
            kind,
        }
    }

    fn start(dev: u32, from: u64, to: u64) -> TraceKind {
        TraceKind::EpSubkernelStart {
            dev,
            from,
            to,
            version: 0,
        }
    }

    fn done(dev: u32, from: u64, to: u64) -> TraceKind {
        TraceKind::EpSubkernelDone { dev, from, to }
    }

    fn send(dev: u32, boundary: u64) -> TraceKind {
        TraceKind::EpSend {
            dev,
            boundary,
            bytes: 64,
            dirty_bytes: None,
            subkernels: 1,
        }
    }

    fn status(dev: u32, boundary: u64, watermark: u64) -> TraceKind {
        TraceKind::EpStatus {
            dev,
            boundary,
            watermark,
        }
    }

    fn enqueued(total_wgs: u64) -> TraceKind {
        TraceKind::Enqueued {
            total_wgs,
            pipeline_depth: 1,
        }
    }

    fn complete(finisher: Finisher) -> TraceKind {
        TraceKind::KernelComplete { finisher }
    }

    fn wave_done(from: u64, to: u64, executed_to: u64) -> TraceKind {
        TraceKind::GpuWaveDone {
            from,
            to,
            executed_to,
        }
    }

    /// A legal co-execution over 4 work-groups: the CPU takes the top two
    /// one at a time, the first status arrives in time, the second never
    /// does (its transfer is in flight when the GPU exits).
    fn legal_trace() -> Vec<TraceEvent> {
        vec![
            ev(0, enqueued(4)),
            ev(5, start(0, 3, 4)),
            ev(10, TraceKind::GpuLaunch),
            ev(10, TraceKind::GpuWaveStart { from: 0, to: 2 }),
            ev(20, done(0, 3, 4)),
            ev(25, send(0, 3)),
            ev(25, start(0, 2, 3)),
            ev(30, wave_done(0, 2, 2)),
            ev(30, TraceKind::GpuWaveStart { from: 2, to: 4 }),
            ev(35, status(0, 3, 3)),
            ev(38, done(0, 2, 3)),
            ev(39, send(0, 2)),
            ev(40, wave_done(2, 4, 3)),
            ev(40, TraceKind::GpuExit),
            ev(45, TraceKind::MergeDone),
            ev(45, complete(Finisher::Gpu)),
        ]
    }

    #[test]
    fn legal_trace_is_clean() {
        assert_eq!(lint_trace(&legal_trace()), vec![]);
    }

    #[test]
    fn empty_trace_is_flagged() {
        assert!(lint_trace(&[]).iter().any(|d| d.rule == "trace-shape"));
    }

    #[test]
    fn missing_enqueue_record_is_flagged() {
        let t = &legal_trace()[1..];
        assert!(lint_trace(t).iter().any(|d| d.rule == "trace-shape"));
    }

    #[test]
    fn rising_watermark_is_flagged() {
        let mut t = legal_trace();
        // The status claims a watermark above the current one (4).
        for e in &mut t {
            if let TraceKind::EpStatus {
                boundary,
                watermark,
                ..
            } = &mut e.kind
            {
                *boundary = 5;
                *watermark = 5;
            }
        }
        let diags = lint_trace(&t);
        assert!(
            diags.iter().any(|d| d.rule == "watermark-monotone"),
            "{diags:?}"
        );
    }

    #[test]
    fn status_without_transfer_is_flagged() {
        let mut t = legal_trace();
        t.retain(|e| !matches!(e.kind, TraceKind::EpSend { .. }));
        let diags = lint_trace(&t);
        assert!(
            diags.iter().any(|d| d.rule == "data-before-status"),
            "{diags:?}"
        );
    }

    #[test]
    fn status_faster_than_its_data_is_flagged() {
        let mut t = legal_trace();
        for e in &mut t {
            if matches!(e.kind, TraceKind::EpStatus { .. }) {
                e.at = SimTime::from_nanos(24); // before the 25ns send
            }
        }
        t.sort_by_key(|e| e.at);
        let diags = lint_trace(&t);
        assert!(
            diags.iter().any(|d| d.rule == "data-before-status"),
            "{diags:?}"
        );
    }

    #[test]
    fn wave_past_watermark_is_flagged() {
        let mut t = legal_trace();
        // Deliver the status before the second wave starts: the 2..4 wave
        // then runs past the watermark 3 known at its start.
        for e in &mut t {
            if matches!(e.kind, TraceKind::EpStatus { .. }) {
                e.at = SimTime::from_nanos(28);
            }
        }
        t.sort_by_key(|e| e.at);
        let diags = lint_trace(&t);
        assert!(diags.iter().any(|d| d.rule == "wave-bounds"), "{diags:?}");
    }

    #[test]
    fn missing_wave_leaves_a_coverage_gap() {
        let mut t = legal_trace();
        t.retain(|e| {
            !matches!(
                e.kind,
                TraceKind::GpuWaveStart { from: 0, .. } | TraceKind::GpuWaveDone { from: 0, .. }
            )
        });
        let diags = lint_trace(&t);
        assert!(diags.iter().any(|d| d.rule == "coverage"), "{diags:?}");
        assert!(
            diags.iter().any(|d| d.rule == "wave-contiguity"),
            "{diags:?}"
        );
    }

    #[test]
    fn merge_before_exit_is_flagged() {
        let mut t = legal_trace();
        for e in &mut t {
            if matches!(e.kind, TraceKind::MergeDone) {
                e.at = SimTime::from_nanos(39);
            }
        }
        t.sort_by_key(|e| e.at);
        let diags = lint_trace(&t);
        assert!(diags.iter().any(|d| d.rule == "merge"), "{diags:?}");
    }

    #[test]
    fn missing_merge_is_flagged() {
        let mut t = legal_trace();
        t.retain(|e| !matches!(e.kind, TraceKind::MergeDone));
        let diags = lint_trace(&t);
        assert!(diags.iter().any(|d| d.rule == "merge"), "{diags:?}");
    }

    #[test]
    fn non_contiguous_subkernels_are_flagged() {
        let mut t = legal_trace();
        for e in &mut t {
            if let TraceKind::EpSubkernelStart { from, to, .. } = &mut e.kind {
                if *to == 3 {
                    // Second subkernel skips a work-group: 1..2 instead of 2..3.
                    *from = 1;
                    *to = 2;
                }
            }
        }
        let diags = lint_trace(&t);
        assert!(
            diags.iter().any(|d| d.rule == "cpu-contiguity"),
            "{diags:?}"
        );
    }

    #[test]
    fn double_completion_is_flagged() {
        let mut t = legal_trace();
        t.push(ev(50, complete(Finisher::Gpu)));
        let diags = lint_trace(&t);
        assert!(diags.iter().any(|d| d.rule == "completion"), "{diags:?}");
    }

    #[test]
    fn unsorted_trace_is_flagged() {
        let mut t = legal_trace();
        t.swap(3, 12);
        let diags = lint_trace(&t);
        assert!(diags.iter().any(|d| d.rule == "chronology"), "{diags:?}");
    }

    #[test]
    fn cpu_finisher_requires_reaching_zero() {
        let mut t = legal_trace();
        for e in &mut t {
            if let TraceKind::KernelComplete { finisher } = &mut e.kind {
                *finisher = Finisher::Cpu;
            }
        }
        let diags = lint_trace(&t);
        assert!(diags.iter().any(|d| d.rule == "completion"), "{diags:?}");
    }

    /// The §4.2 shortcut: the sole endpoint descends to work-group 0 while
    /// the GPU is still in its first wave, so the CPU finishes the kernel
    /// before the merge.
    fn cpu_finish_trace() -> Vec<TraceEvent> {
        vec![
            ev(0, enqueued(2)),
            ev(5, start(0, 1, 2)),
            ev(10, TraceKind::GpuLaunch),
            ev(10, TraceKind::GpuWaveStart { from: 0, to: 1 }),
            ev(12, done(0, 1, 2)),
            ev(12, send(0, 1)),
            ev(12, start(0, 0, 1)),
            ev(15, status(0, 1, 1)),
            ev(18, done(0, 0, 1)),
            ev(18, complete(Finisher::Cpu)),
            ev(20, send(0, 0)),
            ev(40, wave_done(0, 1, 1)),
            ev(40, TraceKind::GpuExit),
            ev(45, TraceKind::MergeDone),
        ]
    }

    #[test]
    fn sole_cpu_reaching_zero_may_finish_first() {
        assert_eq!(lint_trace(&cpu_finish_trace()), vec![]);
    }

    #[test]
    fn cpu_finisher_is_illegal_with_peer_endpoints() {
        // The same shape with a peer endpoint that died before claiming
        // anything: with peers the data only exists assembled on the owner.
        let mut t = cpu_finish_trace();
        t.insert(1, ev(1, TraceKind::NonOwnerLost { dev: 1 }));
        let diags = lint_trace(&t);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "completion" && d.message.contains("peer endpoints")),
            "{diags:?}"
        );
    }

    #[test]
    fn consistent_dirty_byte_accounting_is_clean() {
        let mut t = legal_trace();
        for e in &mut t {
            if let TraceKind::EpSend {
                bytes, dirty_bytes, ..
            } = &mut e.kind
            {
                *dirty_bytes = Some(48);
                *bytes = 48 + STATUS_MSG_BYTES;
            }
        }
        assert_eq!(lint_trace(&t), vec![]);
    }

    #[test]
    fn over_shipped_transfer_is_flagged() {
        let mut t = legal_trace();
        for e in &mut t {
            if let TraceKind::EpSend {
                bytes, dirty_bytes, ..
            } = &mut e.kind
            {
                // Claims 32 dirty bytes but ships a 64 B payload.
                *dirty_bytes = Some(32);
                *bytes = 64 + STATUS_MSG_BYTES;
            }
        }
        let diags = lint_trace(&t);
        assert!(
            diags.iter().any(|d| d.rule == "transfer-bytes"),
            "{diags:?}"
        );
    }

    #[test]
    fn batch_in_a_serial_trace_is_flagged() {
        let mut t = legal_trace();
        for e in &mut t {
            if let TraceKind::EpSend { subkernels, .. } = &mut e.kind {
                *subkernels = 2;
            }
        }
        let diags = lint_trace(&t);
        assert!(
            diags.iter().any(|d| d.rule == "coalesced-send"),
            "{diags:?}"
        );
    }

    /// A legal GPU-loss recovery over 4 work-groups: the first wave is
    /// killed (never completes), the CPU keeps descending to work-group 0
    /// and finishes the kernel alone — no exit, no merge.
    fn gpu_loss_trace() -> Vec<TraceEvent> {
        vec![
            ev(0, enqueued(4)),
            ev(5, start(0, 3, 4)),
            ev(10, TraceKind::GpuLaunch),
            ev(10, TraceKind::GpuWaveStart { from: 0, to: 2 }),
            ev(20, done(0, 3, 4)),
            ev(25, send(0, 3)),
            ev(25, start(0, 2, 3)),
            ev(35, status(0, 3, 3)),
            ev(38, done(0, 2, 3)),
            ev(39, send(0, 2)),
            ev(39, start(0, 1, 2)),
            ev(45, done(0, 1, 2)),
            ev(46, start(0, 0, 1)),
            ev(50, TraceKind::DeviceLost),
            ev(52, done(0, 0, 1)),
            ev(52, complete(Finisher::Cpu)),
        ]
    }

    #[test]
    fn gpu_loss_recovery_trace_is_legal() {
        assert_eq!(lint_trace(&gpu_loss_trace()), vec![]);
    }

    #[test]
    fn gpu_finisher_after_gpu_loss_is_flagged() {
        let mut t = gpu_loss_trace();
        for e in &mut t {
            if let TraceKind::KernelComplete { finisher } = &mut e.kind {
                *finisher = Finisher::Gpu;
            }
        }
        let diags = lint_trace(&t);
        assert!(diags.iter().any(|d| d.rule == "completion"), "{diags:?}");
    }

    #[test]
    fn gpu_loss_with_incomplete_cpu_descent_is_flagged() {
        let mut t = gpu_loss_trace();
        // Drop the final 0..1 subkernel: nobody executed work-group 0.
        t.retain(|e| {
            !matches!(
                e.kind,
                TraceKind::EpSubkernelStart { from: 0, .. }
                    | TraceKind::EpSubkernelDone { from: 0, .. }
            )
        });
        let diags = lint_trace(&t);
        assert!(diags.iter().any(|d| d.rule == "coverage"), "{diags:?}");
    }

    #[test]
    fn cpu_loss_open_subkernel_is_legal() {
        // The kernel completes normally on the GPU while the killed CPU
        // subkernel stays open; the loss is detected (and recorded) only
        // when the watchdog drains after completion.
        let mut t = legal_trace();
        t.insert(12, ev(39, start(0, 1, 2)));
        t.push(ev(60, TraceKind::NonOwnerLost { dev: 0 }));
        t.sort_by_key(|e| e.at);
        assert_eq!(lint_trace(&t), vec![]);
    }

    #[test]
    fn open_subkernel_without_recorded_loss_is_still_flagged() {
        let mut t = legal_trace();
        t.insert(12, ev(39, start(0, 1, 2)));
        t.sort_by_key(|e| e.at);
        let diags = lint_trace(&t);
        assert!(
            diags.iter().any(|d| d.rule == "cpu-contiguity"),
            "{diags:?}"
        );
    }

    /// A legal peer loss over 8 work-groups: ep1 dies holding 4..6, and the
    /// CPU re-claims the returned range above the untouched frontier.
    fn peer_loss_trace() -> Vec<TraceEvent> {
        vec![
            ev(0, enqueued(8)),
            ev(1, start(0, 6, 8)),
            ev(2, start(1, 4, 6)),
            ev(3, TraceKind::GpuLaunch),
            ev(3, TraceKind::GpuWaveStart { from: 0, to: 2 }),
            ev(10, TraceKind::NonOwnerLost { dev: 1 }),
            ev(11, done(0, 6, 8)),
            ev(12, send(0, 6)),
            ev(12, start(0, 4, 6)),
            ev(15, wave_done(0, 2, 2)),
            ev(15, TraceKind::GpuWaveStart { from: 2, to: 4 }),
            ev(16, status(0, 6, 6)),
            ev(20, done(0, 4, 6)),
            ev(20, send(0, 4)),
            ev(25, wave_done(2, 4, 4)),
            ev(26, status(0, 4, 4)),
            ev(26, TraceKind::GpuExit),
            ev(30, TraceKind::MergeDone),
            ev(30, complete(Finisher::Gpu)),
        ]
    }

    #[test]
    fn returned_range_may_be_reclaimed_above_the_frontier_top() {
        assert_eq!(lint_trace(&peer_loss_trace()), vec![]);
    }

    #[test]
    fn claim_above_the_top_without_a_recorded_return_is_flagged() {
        // ep1 completes 4..6 instead of dying: nothing returned the range,
        // so the CPU's re-claim breaks the descent and overlaps ep1.
        let mut t = peer_loss_trace();
        for e in &mut t {
            if matches!(e.kind, TraceKind::NonOwnerLost { .. }) {
                e.kind = done(1, 4, 6);
            }
        }
        let diags = lint_trace(&t);
        assert!(
            diags.iter().any(|d| d.rule == "cpu-contiguity"),
            "{diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.rule == "claim-disjoint"),
            "{diags:?}"
        );
    }

    #[test]
    fn transient_retry_resend_is_legal() {
        // The first transfer (boundary 3) fails transiently and is resent;
        // its status arrives late, interleaved with the boundary-2 send.
        let t = vec![
            ev(0, enqueued(4)),
            ev(5, start(0, 3, 4)),
            ev(10, TraceKind::GpuLaunch),
            ev(10, TraceKind::GpuWaveStart { from: 0, to: 2 }),
            ev(20, done(0, 3, 4)),
            ev(25, send(0, 3)),
            ev(25, start(0, 2, 3)),
            ev(30, wave_done(0, 2, 2)),
            ev(30, TraceKind::GpuWaveStart { from: 2, to: 4 }),
            ev(
                35,
                TraceKind::EpTransferFault {
                    dev: 0,
                    boundary: 3,
                    attempt: 1,
                },
            ),
            ev(36, send(0, 3)),
            ev(38, done(0, 2, 3)),
            ev(39, send(0, 2)),
            ev(39, status(0, 3, 3)),
            ev(40, wave_done(2, 4, 3)),
            ev(40, TraceKind::GpuExit),
            ev(45, TraceKind::MergeDone),
            ev(45, complete(Finisher::Gpu)),
        ];
        assert_eq!(lint_trace(&t), vec![]);
    }

    #[test]
    fn fault_event_for_unsent_boundary_is_flagged() {
        let mut t = legal_trace();
        t.insert(
            10,
            ev(
                36,
                TraceKind::EpTransferFault {
                    dev: 0,
                    boundary: 1,
                    attempt: 1,
                },
            ),
        );
        t.sort_by_key(|e| e.at);
        let diags = lint_trace(&t);
        assert!(diags.iter().any(|d| d.rule == "recovery"), "{diags:?}");
    }

    #[test]
    fn degraded_trace_is_legal() {
        let t = vec![
            ev(0, enqueued(8)),
            ev(
                3,
                TraceKind::EpDegradedRun {
                    dev: 0,
                    from: 0,
                    to: 8,
                },
            ),
            ev(90, complete(Finisher::Cpu)),
        ];
        assert_eq!(lint_trace(&t), vec![]);
    }

    #[test]
    fn degraded_trace_with_coverage_gap_is_flagged() {
        let t = vec![
            ev(0, enqueued(8)),
            ev(3, TraceKind::DegradedRun { from: 0, to: 6 }),
            ev(90, complete(Finisher::Gpu)),
        ];
        let diags = lint_trace(&t);
        assert!(diags.iter().any(|d| d.rule == "coverage"), "{diags:?}");
    }

    #[test]
    fn coexec_machinery_inside_degraded_trace_is_flagged() {
        let t = vec![
            ev(0, enqueued(8)),
            ev(2, TraceKind::GpuLaunch),
            ev(3, TraceKind::DegradedRun { from: 0, to: 8 }),
            ev(90, complete(Finisher::Gpu)),
        ];
        let diags = lint_trace(&t);
        assert!(
            diags.iter().any(|d| d.rule == "degraded-shape"),
            "{diags:?}"
        );
    }

    #[test]
    fn diagnostics_render_with_rule_and_severity() {
        let d = LintDiagnostic::error("coverage", "gap at 3..5");
        assert_eq!(d.to_string(), "[error] coverage: gap at 3..5");
        let w = LintDiagnostic::warning("unused-input", "arg `x` never read");
        assert!(w.to_string().starts_with("[warning]"));
        assert!(LintSeverity::Warning < LintSeverity::Error);
    }

    fn graph_trace(total: u64) -> Vec<TraceEvent> {
        vec![
            ev(
                0,
                TraceKind::Enqueued {
                    total_wgs: total,
                    pipeline_depth: 1,
                },
            ),
            ev(
                10,
                TraceKind::GraphRun {
                    node: 1,
                    dev: 1,
                    from: 0,
                    to: total,
                },
            ),
            ev(
                90,
                TraceKind::KernelComplete {
                    finisher: Finisher::Gpu,
                },
            ),
        ]
    }

    #[test]
    fn legal_graph_run_trace_is_clean() {
        assert!(lint_trace(&graph_trace(8)).is_empty());
    }

    #[test]
    fn graph_run_coverage_gap_is_flagged() {
        let mut t = graph_trace(8);
        t[1] = ev(
            10,
            TraceKind::GraphRun {
                node: 1,
                dev: 1,
                from: 0,
                to: 6,
            },
        );
        let diags = lint_trace(&t);
        assert!(diags.iter().any(|d| d.rule == "coverage"), "{diags:?}");
    }

    #[test]
    fn graph_run_rejects_coexec_machinery() {
        let mut t = graph_trace(8);
        t.insert(1, ev(5, TraceKind::GpuLaunch));
        let diags = lint_trace(&t);
        assert!(diags.iter().any(|d| d.rule == "graph-shape"), "{diags:?}");
    }

    #[test]
    fn graph_run_rejects_endpoint_migration() {
        let mut t = graph_trace(8);
        t[1] = ev(
            10,
            TraceKind::GraphRun {
                node: 1,
                dev: 1,
                from: 0,
                to: 4,
            },
        );
        t.insert(
            2,
            ev(
                20,
                TraceKind::GraphRun {
                    node: 1,
                    dev: 2,
                    from: 4,
                    to: 8,
                },
            ),
        );
        let diags = lint_trace(&t);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("more than one endpoint")),
            "{diags:?}"
        );
    }
}
