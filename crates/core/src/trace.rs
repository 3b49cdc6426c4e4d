//! Execution traces: a per-kernel timeline of every protocol event.
//!
//! FluidiCL's behaviour — waves, subkernels, transfers, aborts, the merge —
//! is an interleaving in time. The co-execution engine records each event
//! with its virtual timestamp, and [`render_timeline`] prints the protocol
//! as it played out, which is how most scheduling questions ("why did the
//! GPU duplicate that range?") get answered.

use std::fmt;

use fluidicl_des::SimTime;

use crate::stats::Finisher;

/// Size of the completion-status message sent after each subkernel's data
/// (paper §4.2: subkernel number + boundary). Shared by the coexec engine
/// (which charges it per H2D send) and the protocol linter (which checks
/// transferred bytes against dirty payload + status).
pub const STATUS_MSG_BYTES: u64 = 16;

/// One protocol event of a co-executed kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// The host enqueued the kernel: the launch geometry every other event
    /// is judged against. Always the first event of a trace; the protocol
    /// linter reads `total_wgs` from here.
    Enqueued {
        /// Total flattened work-groups of the launch.
        total_wgs: u64,
        /// Configured pipeline depth: the bound on completed-but-unshipped
        /// CPU subkernels. Depth 1 is the serial protocol; the linter reads
        /// this to decide which send-ordering rules apply.
        pipeline_depth: u32,
    },
    /// The GPU kernel was launched (after scratch setup).
    GpuLaunch,
    /// A GPU wave over flattened work-groups `[from, to)` started.
    GpuWaveStart {
        /// First flattened work-group of the wave.
        from: u64,
        /// One past the last work-group of the wave.
        to: u64,
    },
    /// A wave completed; work-groups `[from, executed_to)` produced results
    /// (the rest had been covered by arrived CPU data mid-wave).
    GpuWaveDone {
        /// First flattened work-group of the wave.
        from: u64,
        /// One past the last work-group of the wave.
        to: u64,
        /// One past the last work-group that actually wrote results.
        executed_to: u64,
    },
    /// A running wave aborted at an in-loop check: the CPU had already
    /// covered everything from the wave's start (paper §6.4).
    GpuWaveAborted {
        /// First flattened work-group of the aborted wave.
        from: u64,
        /// One past the last work-group of the aborted wave.
        to: u64,
    },
    /// The GPU kernel exited (reached the CPU watermark).
    GpuExit,
    /// The diff-merge kernel finished on the GPU (paper §4.3).
    MergeDone,
    /// The kernel completed from the host's perspective.
    KernelComplete {
        /// Which device established the final data.
        finisher: Finisher,
    },
    /// The acting owner GPU missed a wave watchdog deadline and was
    /// declared lost (a non-owner endpoint's loss is [`TraceKind::NonOwnerLost`]).
    DeviceLost,
    /// The owner GPU executed work-groups `[from, to)` alone (single-device
    /// degraded mode after the CPU was permanently lost; a surviving
    /// non-owner's lone run is [`TraceKind::EpDegradedRun`]).
    DegradedRun {
        /// First flattened work-group of the degraded run.
        from: u64,
        /// One past the last work-group of the degraded run.
        to: u64,
    },
    /// A non-owner endpoint launched a subkernel over a range it claimed
    /// from the shared frontier. Endpoint 0 is the CPU; endpoints 1 and up
    /// are peer GPUs. With the CPU as the sole endpoint the claims are the
    /// paper's top-down subkernel descent (Figure 7).
    EpSubkernelStart {
        /// Endpoint index (0 = CPU, 1.. = peer GPUs).
        dev: u32,
        /// First flattened work-group of the subkernel.
        from: u64,
        /// One past the last work-group of the subkernel.
        to: u64,
        /// Kernel version index used (paper §6.6).
        version: usize,
    },
    /// A non-owner endpoint's subkernel finished computing.
    EpSubkernelDone {
        /// Endpoint index.
        dev: u32,
        /// First flattened work-group of the subkernel.
        from: u64,
        /// One past the last work-group of the subkernel.
        to: u64,
    },
    /// A non-owner endpoint enqueued results + one status message on its
    /// own upstream link (paper §5.4; the CPU's link is the hd queue).
    /// One subkernel is the plain send; ≥ 2 is a batch of back-to-back
    /// completed subkernels coalesced under pipeline depth ≥ 2, whose
    /// dirty ranges are unioned into one data payload.
    EpSend {
        /// Endpoint index.
        dev: u32,
        /// Completion boundary the status message carries — the lowest
        /// `from` of the batched subkernels.
        boundary: u64,
        /// Payload size in bytes.
        bytes: u64,
        /// Unioned dirty payload in bytes when dirty-range transfers are
        /// on (`bytes` must equal this plus [`STATUS_MSG_BYTES`]); `None`
        /// under the whole-buffer protocol.
        dirty_bytes: Option<u64>,
        /// How many completed subkernels the send carries (≥ 1).
        subkernels: u32,
    },
    /// A non-owner endpoint's status message reached the owner: the send's
    /// ranges joined the coverage set, whose contiguous top suffix is the
    /// owner's new watermark (with the CPU as the sole endpoint, the
    /// paper's boundary watermark of §4.2).
    EpStatus {
        /// Endpoint index the status came from.
        dev: u32,
        /// Boundary the status message carried.
        boundary: u64,
        /// Owner watermark after folding this arrival into coverage.
        watermark: u64,
    },
    /// A non-owner endpoint's transfer attempt failed transiently and will
    /// be retried after a backoff.
    EpTransferFault {
        /// Endpoint index.
        dev: u32,
        /// Boundary the failed send carried.
        boundary: u64,
        /// 1-based attempt number that failed.
        attempt: u32,
    },
    /// A non-owner endpoint's delivered transfer failed its checksum and
    /// was rejected; the endpoint resends.
    EpTransferRejected {
        /// Endpoint index.
        dev: u32,
        /// Boundary the rejected send carried.
        boundary: u64,
    },
    /// A non-owner endpoint's transfer missed its watchdog deadline: that
    /// endpoint's link is abandoned (the other endpoints keep working).
    EpTransferTimeout {
        /// Endpoint index.
        dev: u32,
        /// Boundary the stalled send carried.
        boundary: u64,
    },
    /// A non-owner endpoint missed a subkernel watchdog deadline and was
    /// declared lost; its claimed-but-unshipped ranges return to the
    /// frontier for the survivors.
    NonOwnerLost {
        /// Endpoint index that died.
        dev: u32,
    },
    /// A surviving peer GPU was promoted to owner after the acting owner
    /// missed a wave watchdog: ownership migrated under a new epoch, the
    /// promoted peer inherited the coverage map, and its un-acked claims
    /// returned to the frontier.
    OwnerPromoted {
        /// Endpoint index of the promoted peer.
        dev: u32,
        /// Ownership epoch that begins with this promotion (the primary
        /// owner is epoch 0).
        epoch: u32,
    },
    /// The acting owner rejected a status whose send was enqueued under an
    /// older ownership epoch: the data went to a dead owner, so its ranges
    /// never join coverage (the new owner's wave walk re-covers them).
    EpochRejected {
        /// Endpoint whose stale send was rejected.
        dev: u32,
        /// Boundary the stale send carried.
        boundary: u64,
    },
    /// A surviving non-owner executed work-groups `[from, to)` alone:
    /// the CPU (endpoint 0) after the owner GPU was lost, or a peer GPU
    /// when both the CPU and every acting owner are gone.
    EpDegradedRun {
        /// Endpoint index of the survivor.
        dev: u32,
        /// First flattened work-group of the degraded run.
        from: u64,
        /// One past the last work-group of the degraded run.
        to: u64,
    },
    /// A graph-scheduled node executed work-groups `[from, to)` alone on
    /// one endpoint while sibling nodes of the same flushed DAG ran
    /// elsewhere (`with_graph_scheduling`). Endpoint indices follow the
    /// Ep* vocabulary: 1.. are peer GPUs. Nodes placed on the owner
    /// co-execution lane record an ordinary co-execution trace instead.
    GraphRun {
        /// Node index within the flushed graph (enqueue order).
        node: u32,
        /// Endpoint index the node ran on.
        dev: u32,
        /// First flattened work-group of the run.
        from: u64,
        /// One past the last work-group of the run.
        to: u64,
    },
}

/// An endpoint's name in a rendered line: endpoint 0 is the CPU, so its
/// lines read exactly like the paper's two-device protocol; peers are
/// `ep{dev}`.
struct EpName(u32);

impl fmt::Display for EpName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => write!(f, "cpu"),
            dev => write!(f, "ep{dev}"),
        }
    }
}

/// Prefix naming the endpoint whose link a fault line is about: empty for
/// the CPU (the hd queue of the two-device protocol), `ep{dev} ` for peers.
struct LinkOf(u32);

impl fmt::Display for LinkOf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => Ok(()),
            dev => write!(f, "ep{dev} "),
        }
    }
}

/// Tag of the link an endpoint ships on: `hd ` for the CPU (the
/// two-device protocol's host-to-device queue), `ep{dev}` for peers.
struct LinkTag(u32);

impl fmt::Display for LinkTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => write!(f, "hd "),
            dev => write!(f, "ep{dev}"),
        }
    }
}

/// The `, dirty N B` suffix of a send line under dirty-range transfers;
/// nothing under the whole-buffer protocol, so gate-off traces render the
/// historical line byte-for-byte.
struct DirtySuffix(Option<u64>);

impl fmt::Display for DirtySuffix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(d) => write!(f, ", dirty {d} B"),
            None => Ok(()),
        }
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceKind::Enqueued {
                total_wgs,
                pipeline_depth,
            } => {
                // Depth 1 renders exactly the historical serial-protocol
                // line so pre-pipeline traces stay byte-identical.
                if *pipeline_depth <= 1 {
                    write!(f, "[all] kernel enqueued ({total_wgs} work-groups)")
                } else {
                    write!(
                        f,
                        "[all] kernel enqueued ({total_wgs} work-groups, pipeline depth {pipeline_depth})"
                    )
                }
            }
            TraceKind::GpuLaunch => write!(f, "[gpu] kernel launched"),
            TraceKind::GpuWaveStart { from, to } => {
                write!(f, "[gpu] wave {from}..{to} start")
            }
            TraceKind::GpuWaveDone {
                from,
                to,
                executed_to,
            } => {
                if executed_to == to {
                    write!(f, "[gpu] wave {from}..{to} done")
                } else {
                    write!(
                        f,
                        "[gpu] wave {from}..{to} done (wrote {from}..{executed_to}, rest covered by cpu)"
                    )
                }
            }
            TraceKind::GpuWaveAborted { from, to } => {
                write!(f, "[gpu] wave {from}..{to} ABORTED (cpu covered it)")
            }
            TraceKind::GpuExit => write!(f, "[gpu] kernel exit"),
            TraceKind::MergeDone => write!(f, "[gpu] diff-merge done"),
            TraceKind::KernelComplete { finisher } => {
                write!(f, "[all] kernel complete (finished by {finisher:?})")
            }
            TraceKind::DeviceLost => write!(f, "[flt] gpu lost (watchdog deadline missed)"),
            TraceKind::DegradedRun { from, to } => {
                write!(f, "[deg] gpu finishing {from}..{to} alone")
            }
            TraceKind::EpSubkernelStart {
                dev,
                from,
                to,
                version,
            } => {
                write!(
                    f,
                    "[{}] subkernel {from}..{to} start (version {version})",
                    EpName(*dev)
                )
            }
            TraceKind::EpSubkernelDone { dev, from, to } => {
                write!(f, "[{}] subkernel {from}..{to} done", EpName(*dev))
            }
            TraceKind::EpSend {
                dev: 0,
                boundary,
                bytes,
                dirty_bytes,
                subkernels: 1,
            } => write!(
                f,
                "[hd ] data+status enqueued (boundary {boundary}, {bytes} B{})",
                DirtySuffix(*dirty_bytes)
            ),
            TraceKind::EpSend {
                dev,
                boundary,
                bytes,
                dirty_bytes,
                subkernels,
            } => {
                let what = if *dev == 0 {
                    "coalesced data+status"
                } else {
                    "data+status"
                };
                write!(
                    f,
                    "[{}] {what} enqueued ({subkernels} subkernels, boundary {boundary}, {bytes} B{})",
                    LinkTag(*dev),
                    DirtySuffix(*dirty_bytes)
                )
            }
            TraceKind::EpStatus {
                dev: 0,
                boundary,
                watermark,
            } if boundary == watermark => {
                write!(f, "[hd ] status arrived: watermark -> {watermark}")
            }
            TraceKind::EpStatus {
                dev,
                boundary,
                watermark,
            } => {
                write!(
                    f,
                    "[{}] status arrived (boundary {boundary}): watermark -> {watermark}",
                    LinkTag(*dev)
                )
            }
            TraceKind::EpTransferFault {
                dev,
                boundary,
                attempt,
            } => {
                write!(
                    f,
                    "[flt] {}transfer for boundary {boundary} failed (attempt {attempt}), retrying",
                    LinkOf(*dev)
                )
            }
            TraceKind::EpTransferRejected { dev, boundary } => {
                write!(
                    f,
                    "[flt] {}transfer for boundary {boundary} failed checksum, resending",
                    LinkOf(*dev)
                )
            }
            TraceKind::EpTransferTimeout { dev, boundary } => {
                write!(
                    f,
                    "[flt] {}transfer for boundary {boundary} missed its deadline, link abandoned",
                    LinkOf(*dev)
                )
            }
            TraceKind::NonOwnerLost { dev } => {
                write!(f, "[flt] {} lost (watchdog deadline missed)", EpName(*dev))
            }
            TraceKind::OwnerPromoted { dev, epoch } => {
                write!(f, "[flt] ep{dev} promoted to owner (epoch {epoch})")
            }
            TraceKind::EpochRejected { dev, boundary } => {
                write!(
                    f,
                    "[flt] ep{dev} status for boundary {boundary} rejected (stale epoch)"
                )
            }
            TraceKind::EpDegradedRun { dev, from, to } => {
                write!(f, "[deg] {} finishing {from}..{to} alone", EpName(*dev))
            }
            TraceKind::GraphRun {
                node,
                dev,
                from,
                to,
            } => {
                write!(f, "[gph] node {node} ran {from}..{to} on ep{dev}")
            }
        }
    }
}

/// A timestamped protocol event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

/// Renders a kernel's trace as a chronological text timeline.
///
/// # Examples
///
/// ```
/// use fluidicl::{render_timeline, TraceEvent, TraceKind};
/// use fluidicl_des::SimTime;
///
/// let events = vec![TraceEvent {
///     at: SimTime::from_nanos(1_000),
///     kind: TraceKind::GpuLaunch,
/// }];
/// let text = render_timeline("syrk", &events);
/// assert!(text.contains("syrk"));
/// assert!(text.contains("kernel launched"));
/// ```
pub fn render_timeline(kernel: &str, events: &[TraceEvent]) -> String {
    let mut out = format!("timeline of `{kernel}` ({} events)\n", events.len());
    let t0 = events.first().map_or(SimTime::ZERO, |e| e.at);
    for e in events {
        let rel = e.at.saturating_since(t0);
        out.push_str(&format!(
            "  +{:>10.3}us  {}\n",
            rel.as_nanos() as f64 / 1e3,
            e.kind
        ));
    }
    out
}

/// Renders a compact per-lane utilization view of a kernel's trace: one
/// lane per actor (GPU, CPU, hd channel), each event bucketed into a
/// fixed-width strip. Coarser than [`render_timeline`] but shows overlap at
/// a glance.
///
/// # Examples
///
/// ```
/// use fluidicl::{render_lanes, TraceEvent, TraceKind};
/// use fluidicl_des::SimTime;
///
/// let events = vec![
///     TraceEvent { at: SimTime::from_nanos(0), kind: TraceKind::GpuLaunch },
///     TraceEvent { at: SimTime::from_nanos(500), kind: TraceKind::GpuExit },
/// ];
/// let text = render_lanes("k", &events, 40);
/// assert!(text.contains("gpu"));
/// ```
pub fn render_lanes(kernel: &str, events: &[TraceEvent], width: usize) -> String {
    let width = width.max(10);
    let (Some(first), Some(last)) = (events.first(), events.last()) else {
        return format!("lanes of `{kernel}`: no events\n");
    };
    let t0 = first.at;
    let span = last.at.saturating_since(t0).as_nanos().max(1);
    let mut gpu = vec![' '; width];
    let mut cpu = vec![' '; width];
    let mut hd = vec![' '; width];
    let bucket = |at: SimTime| -> usize {
        let rel = at.saturating_since(t0).as_nanos();
        (((rel as u128 * (width as u128 - 1)) / span as u128) as usize).min(width - 1)
    };
    for e in events {
        let b = bucket(e.at);
        match &e.kind {
            // The enqueue is a host-side bookkeeping event with no lane.
            TraceKind::Enqueued { .. } => {}
            TraceKind::GpuLaunch => gpu[b] = 'L',
            TraceKind::GpuWaveStart { .. } => gpu[b] = '[',
            TraceKind::GpuWaveDone { .. } => gpu[b] = ']',
            TraceKind::GpuWaveAborted { .. } => gpu[b] = 'x',
            TraceKind::GpuExit => gpu[b] = 'E',
            TraceKind::MergeDone => gpu[b] = 'M',
            TraceKind::KernelComplete { .. } => gpu[b] = '!',
            TraceKind::DeviceLost => gpu[b] = 'X',
            TraceKind::DegradedRun { .. } => gpu[b] = 'D',
            // Every non-owner endpoint computes on the cpu lane and ships
            // on the hd lane.
            TraceKind::EpSubkernelStart { .. } => cpu[b] = '[',
            TraceKind::EpSubkernelDone { .. } => cpu[b] = ']',
            // A coalesced batch is still one send on the hd lane.
            TraceKind::EpSend { .. } => hd[b] = '>',
            TraceKind::EpStatus { .. } => hd[b] = '*',
            TraceKind::EpTransferFault { .. } => hd[b] = 'f',
            TraceKind::EpTransferRejected { .. } => hd[b] = 'r',
            TraceKind::EpTransferTimeout { .. } => hd[b] = 'T',
            TraceKind::NonOwnerLost { .. } => cpu[b] = 'X',
            // Failover vocabulary: the promoted peer takes over the gpu
            // (owner) lane; a stale-epoch rejection is link traffic.
            TraceKind::OwnerPromoted { .. } => gpu[b] = 'P',
            TraceKind::EpochRejected { .. } => hd[b] = 'e',
            // The CPU finishing alone stays on its own lane; a lone peer
            // takes over the gpu lane.
            TraceKind::EpDegradedRun { dev: 0, .. } => cpu[b] = 'D',
            TraceKind::EpDegradedRun { .. } => gpu[b] = 'D',
            // A graph node on a peer endpoint occupies that device's
            // compute; the gpu lane shows the sole-device run.
            TraceKind::GraphRun { .. } => gpu[b] = 'G',
        }
    }
    let lane =
        |name: &str, cells: &[char]| format!("  {name:4}|{}|\n", cells.iter().collect::<String>());
    let mut out = format!(
        "lanes of `{kernel}` over {:.1}us ([ start, ] done, x abort, > send, * status, M merge, ! complete)\n",
        span as f64 / 1e3
    );
    out.push_str(&lane("gpu", &gpu));
    out.push_str(&lane("cpu", &cpu));
    out.push_str(&lane("hd", &hd));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ns: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_nanos(ns),
            kind,
        }
    }

    #[test]
    fn display_covers_every_variant() {
        let kinds = vec![
            TraceKind::Enqueued {
                total_wgs: 120,
                pipeline_depth: 1,
            },
            TraceKind::Enqueued {
                total_wgs: 120,
                pipeline_depth: 4,
            },
            TraceKind::GpuLaunch,
            TraceKind::GpuWaveStart { from: 0, to: 84 },
            TraceKind::GpuWaveDone {
                from: 0,
                to: 84,
                executed_to: 84,
            },
            TraceKind::GpuWaveDone {
                from: 84,
                to: 120,
                executed_to: 100,
            },
            TraceKind::GpuWaveAborted { from: 84, to: 120 },
            TraceKind::GpuExit,
            TraceKind::MergeDone,
            TraceKind::KernelComplete {
                finisher: Finisher::Gpu,
            },
            TraceKind::DeviceLost,
            TraceKind::DegradedRun { from: 0, to: 120 },
            TraceKind::EpSubkernelStart {
                dev: 1,
                from: 100,
                to: 150,
                version: 0,
            },
            TraceKind::EpSubkernelDone {
                dev: 1,
                from: 100,
                to: 150,
            },
            TraceKind::EpSend {
                dev: 1,
                boundary: 100,
                bytes: 2048 + STATUS_MSG_BYTES,
                dirty_bytes: Some(2048),
                subkernels: 1,
            },
            TraceKind::EpSend {
                dev: 0,
                boundary: 150,
                bytes: 4096,
                dirty_bytes: None,
                subkernels: 2,
            },
            TraceKind::EpStatus {
                dev: 1,
                boundary: 100,
                watermark: 100,
            },
            TraceKind::EpTransferFault {
                dev: 1,
                boundary: 100,
                attempt: 1,
            },
            TraceKind::EpTransferRejected {
                dev: 1,
                boundary: 100,
            },
            TraceKind::EpTransferTimeout {
                dev: 1,
                boundary: 100,
            },
            TraceKind::NonOwnerLost { dev: 1 },
            TraceKind::OwnerPromoted { dev: 1, epoch: 1 },
            TraceKind::EpochRejected {
                dev: 0,
                boundary: 100,
            },
            TraceKind::EpDegradedRun {
                dev: 1,
                from: 0,
                to: 120,
            },
            TraceKind::GraphRun {
                node: 1,
                dev: 2,
                from: 0,
                to: 120,
            },
        ];
        for k in kinds {
            assert!(!k.to_string().is_empty());
        }
    }

    #[test]
    fn graph_run_renders_node_and_endpoint() {
        let k = TraceKind::GraphRun {
            node: 3,
            dev: 1,
            from: 0,
            to: 64,
        };
        assert_eq!(k.to_string(), "[gph] node 3 ran 0..64 on ep1");
        let events = vec![ev(0, TraceKind::GpuLaunch), ev(100, k)];
        let text = render_lanes("k", &events, 40);
        assert!(text.contains('G'), "graph run marks the gpu lane: {text}");
    }

    #[test]
    fn failover_events_render_with_their_devices() {
        assert_eq!(
            TraceKind::OwnerPromoted { dev: 2, epoch: 1 }.to_string(),
            "[flt] ep2 promoted to owner (epoch 1)"
        );
        assert_eq!(
            TraceKind::EpochRejected {
                dev: 0,
                boundary: 48
            }
            .to_string(),
            "[flt] ep0 status for boundary 48 rejected (stale epoch)"
        );
        assert_eq!(
            TraceKind::EpDegradedRun {
                dev: 1,
                from: 0,
                to: 64
            }
            .to_string(),
            "[deg] ep1 finishing 0..64 alone"
        );
        let events = vec![
            ev(0, TraceKind::OwnerPromoted { dev: 1, epoch: 1 }),
            ev(
                100,
                TraceKind::EpochRejected {
                    dev: 0,
                    boundary: 48,
                },
            ),
        ];
        let text = render_lanes("k", &events, 40);
        assert!(text.contains('P'), "promotion marks the gpu lane: {text}");
        assert!(text.contains('e'), "rejection marks the hd lane: {text}");
    }

    #[test]
    fn ep_events_carry_their_device_index() {
        let send = TraceKind::EpSend {
            dev: 1,
            boundary: 8,
            bytes: 128 + STATUS_MSG_BYTES,
            dirty_bytes: Some(128),
            subkernels: 2,
        };
        assert_eq!(
            send.to_string(),
            "[ep1] data+status enqueued (2 subkernels, boundary 8, 144 B, dirty 128 B)"
        );
        let status = TraceKind::EpStatus {
            dev: 1,
            boundary: 8,
            watermark: 8,
        };
        assert_eq!(
            status.to_string(),
            "[ep1] status arrived (boundary 8): watermark -> 8"
        );
        let events = vec![
            ev(
                0,
                TraceKind::EpSubkernelStart {
                    dev: 1,
                    from: 8,
                    to: 16,
                    version: 0,
                },
            ),
            ev(
                50,
                TraceKind::EpSubkernelDone {
                    dev: 1,
                    from: 8,
                    to: 16,
                },
            ),
            ev(100, send),
            ev(200, status),
            ev(300, TraceKind::NonOwnerLost { dev: 1 }),
        ];
        let text = render_lanes("k", &events, 40);
        assert!(text.contains('>'), "ep send marks the hd lane: {text}");
        assert!(text.contains('X'), "ep loss marks the cpu lane: {text}");
    }

    #[test]
    fn cpu_endpoint_renders_the_two_device_protocol_text() {
        // Endpoint 0 is the paper's CPU: its lines read exactly as the
        // two-device protocol always printed them, so serial traces stay
        // byte-identical to the goldens.
        let cases = [
            (
                TraceKind::EpSubkernelStart {
                    dev: 0,
                    from: 200,
                    to: 256,
                    version: 1,
                },
                "[cpu] subkernel 200..256 start (version 1)",
            ),
            (
                TraceKind::EpSubkernelDone {
                    dev: 0,
                    from: 200,
                    to: 256,
                },
                "[cpu] subkernel 200..256 done",
            ),
            (
                TraceKind::EpStatus {
                    dev: 0,
                    boundary: 200,
                    watermark: 200,
                },
                "[hd ] status arrived: watermark -> 200",
            ),
            (
                TraceKind::EpStatus {
                    dev: 0,
                    boundary: 200,
                    watermark: 150,
                },
                "[hd ] status arrived (boundary 200): watermark -> 150",
            ),
            (
                TraceKind::EpTransferFault {
                    dev: 0,
                    boundary: 200,
                    attempt: 1,
                },
                "[flt] transfer for boundary 200 failed (attempt 1), retrying",
            ),
            (
                TraceKind::EpTransferRejected {
                    dev: 0,
                    boundary: 200,
                },
                "[flt] transfer for boundary 200 failed checksum, resending",
            ),
            (
                TraceKind::EpTransferTimeout {
                    dev: 0,
                    boundary: 200,
                },
                "[flt] transfer for boundary 200 missed its deadline, link abandoned",
            ),
            (
                TraceKind::NonOwnerLost { dev: 0 },
                "[flt] cpu lost (watchdog deadline missed)",
            ),
            (
                TraceKind::EpDegradedRun {
                    dev: 0,
                    from: 0,
                    to: 120,
                },
                "[deg] cpu finishing 0..120 alone",
            ),
            (
                TraceKind::DeviceLost,
                "[flt] gpu lost (watchdog deadline missed)",
            ),
            (
                TraceKind::DegradedRun { from: 0, to: 120 },
                "[deg] gpu finishing 0..120 alone",
            ),
        ];
        for (kind, text) in cases {
            assert_eq!(kind.to_string(), text);
        }
    }

    #[test]
    fn cpu_send_renders_identically_without_dirty_accounting() {
        // The gate-off line must stay byte-identical to the historical
        // whole-buffer protocol rendering.
        let off = TraceKind::EpSend {
            dev: 0,
            boundary: 3,
            bytes: 80,
            dirty_bytes: None,
            subkernels: 1,
        };
        assert_eq!(
            off.to_string(),
            "[hd ] data+status enqueued (boundary 3, 80 B)"
        );
        let on = TraceKind::EpSend {
            dev: 0,
            boundary: 3,
            bytes: 48 + STATUS_MSG_BYTES,
            dirty_bytes: Some(48),
            subkernels: 1,
        };
        assert_eq!(
            on.to_string(),
            "[hd ] data+status enqueued (boundary 3, 64 B, dirty 48 B)"
        );
    }

    #[test]
    fn serial_enqueue_renders_the_historical_line() {
        // Depth 1 must stay byte-identical to the pre-pipeline rendering;
        // deeper pipelines announce themselves.
        let serial = TraceKind::Enqueued {
            total_wgs: 16,
            pipeline_depth: 1,
        };
        assert_eq!(serial.to_string(), "[all] kernel enqueued (16 work-groups)");
        let deep = TraceKind::Enqueued {
            total_wgs: 16,
            pipeline_depth: 2,
        };
        assert_eq!(
            deep.to_string(),
            "[all] kernel enqueued (16 work-groups, pipeline depth 2)"
        );
    }

    #[test]
    fn coalesced_send_renders_batch_size_and_boundary() {
        let k = TraceKind::EpSend {
            dev: 0,
            boundary: 8,
            bytes: 128 + STATUS_MSG_BYTES,
            dirty_bytes: Some(128),
            subkernels: 2,
        };
        assert_eq!(
            k.to_string(),
            "[hd ] coalesced data+status enqueued (2 subkernels, boundary 8, 144 B, dirty 128 B)"
        );
        let events = vec![ev(0, TraceKind::GpuLaunch), ev(100, k)];
        let text = render_lanes("k", &events, 40);
        assert!(text.contains('>'), "batch send marks the hd lane: {text}");
    }

    #[test]
    fn timeline_is_relative_to_first_event() {
        let events = vec![
            ev(5_000, TraceKind::GpuLaunch),
            ev(8_000, TraceKind::GpuExit),
        ];
        let text = render_timeline("k", &events);
        assert!(text.contains("+     0.000us"), "{text}");
        assert!(text.contains("+     3.000us"), "{text}");
    }

    #[test]
    fn lanes_render_all_actors() {
        let events = vec![
            ev(
                0,
                TraceKind::EpSubkernelStart {
                    dev: 0,
                    from: 8,
                    to: 16,
                    version: 0,
                },
            ),
            ev(
                100,
                TraceKind::EpSubkernelDone {
                    dev: 0,
                    from: 8,
                    to: 16,
                },
            ),
            ev(
                120,
                TraceKind::EpSend {
                    dev: 0,
                    boundary: 8,
                    bytes: 64,
                    dirty_bytes: None,
                    subkernels: 1,
                },
            ),
            ev(200, TraceKind::GpuLaunch),
            ev(
                300,
                TraceKind::EpStatus {
                    dev: 0,
                    boundary: 8,
                    watermark: 8,
                },
            ),
            ev(400, TraceKind::GpuExit),
            ev(
                500,
                TraceKind::KernelComplete {
                    finisher: Finisher::Gpu,
                },
            ),
        ];
        let text = render_lanes("k", &events, 50);
        assert!(text.contains("gpu"), "{text}");
        assert!(text.contains('*'), "status marker missing: {text}");
        assert!(text.contains('>'), "send marker missing: {text}");
        assert!(text.contains('!'), "complete marker missing: {text}");
    }

    #[test]
    fn lanes_handle_empty_trace() {
        assert!(render_lanes("k", &[], 40).contains("no events"));
    }

    #[test]
    fn fault_events_render_with_their_own_markers() {
        let events = vec![
            ev(
                0,
                TraceKind::EpTransferFault {
                    dev: 0,
                    boundary: 8,
                    attempt: 1,
                },
            ),
            ev(100, TraceKind::DeviceLost),
            ev(
                200,
                TraceKind::EpDegradedRun {
                    dev: 0,
                    from: 0,
                    to: 16,
                },
            ),
        ];
        let text = render_lanes("k", &events, 40);
        assert!(text.contains('f'), "fault marker missing: {text}");
        assert!(text.contains('X'), "loss marker missing: {text}");
        assert!(text.contains('D'), "degraded marker missing: {text}");
        // The legend line itself is unchanged from the fault-free renderer.
        assert!(text.starts_with(
            "lanes of `k` over 0.2us ([ start, ] done, x abort, > send, * status, M merge, ! complete)\n"
        ));
    }

    #[test]
    fn partial_wave_mentions_cpu_coverage() {
        let k = TraceKind::GpuWaveDone {
            from: 0,
            to: 10,
            executed_to: 7,
        };
        assert!(k.to_string().contains("covered by cpu"));
    }
}
