//! The FluidiCL runtime: the public, OpenCL-shaped API.
//!
//! `Fluidicl` is the drop-in layer of paper Figure 4: the application calls
//! the usual buffer/kernel functions as if one device existed, and the
//! runtime manages both devices underneath — duplicating buffers and writes
//! (§4.1), co-executing every kernel (§4.2), merging results (§4.3),
//! returning data to the host in a background thread (§4.4, §5.6), and
//! tracking buffer versions and locations across kernels (§5.3, §6.2).

use fluidicl_des::{SimDuration, SimTime};
use fluidicl_hetsim::MachineConfig;
use fluidicl_vcl::exec::Launch;
use fluidicl_vcl::{
    execute_groups_injected, BufferId, ClDriver, ClError, ClResult, DeviceKind, DirtyTracker,
    FaultInjector, KernelArg, Memory, NdRange, Program,
};

use crate::buffers::{BufferTable, KernelId, PoolStats, ScratchPool, SnapshotPool};
use crate::coexec::{Coexec, CoexecInput, PeerSlot};
use crate::config::FluidiclConfig;
use crate::graph::{self, GraphNodeSummary, GraphSchedule};
use crate::heft::{self, HeftEdge, WeightTable};
use crate::roster::DeviceRoster;
use crate::stats::{Finisher, KernelReport, LaunchMeta, RuntimeSummary};
use crate::trace::{TraceEvent, TraceKind};

/// The FluidiCL runtime over a simulated CPU+GPU machine.
///
/// # Examples
///
/// ```
/// use fluidicl::{Fluidicl, FluidiclConfig};
/// use fluidicl_hetsim::{KernelProfile, MachineConfig};
/// use fluidicl_vcl::{ArgRole, ArgSpec, ClDriver, KernelArg, KernelDef, NdRange, Program};
///
/// let mut program = Program::new();
/// program.register(KernelDef::new(
///     "scale",
///     vec![
///         ArgSpec::new("src", ArgRole::In),
///         ArgSpec::new("dst", ArgRole::Out),
///     ],
///     KernelProfile::new("scale").flops_per_item(1.0).bytes_read_per_item(4.0),
///     |item, _, ins, outs| {
///         let i = item.global_linear();
///         outs.at(0)[i] = 2.0 * ins.get(0)[i];
///     },
/// ));
/// let mut rt = Fluidicl::new(
///     MachineConfig::paper_testbed(),
///     FluidiclConfig::default(),
///     program,
/// );
/// let src = rt.create_buffer(1024);
/// let dst = rt.create_buffer(1024);
/// rt.write_buffer(src, &vec![1.0; 1024])?;
/// rt.enqueue_kernel(
///     "scale",
///     NdRange::d1(1024, 64)?,
///     &[KernelArg::Buffer(src), KernelArg::Buffer(dst)],
/// )?;
/// assert_eq!(rt.read_buffer(dst)?, vec![2.0; 1024]);
/// # Ok::<(), fluidicl_vcl::ClError>(())
/// ```
#[derive(Debug)]
pub struct Fluidicl {
    machine: MachineConfig,
    config: FluidiclConfig,
    program: Program,
    cpu_mem: Memory,
    gpu_mem: Memory,
    buffers: BufferTable,
    pool: ScratchPool,
    snapshots: SnapshotPool,
    host_clock: SimTime,
    gpu_free: SimTime,
    hd_free: SimTime,
    dh_free: SimTime,
    next_kernel_id: KernelId,
    reports: Vec<KernelReport>,
    /// Fault oracle derived from `config.faults`; `None` disables injection
    /// and every watchdog.
    injector: Option<FaultInjector>,
    /// Health of every device across kernels. Later kernels re-form
    /// co-execution on whatever the roster reports healthy and degrade to a
    /// single device only when one remains.
    roster: DeviceRoster,
    /// Kernel version online profiling last settled on; degraded runs keep
    /// reporting it (selection survives a device loss).
    last_cpu_version: usize,
    /// Unrecoverable error (both devices gone): every later enqueue returns
    /// a clone of it instead of touching dead hardware.
    fatal: Option<ClError>,
    /// Launches deferred by kernel-graph scheduling, awaiting a flush.
    pending: Vec<PendingLaunch>,
    /// Online-profiled per-(kernel, lane) node weights for HEFT lookahead,
    /// carried across flushes.
    weights: WeightTable,
    /// One record per flushed kernel graph, for inspection and the check
    /// tooling.
    graph_schedules: Vec<GraphSchedule>,
}

/// One enqueue captured while kernel-graph scheduling defers execution.
#[derive(Debug)]
struct PendingLaunch {
    kernel: String,
    ndrange: NdRange,
    args: Vec<KernelArg>,
}

impl Fluidicl {
    /// Creates a runtime on `machine` with `config` and a compiled
    /// `program` (kernels are built for both devices, paper §4.1).
    pub fn new(machine: MachineConfig, config: FluidiclConfig, program: Program) -> Self {
        let pool = ScratchPool::new(config.buffer_pool);
        let injector = config.faults.map(FaultInjector::new);
        Fluidicl {
            machine,
            config,
            program,
            cpu_mem: Memory::new(),
            gpu_mem: Memory::new(),
            buffers: BufferTable::new(),
            pool,
            snapshots: SnapshotPool::new(),
            host_clock: SimTime::ZERO,
            gpu_free: SimTime::ZERO,
            hd_free: SimTime::ZERO,
            dh_free: SimTime::ZERO,
            next_kernel_id: 1,
            reports: Vec::new(),
            injector,
            roster: DeviceRoster::new(),
            last_cpu_version: 0,
            fatal: None,
            pending: Vec::new(),
            weights: WeightTable::new(),
            graph_schedules: Vec::new(),
        }
    }

    /// The runtime configuration.
    pub fn config(&self) -> &FluidiclConfig {
        &self.config
    }

    /// Per-kernel execution reports, in launch order.
    pub fn reports(&self) -> &[KernelReport] {
        &self.reports
    }

    /// Aggregate statistics.
    pub fn summary(&self) -> RuntimeSummary {
        RuntimeSummary::from_reports(&self.reports)
    }

    /// Schedules recorded by kernel-graph flushes, in flush order (empty
    /// unless [`FluidiclConfig::with_graph_scheduling`] is on).
    pub fn graph_schedules(&self) -> &[GraphSchedule] {
        &self.graph_schedules
    }

    /// Scratch-buffer pool statistics (paper §6.1).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Snapshot-allocation pool statistics `(hits, misses)`: how often the
    /// per-kernel original snapshots reused a pooled allocation.
    pub fn snapshot_stats(&self) -> (u64, u64) {
        self.snapshots.stats()
    }

    /// Number of snapshot allocations currently sitting free in the pool —
    /// balanced accounting even across launches that returned `Err`.
    pub fn snapshot_free_count(&self) -> usize {
        self.snapshots.free_count()
    }

    /// Number of scratch buffers currently sitting free in the pool.
    pub fn scratch_free_count(&self) -> usize {
        self.pool.free_count()
    }

    /// Whether the configured fault plan has fired yet.
    pub fn fault_fired(&self) -> bool {
        self.injector.as_ref().is_some_and(FaultInjector::fired)
    }

    /// Device declared permanently lost during an earlier kernel, if any —
    /// the legacy binary view ([`DeviceRoster::lost_device`]). Subsequent
    /// kernels co-execute on the healthy survivors when at least two
    /// remain, and run degraded only on the last one.
    pub fn lost_device(&self) -> Option<DeviceKind> {
        self.roster.lost_device()
    }

    /// Health of every device in the machine, tracked across kernels.
    pub fn roster(&self) -> &DeviceRoster {
        &self.roster
    }

    /// Promotes every kernel named in `proven` to declared-disjoint writes
    /// (see [`Program::promote_disjoint`]) and, if at least one promotion
    /// applied, raises the intra-launch thread budget to `jobs`. Returns
    /// the number of kernels promoted. This is how a disjoint-writes proof
    /// manifest emitted by `fluidicl-check --emit-disjoint` turns into
    /// enabled parallelism at run time.
    pub fn apply_disjoint_proofs(&mut self, proven: &[String], jobs: usize) -> usize {
        let mut promoted = 0;
        for name in proven {
            if self.program.promote_disjoint(name) {
                promoted += 1;
            }
        }
        if promoted > 0 {
            self.config.intra_launch_jobs = jobs.max(1);
        }
        promoted
    }

    fn scratch_setup_cost(&mut self, out_ids: &[BufferId]) -> SimDuration {
        let mut cost = SimDuration::ZERO;
        for id in out_ids {
            let state = self.buffers.state(*id);
            let len = state.len;
            let bytes = state.bytes();
            let snapshot_current = state.orig_snapshot_current;
            // Under dirty-range transfers a stale snapshot only re-copies
            // the ranges the GPU copy changed since the last refresh.
            let refresh_bytes = if self.config.dirty_range_transfers {
                state.snapshot_refresh_bytes()
            } else {
                bytes
            };
            // Two scratch buffers per modified buffer: the CPU-data landing
            // area and the pristine original (paper §4.1).
            for _ in 0..2 {
                if !self.pool.acquire(len) {
                    cost += self.machine.gpu.buffer_create_time(bytes);
                }
            }
            // Snapshot the original on the GPU unless the previous kernel's
            // end-of-kernel copy already did (paper §5.5).
            if !snapshot_current {
                let copy_ns = 2.0 * refresh_bytes as f64 / self.machine.gpu.peak_mem_bytes_per_ns();
                cost += SimDuration::from_nanos(copy_ns as u64);
            }
        }
        cost
    }

    fn release_scratch(&mut self, out_ids: &[BufferId]) {
        for id in out_ids {
            let len = self.buffers.state(*id).len;
            self.pool.release(len);
            self.pool.release(len);
        }
    }

    /// Re-establishes cross-device coherence on the output buffers of a
    /// kernel that failed mid-flight: the two copies have diverged (partial
    /// CPU subkernels vs partial GPU waves, no merge), which would poison
    /// the *next* kernel's diff-merge. The GPU copy is taken as the
    /// authority — exactly what its "original" scratch snapshot would hold.
    fn restore_coherence(&mut self, out_ids: &[BufferId]) {
        for id in out_ids {
            // Both memories allocated this id at create_buffer; a missing
            // entry here means the failure happened before any divergence.
            let Ok(gpu) = self.gpu_mem.get(*id) else {
                continue;
            };
            let gpu = gpu.to_vec();
            let _ = self.cpu_mem.write(*id, &gpu);
        }
    }

    /// Executes a kernel on the single surviving device after a permanent
    /// device loss: no co-execution, no subkernels, no transfers — the
    /// paper's protocol degrades to plain single-device OpenCL.
    fn enqueue_degraded(
        &mut self,
        kernel: &str,
        launch: &Launch,
        in_ids: &[BufferId],
        out_ids: &[BufferId],
        kid: KernelId,
        survivor: DeviceKind,
    ) -> ClResult<()> {
        let total = launch.ndrange.num_groups();
        let items = launch.ndrange.items_per_group();
        let profile = &launch.kernel.default_version().profile;
        let mut trace = vec![TraceEvent {
            at: self.host_clock,
            // A degraded run has no CPU/transfer overlap to speak of; its
            // trace always reads as the serial protocol.
            kind: TraceKind::Enqueued {
                total_wgs: total,
                pipeline_depth: 1,
            },
        }];
        let mut all_bufs: Vec<BufferId> = in_ids.to_vec();
        all_bufs.extend(out_ids.iter().copied());
        let (start, duration, finisher) = match survivor {
            DeviceKind::Cpu => {
                let start = self.buffers.cpu_ready_time(&all_bufs).max(self.host_clock);
                let dur =
                    self.machine
                        .cpu
                        .subkernel_time(profile, items, total, self.config.wg_split);
                (start, dur, Finisher::Cpu)
            }
            DeviceKind::Gpu => {
                let start = self
                    .buffers
                    .gpu_ready_time(&all_bufs)
                    .max(self.gpu_free)
                    .max(self.host_clock)
                    + self.machine.gpu.launch_overhead();
                let dur =
                    self.machine
                        .gpu
                        .range_time(profile, items, total, self.config.abort_mode);
                (start, dur, Finisher::Gpu)
            }
        };
        let mem = match survivor {
            DeviceKind::Cpu => &mut self.cpu_mem,
            DeviceKind::Gpu => &mut self.gpu_mem,
        };
        let exec = execute_groups_injected(
            launch,
            mem,
            0,
            total,
            self.config.intra_launch_jobs,
            self.injector.as_ref(),
            survivor,
        );
        if let Err(e) = exec {
            if matches!(e, ClError::DeviceLost { .. }) {
                self.fatal = Some(e.clone());
            }
            return Err(e);
        }
        let complete_at = start + duration;
        trace.push(TraceEvent {
            at: start,
            kind: match survivor {
                DeviceKind::Cpu => TraceKind::EpDegradedRun {
                    dev: 0,
                    from: 0,
                    to: total,
                },
                DeviceKind::Gpu => TraceKind::DegradedRun { from: 0, to: total },
            },
        });
        trace.push(TraceEvent {
            at: complete_at,
            kind: TraceKind::KernelComplete { finisher },
        });
        let report = KernelReport {
            kernel: kernel.to_string(),
            kernel_id: kid,
            enqueued_at: self.host_clock,
            complete_at,
            total_wgs: total,
            gpu_executed_wgs: if survivor == DeviceKind::Gpu {
                total
            } else {
                0
            },
            cpu_executed_wgs: if survivor == DeviceKind::Cpu {
                total
            } else {
                0
            },
            cpu_merged_wgs: 0,
            subkernels: 0,
            subkernel_log: Vec::new(),
            hd_bytes: 0,
            dh_bytes: 0,
            // A degraded run still reports the version online profiling
            // settled on before the loss — selection is runtime state, not
            // per-kernel state, so the report must not reset it to 0.
            cpu_version_used: self.last_cpu_version,
            peer_executed_wgs: Vec::new(),
            finished_by: finisher,
            duration: complete_at.saturating_since(self.host_clock),
            trace,
            launch_meta: Some(LaunchMeta {
                ndrange: launch.ndrange,
                scalars: launch.plan()?.scalars.clone(),
                out_lens: out_ids
                    .iter()
                    .map(|id| self.buffers.state(*id).len)
                    .collect(),
            }),
        };
        if self.config.validate_protocol {
            let diags = crate::lint::lint_report(&report);
            if let Some(first) = diags
                .iter()
                .find(|d| d.severity == crate::lint::LintSeverity::Error)
            {
                return Err(ClError::ProtocolViolation {
                    kernel: kernel.to_string(),
                    detail: format!("{first} ({} finding(s) total)", diags.len()),
                });
            }
        }
        if let Some(hook) = &self.config.report_hook {
            let diags = hook.run(&report);
            if let Some(first) = diags
                .iter()
                .find(|d| d.severity == crate::lint::LintSeverity::Error)
            {
                return Err(ClError::ProtocolViolation {
                    kernel: kernel.to_string(),
                    detail: format!("{first} ({} finding(s) total)", diags.len()),
                });
            }
        }
        self.host_clock = complete_at;
        for id in out_ids {
            match survivor {
                DeviceKind::Cpu => self.buffers.record_cpu_arrival(*id, kid, complete_at),
                DeviceKind::Gpu => {
                    self.gpu_free = complete_at;
                    self.buffers.record_gpu_arrival(*id, kid, complete_at);
                }
            }
        }
        self.reports.push(report);
        Ok(())
    }

    /// Executes a kernel alone on a surviving peer GPU after both the CPU
    /// and the primary GPU are gone. The peer starts from a clean slate, so
    /// it pays a host-to-device broadcast of the launch buffers before the
    /// range; functionally the results land in the authoritative host copy
    /// (host memory outlives its compute device), which is what
    /// `read_buffer` serves once the primary GPU is dead. The fault plan's
    /// device kills target the primary CPU/GPU pair and both have already
    /// fired, so the run itself is not subject to further injection.
    fn enqueue_peer_degraded(
        &mut self,
        kernel: &str,
        launch: &Launch,
        in_ids: &[BufferId],
        out_ids: &[BufferId],
        kid: KernelId,
        slot: &PeerSlot,
    ) -> ClResult<()> {
        let total = launch.ndrange.num_groups();
        let items = launch.ndrange.items_per_group();
        let profile = &launch.kernel.default_version().profile;
        let mut all_bufs: Vec<BufferId> = in_ids.to_vec();
        all_bufs.extend(out_ids.iter().copied());
        let mut broadcast_bytes = 0u64;
        let mut seen: Vec<BufferId> = Vec::new();
        for id in &all_bufs {
            if seen.contains(id) {
                continue;
            }
            seen.push(*id);
            broadcast_bytes += self.buffers.state(*id).bytes();
        }
        let start = self
            .buffers
            .cpu_ready_time(&all_bufs)
            .max(self.gpu_free)
            .max(self.host_clock)
            + slot.peer.h2d.transfer_time(broadcast_bytes)
            + slot.peer.gpu.launch_overhead();
        let duration = slot
            .peer
            .gpu
            .range_time(profile, items, total, self.config.abort_mode);
        execute_groups_injected(
            launch,
            &mut self.cpu_mem,
            0,
            total,
            self.config.intra_launch_jobs,
            None,
            DeviceKind::Gpu,
        )?;
        let complete_at = start + duration;
        let trace = vec![
            TraceEvent {
                at: self.host_clock,
                kind: TraceKind::Enqueued {
                    total_wgs: total,
                    pipeline_depth: 1,
                },
            },
            TraceEvent {
                at: start,
                kind: TraceKind::EpDegradedRun {
                    dev: slot.dev,
                    from: 0,
                    to: total,
                },
            },
            TraceEvent {
                at: complete_at,
                kind: TraceKind::KernelComplete {
                    finisher: Finisher::Gpu,
                },
            },
        ];
        let report = KernelReport {
            kernel: kernel.to_string(),
            kernel_id: kid,
            enqueued_at: self.host_clock,
            complete_at,
            total_wgs: total,
            gpu_executed_wgs: 0,
            cpu_executed_wgs: 0,
            cpu_merged_wgs: 0,
            subkernels: 0,
            subkernel_log: Vec::new(),
            hd_bytes: 0,
            dh_bytes: 0,
            cpu_version_used: self.last_cpu_version,
            peer_executed_wgs: vec![total],
            finished_by: Finisher::Gpu,
            duration: complete_at.saturating_since(self.host_clock),
            trace,
            launch_meta: Some(LaunchMeta {
                ndrange: launch.ndrange,
                scalars: launch.plan()?.scalars.clone(),
                out_lens: out_ids
                    .iter()
                    .map(|id| self.buffers.state(*id).len)
                    .collect(),
            }),
        };
        if self.config.validate_protocol {
            let diags = crate::lint::lint_report(&report);
            if let Some(first) = diags
                .iter()
                .find(|d| d.severity == crate::lint::LintSeverity::Error)
            {
                return Err(ClError::ProtocolViolation {
                    kernel: kernel.to_string(),
                    detail: format!("{first} ({} finding(s) total)", diags.len()),
                });
            }
        }
        if let Some(hook) = &self.config.report_hook {
            let diags = hook.run(&report);
            if let Some(first) = diags
                .iter()
                .find(|d| d.severity == crate::lint::LintSeverity::Error)
            {
                return Err(ClError::ProtocolViolation {
                    kernel: kernel.to_string(),
                    detail: format!("{first} ({} finding(s) total)", diags.len()),
                });
            }
        }
        self.host_clock = complete_at;
        self.gpu_free = complete_at;
        for id in out_ids {
            self.buffers.record_cpu_arrival(*id, kid, complete_at);
        }
        self.reports.push(report);
        Ok(())
    }

    /// Runs the per-report protocol gates ([`FluidiclConfig::validate_protocol`]
    /// and the report hook) and converts the first error-severity finding
    /// into a typed [`ClError::ProtocolViolation`].
    fn gate_report(&self, kernel: &str, report: &KernelReport) -> ClResult<()> {
        if self.config.validate_protocol {
            let diags = crate::lint::lint_report(report);
            if let Some(first) = diags
                .iter()
                .find(|d| d.severity == crate::lint::LintSeverity::Error)
            {
                return Err(ClError::ProtocolViolation {
                    kernel: kernel.to_string(),
                    detail: format!("{first} ({} finding(s) total)", diags.len()),
                });
            }
        }
        if let Some(hook) = &self.config.report_hook {
            let diags = hook.run(report);
            if let Some(first) = diags
                .iter()
                .find(|d| d.severity == crate::lint::LintSeverity::Error)
            {
                return Err(ClError::ProtocolViolation {
                    kernel: kernel.to_string(),
                    detail: format!("{first} ({} finding(s) total)", diags.len()),
                });
            }
        }
        Ok(())
    }

    /// Validates a launch and parks it in the pending kernel graph instead
    /// of executing it (graph scheduling, ISSUE 10). Signature, scalar and
    /// buffer-handle errors still surface at enqueue time, exactly like the
    /// eager path; only execution is deferred.
    fn graph_defer(&mut self, kernel: &str, ndrange: NdRange, args: &[KernelArg]) -> ClResult<()> {
        let def = self.program.kernel(kernel)?;
        let launch = Launch::new(def, ndrange, args.to_vec());
        let in_ids = launch.input_buffers()?;
        let out_ids = launch.output_buffers()?;
        for id in in_ids.iter().chain(out_ids.iter()) {
            self.buffers.try_state(*id)?;
        }
        self.pending.push(PendingLaunch {
            kernel: kernel.to_string(),
            ndrange,
            args: args.to_vec(),
        });
        Ok(())
    }

    /// Executes every deferred launch according to a HEFT placement over
    /// the kernel dependence graph, then clears the pending queue.
    ///
    /// Called automatically before any buffer read or write; applications
    /// may also call it directly as an explicit synchronization point.
    /// Reports, kernel times and the clock only reflect deferred launches
    /// once a flush has run, so query statistics after the flush (or after
    /// the buffer read that forced it).
    ///
    /// # Errors
    ///
    /// Propagates execution and protocol-gate errors from the flushed
    /// nodes; nodes already executed when the error surfaces stay
    /// executed, and the remaining pending launches are dropped.
    pub fn flush_graph(&mut self) -> ClResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let pending = std::mem::take(&mut self.pending);
        let n = pending.len();
        // Footprints and dependence edges over the deferred launches.
        let mut accesses = Vec::with_capacity(n);
        for p in &pending {
            let def = self.program.kernel(&p.kernel)?;
            let launch = Launch::new(def, p.ndrange, p.args.clone());
            let buffers = &self.buffers;
            accesses.push(graph::node_access(&launch, |id| buffers.state(id).len)?);
        }
        let edges = graph::build_edges(&accesses);
        // Execution lanes: lane 0 is the owner co-execution path, lane
        // p >= 1 is a healthy peer GPU running nodes alone.
        let peer_cap = self
            .config
            .devices
            .map_or(self.machine.peers.len(), |n| n.saturating_sub(2));
        let peers: Vec<PeerSlot> = self
            .machine
            .peers
            .iter()
            .take(peer_cap)
            .enumerate()
            .map(|(i, p)| PeerSlot {
                dev: i as u32 + 1,
                peer: p.clone(),
            })
            .filter(|s| !self.roster.peer_dead(s.dev))
            .collect();
        let lanes = 1 + peers.len();
        // HEFT node weights: the profiled EWMA estimate when the (kernel,
        // lane) pair has run before, a device-model seed otherwise (the
        // paper's offline profiling trials, §6.6).
        let mut weights = Vec::with_capacity(n);
        for (i, p) in pending.iter().enumerate() {
            let def = self.program.kernel(&p.kernel)?;
            let profile = def.default_version().profile.clone();
            let total = p.ndrange.num_groups();
            let items = p.ndrange.items_per_group();
            let mut bytes = 0u64;
            let mut seen: Vec<BufferId> = Vec::new();
            for (id, _) in accesses[i].reads.iter().chain(accesses[i].writes.iter()) {
                if !seen.contains(id) {
                    seen.push(*id);
                    bytes += self.buffers.state(*id).bytes();
                }
            }
            let mut row = Vec::with_capacity(lanes);
            let owner_seed = self
                .machine
                .gpu
                .range_time(&profile, items, total, self.config.abort_mode)
                .as_nanos();
            row.push(self.weights.estimate_ns(&p.kernel, 0, owner_seed));
            for (l, slot) in peers.iter().enumerate() {
                // A peer starts from a clean slate: broadcast + launch +
                // range (mirrors the peer-degraded cost model).
                let seed = slot.peer.h2d.transfer_time(bytes).as_nanos()
                    + slot.peer.gpu.launch_overhead().as_nanos()
                    + slot
                        .peer
                        .gpu
                        .range_time(&profile, items, total, self.config.abort_mode)
                        .as_nanos();
                row.push(self.weights.estimate_ns(&p.kernel, l + 1, seed));
            }
            weights.push(row);
        }
        // Edge weights: only a true dependence moves data across lanes;
        // anti/output edges order execution but transfer nothing.
        let heft_edges: Vec<HeftEdge> = edges
            .iter()
            .map(|e| HeftEdge {
                from: e.from,
                to: e.to,
                cost_ns: if e.kind == graph::DepKind::True {
                    self.machine.h2d.transfer_time(e.overlap_bytes).as_nanos()
                } else {
                    0
                },
            })
            .collect();
        let plan = heft::plan(&weights, &heft_edges);
        // Execute in rank order. Every edge kind serializes its endpoints
        // (conservative: anti/output deps wait for full completion too), so
        // memory effects match the serial enqueue order exactly.
        let flush_at = self.host_clock;
        let mut node_start = vec![SimTime::ZERO; n];
        let mut node_complete = vec![SimTime::ZERO; n];
        let mut node_kid = vec![0u64; n];
        let mut lane_free = vec![flush_at; lanes];
        for &node in &plan.order {
            let p = &pending[node];
            let dep_ready = edges
                .iter()
                .filter(|e| e.to == node)
                .map(|e| node_complete[e.from])
                .fold(flush_at, SimTime::max);
            let lane = plan.lane[node];
            let kid = self.next_kernel_id;
            self.next_kernel_id += 1;
            let ready = dep_ready.max(lane_free[lane]);
            let (start, complete) = if lane == 0 {
                self.graph_run_owner(p, kid, ready, flush_at)?
            } else {
                let slot = peers[lane - 1].clone();
                self.graph_run_peer(node, p, kid, &slot, ready, flush_at)?
            };
            lane_free[lane] = complete;
            node_start[node] = start;
            node_complete[node] = complete;
            node_kid[node] = kid;
            self.weights
                .observe_ns(&p.kernel, lane, complete.saturating_since(start).as_nanos());
        }
        self.host_clock = node_complete.iter().copied().fold(flush_at, SimTime::max);
        let nodes = (0..n)
            .map(|i| GraphNodeSummary {
                node: i,
                kernel: pending[i].kernel.clone(),
                kernel_id: node_kid[i],
                lane: plan.lane[i],
                start_at: node_start[i],
                complete_at: node_complete[i],
                reads: accesses[i].reads.clone(),
                writes: accesses[i].writes.clone(),
            })
            .collect();
        self.graph_schedules.push(GraphSchedule { nodes, edges });
        Ok(())
    }

    /// Executes one graph node on lane 0: the full owner co-execution path
    /// (CPU subkernels + owner GPU under the fluidic protocol), floored at
    /// `ready` so dependence edges and lane occupancy are respected.
    fn graph_run_owner(
        &mut self,
        p: &PendingLaunch,
        kid: KernelId,
        ready: SimTime,
        flush_at: SimTime,
    ) -> ClResult<(SimTime, SimTime)> {
        let def = self.program.kernel(&p.kernel)?;
        let launch = Launch::new(def, p.ndrange, p.args.to_vec());
        let in_ids = launch.input_buffers()?;
        let out_ids = launch.output_buffers()?;
        for id in &out_ids {
            self.buffers.begin_kernel_write(*id, kid);
        }
        let mut cpu_inputs = in_ids.clone();
        cpu_inputs.extend(out_ids.iter().copied());
        let cpu_ready = self.buffers.cpu_ready_time(&cpu_inputs).max(ready);
        let mut all_bufs = in_ids;
        all_bufs.extend(out_ids.iter().copied());
        let gpu_ready = self.buffers.gpu_ready_time(&all_bufs).max(ready);
        let scratch_setup = self.scratch_setup_cost(&out_ids);
        let input = CoexecInput {
            machine: &self.machine,
            config: &self.config,
            launch: &launch,
            kernel_id: kid,
            enqueue_at: flush_at,
            gpu_start: gpu_ready.max(self.gpu_free),
            cpu_start: cpu_ready,
            scratch_setup,
            hd_free: self.hd_free,
            dh_free: self.dh_free,
            cpu_mem: &mut self.cpu_mem,
            gpu_mem: &mut self.gpu_mem,
            snapshots: &mut self.snapshots,
            // Sibling graph nodes occupy the peers; this node co-executes
            // on the owner and the CPU alone.
            peers: Vec::new(),
            injector: None,
            dead_cpu: false,
        };
        let outcome = match Coexec::new(input).and_then(Coexec::run) {
            Ok(outcome) => outcome,
            Err(e) => {
                self.release_scratch(&out_ids);
                self.restore_coherence(&out_ids);
                return Err(e);
            }
        };
        if let Err(e) = self.gate_report(&p.kernel, &outcome.report) {
            self.release_scratch(&out_ids);
            return Err(e);
        }
        self.gpu_free = outcome.gpu_busy_until;
        self.hd_free = outcome.hd_free;
        self.dh_free = outcome.dh_free;
        for id in &out_ids {
            self.buffers
                .record_cpu_arrival(*id, kid, outcome.cpu_results_at);
            self.buffers
                .record_gpu_arrival(*id, kid, outcome.gpu_results_at);
            self.buffers.state_mut(*id).orig_snapshot_current = true;
            if self.config.dirty_range_transfers {
                let len = self.buffers.state(*id).len;
                self.buffers.record_kernel_dirty(
                    *id,
                    DirtyTracker::new(len),
                    DirtyTracker::new(len),
                );
            }
        }
        self.release_scratch(&out_ids);
        self.last_cpu_version = outcome.report.cpu_version_used;
        let complete = outcome.complete_at;
        self.reports.push(outcome.report);
        Ok((ready, complete))
    }

    /// Executes one graph node alone on peer GPU `slot` (lane `>= 1`).
    /// Mirrors the peer-degraded cost model: the peer starts from a clean
    /// slate, so it pays a host-to-device broadcast of the launch buffers
    /// over its own link before the range. Results land in the
    /// authoritative host copy and are mirrored into the owner-GPU address
    /// space, whose arrival is charged one primary-link transfer (the
    /// refresh rides the link without occupying it — a deliberate
    /// simplification, like host writes' DMA).
    fn graph_run_peer(
        &mut self,
        node: usize,
        p: &PendingLaunch,
        kid: KernelId,
        slot: &PeerSlot,
        ready: SimTime,
        flush_at: SimTime,
    ) -> ClResult<(SimTime, SimTime)> {
        let def = self.program.kernel(&p.kernel)?;
        let launch = Launch::new(def, p.ndrange, p.args.to_vec());
        let in_ids = launch.input_buffers()?;
        let out_ids = launch.output_buffers()?;
        for id in &out_ids {
            self.buffers.begin_kernel_write(*id, kid);
        }
        let total = launch.ndrange.num_groups();
        let items = launch.ndrange.items_per_group();
        let profile = &launch.kernel.default_version().profile;
        let mut all_bufs: Vec<BufferId> = in_ids.clone();
        all_bufs.extend(out_ids.iter().copied());
        let mut broadcast_bytes = 0u64;
        let mut seen: Vec<BufferId> = Vec::new();
        for id in &all_bufs {
            if seen.contains(id) {
                continue;
            }
            seen.push(*id);
            broadcast_bytes += self.buffers.state(*id).bytes();
        }
        // The host copy is the broadcast source: wait for it and for the
        // graph dependences folded into `ready`.
        let start = self.buffers.cpu_ready_time(&all_bufs).max(ready)
            + slot.peer.h2d.transfer_time(broadcast_bytes)
            + slot.peer.gpu.launch_overhead();
        let duration = slot
            .peer
            .gpu
            .range_time(profile, items, total, self.config.abort_mode);
        execute_groups_injected(
            &launch,
            &mut self.cpu_mem,
            0,
            total,
            self.config.intra_launch_jobs,
            None,
            DeviceKind::Gpu,
        )?;
        // Mirror the results into the owner-GPU address space so later
        // owner-lane nodes read coherent data.
        for id in &out_ids {
            let data = self.cpu_mem.get(*id)?.to_vec();
            self.gpu_mem.write(*id, &data)?;
        }
        let complete_at = start + duration;
        let trace = vec![
            TraceEvent {
                at: flush_at,
                kind: TraceKind::Enqueued {
                    total_wgs: total,
                    pipeline_depth: 1,
                },
            },
            TraceEvent {
                at: start,
                kind: TraceKind::GraphRun {
                    node: node as u32,
                    dev: slot.dev,
                    from: 0,
                    to: total,
                },
            },
            TraceEvent {
                at: complete_at,
                kind: TraceKind::KernelComplete {
                    finisher: Finisher::Gpu,
                },
            },
        ];
        let report = KernelReport {
            kernel: p.kernel.clone(),
            kernel_id: kid,
            enqueued_at: flush_at,
            complete_at,
            total_wgs: total,
            gpu_executed_wgs: 0,
            cpu_executed_wgs: 0,
            cpu_merged_wgs: 0,
            subkernels: 0,
            subkernel_log: Vec::new(),
            hd_bytes: 0,
            dh_bytes: 0,
            cpu_version_used: self.last_cpu_version,
            peer_executed_wgs: vec![total],
            finished_by: Finisher::Gpu,
            duration: complete_at.saturating_since(flush_at),
            trace,
            launch_meta: Some(LaunchMeta {
                ndrange: launch.ndrange,
                scalars: launch.plan()?.scalars.clone(),
                out_lens: out_ids
                    .iter()
                    .map(|id| self.buffers.state(*id).len)
                    .collect(),
            }),
        };
        self.gate_report(&p.kernel, &report)?;
        for id in &out_ids {
            self.buffers.record_cpu_arrival(*id, kid, complete_at);
            let bytes = self.buffers.state(*id).bytes();
            self.buffers.record_gpu_arrival(
                *id,
                kid,
                complete_at + self.machine.h2d.transfer_time(bytes),
            );
        }
        self.reports.push(report);
        Ok((start, complete_at))
    }
}

/// Parses a disjoint-writes proof manifest (the JSON emitted by
/// `fluidicl-check --emit-disjoint`, of the form
/// `{"proven": ["kernel_a", "kernel_b"]}`) and returns the proven kernel
/// names. The parser is deliberately tolerant — whitespace, trailing
/// commas and unknown sibling keys are all accepted; a missing or
/// malformed `proven` array yields an empty list rather than an error, so
/// a stale or hand-edited manifest can never break a run.
///
/// # Examples
///
/// ```
/// use fluidicl::parse_disjoint_manifest;
///
/// let names = parse_disjoint_manifest(r#"{ "proven": ["atax_1", "gemm"] }"#);
/// assert_eq!(names, vec!["atax_1".to_string(), "gemm".to_string()]);
/// assert!(parse_disjoint_manifest("not json").is_empty());
/// ```
pub fn parse_disjoint_manifest(text: &str) -> Vec<String> {
    let Some(key) = text.find("\"proven\"") else {
        return Vec::new();
    };
    let after_key = &text[key + "\"proven\"".len()..];
    let Some(open) = after_key.find('[') else {
        return Vec::new();
    };
    let body = &after_key[open + 1..];
    let Some(close) = body.find(']') else {
        return Vec::new();
    };
    body[..close]
        .split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

impl ClDriver for Fluidicl {
    fn create_buffer(&mut self, len: usize) -> BufferId {
        // clCreateBuffer allocates on both devices (paper §4.1); the GPU
        // allocation dominates the cost.
        let t = self.machine.gpu.buffer_create_time(len as u64 * 4);
        self.host_clock += t;
        let id = self.buffers.register(len, self.host_clock);
        self.cpu_mem.alloc(id, len);
        self.gpu_mem.alloc(id, len);
        id
    }

    fn write_buffer(&mut self, id: BufferId, data: &[f32]) -> ClResult<()> {
        // A host write is a synchronization point for the kernel graph:
        // deferred launches that touch this buffer must run first.
        self.flush_graph()?;
        self.cpu_mem.write(id, data)?;
        self.gpu_mem.write(id, data)?;
        let bytes = data.len() as u64 * 4;
        // One clEnqueueWriteBuffer becomes two: a host-side copy for the CPU
        // device and an h2d transfer for the GPU (paper §4.1). The h2d is
        // DMA on the in-order hd queue; the host only performs the copy,
        // and whoever needs the GPU copy waits for its arrival (§5.5).
        // After a permanent GPU loss nothing crosses the link any more.
        let cpu_at = self.host_clock + self.machine.host.copy_time(bytes);
        let gpu_at = if !self.roster.gpu_healthy() {
            // A re-formed acting owner re-broadcasts its launch buffers per
            // kernel, so host writes stop paying the primary link here.
            cpu_at
        } else {
            let at = self.hd_free.max(self.host_clock) + self.machine.h2d.transfer_time(bytes);
            self.hd_free = at;
            at
        };
        self.buffers.record_host_write(id, cpu_at, gpu_at);
        self.host_clock = cpu_at;
        Ok(())
    }

    fn enqueue_kernel(
        &mut self,
        kernel: &str,
        ndrange: NdRange,
        args: &[KernelArg],
    ) -> ClResult<()> {
        if let Some(fatal) = &self.fatal {
            // Both devices are gone; nothing can execute. The original
            // failure is replayed so the application sees a stable error.
            return Err(fatal.clone());
        }
        // Kernel-graph scheduling: defer into the DAG instead of executing
        // now. Fault plans keep the eager path — the watchdog/failover
        // protocol is defined over immediate execution order.
        if self.config.graph_scheduling && self.injector.is_none() {
            return self.graph_defer(kernel, ndrange, args);
        }
        let def = self.program.kernel(kernel)?;
        let launch = Launch::new(def, ndrange, args.to_vec());
        let in_ids = launch.input_buffers()?;
        let out_ids = launch.output_buffers()?;
        // Reject forged buffer handles up front with a typed error; every
        // later table access on this path may then index infallibly.
        for id in in_ids.iter().chain(out_ids.iter()) {
            self.buffers.try_state(*id)?;
        }
        let kid = self.next_kernel_id;
        self.next_kernel_id += 1;
        for id in &out_ids {
            self.buffers.begin_kernel_write(*id, kid);
        }
        // Peer GPUs joining this launch: every peer the machine declares,
        // capped by `config.devices`, minus peers lost in earlier kernels.
        // Dev indices are stable (peer slot + 1), so traces and reports
        // name the same card across kernels even after losses.
        let peer_cap = self
            .config
            .devices
            .map_or(self.machine.peers.len(), |n| n.saturating_sub(2));
        let peers: Vec<PeerSlot> = self
            .machine
            .peers
            .iter()
            .take(peer_cap)
            .enumerate()
            .map(|(i, p)| PeerSlot {
                dev: i as u32 + 1,
                peer: p.clone(),
            })
            .filter(|s| !self.roster.peer_dead(s.dev))
            .collect();
        // Roster dispatch: after a loss, follow-on kernels re-form and
        // co-execute on every healthy survivor; a single survivor executes
        // the whole NDRange as a plain single-device launch; no survivor is
        // a stable typed error.
        let cpu_ok = self.roster.cpu_healthy();
        let gpu_ok = self.roster.gpu_healthy();
        match (cpu_ok, gpu_ok, peers.is_empty()) {
            (false, false, true) => {
                let e = ClError::DeviceLost {
                    device: DeviceKind::Gpu,
                    detail: "no healthy device remains to execute the kernel".into(),
                };
                self.fatal = Some(e.clone());
                return Err(e);
            }
            (false, false, false) => {
                let slot = peers[0].clone();
                return self.enqueue_peer_degraded(kernel, &launch, &in_ids, &out_ids, kid, &slot);
            }
            (true, false, true) => {
                return self.enqueue_degraded(
                    kernel,
                    &launch,
                    &in_ids,
                    &out_ids,
                    kid,
                    DeviceKind::Cpu,
                );
            }
            (false, true, true) => {
                return self.enqueue_degraded(
                    kernel,
                    &launch,
                    &in_ids,
                    &out_ids,
                    kid,
                    DeviceKind::Gpu,
                );
            }
            // At least two healthy devices remain: co-execute below, with a
            // dead CPU endpoint and/or a re-formed acting owner as needed.
            _ => {}
        }
        let reformed = !gpu_ok;
        let dead_cpu = !cpu_ok;
        // The CPU scheduler waits for its inputs (In + InOut) to be current
        // (paper §5.3); `begin_kernel_write` just reset InOut readiness, so
        // compute from the pre-kernel ready times via in_ids plus the InOut
        // subset captured before the reset — InOut buffers appear in
        // out_ids, whose cpu_ready_at we read below *before* any update.
        let mut cpu_inputs = in_ids.clone();
        cpu_inputs.extend(out_ids.iter().copied());
        let cpu_ready = self.buffers.cpu_ready_time(&cpu_inputs);
        let mut all_bufs = in_ids;
        all_bufs.extend(out_ids.iter().copied());
        let gpu_ready = self.buffers.gpu_ready_time(&all_bufs);
        let scratch_setup = self.scratch_setup_cost(&out_ids);
        // Owner re-formation: with the primary GPU gone but peers alive,
        // the first healthy peer takes the owner slot of a synthetic
        // machine and the remaining peers keep their endpoint indices. The
        // acting owner starts each kernel from a clean slate, so its launch
        // buffers are re-broadcast host-to-device — functionally, the
        // device copy is refreshed from the authoritative host copy
        // *before* the engine snapshots originals from it.
        let mut coexec_peers = peers;
        let mut reformed_machine: Option<MachineConfig> = None;
        let mut acting_dev: Option<u32> = None;
        let mut gpu_start = gpu_ready.max(self.gpu_free);
        if reformed {
            let acting = coexec_peers.remove(0);
            let mut broadcast_bytes = 0u64;
            let mut seen: Vec<BufferId> = Vec::new();
            for id in &all_bufs {
                if seen.contains(id) {
                    continue;
                }
                seen.push(*id);
                let data = self.cpu_mem.get(*id)?.to_vec();
                broadcast_bytes += data.len() as u64 * 4;
                self.gpu_mem.write(*id, &data)?;
            }
            gpu_start = gpu_start.max(cpu_ready).max(self.host_clock)
                + acting.peer.h2d.transfer_time(broadcast_bytes);
            reformed_machine = Some(MachineConfig {
                cpu: self.machine.cpu.clone(),
                gpu: acting.peer.gpu.clone(),
                h2d: acting.peer.h2d.clone(),
                d2h: acting.peer.d2h.clone(),
                host: self.machine.host.clone(),
                peers: Vec::new(),
            });
            acting_dev = Some(acting.dev);
        }
        let input = CoexecInput {
            machine: reformed_machine.as_ref().unwrap_or(&self.machine),
            config: &self.config,
            launch: &launch,
            kernel_id: kid,
            enqueue_at: self.host_clock,
            gpu_start,
            cpu_start: cpu_ready,
            scratch_setup,
            hd_free: self.hd_free,
            dh_free: self.dh_free,
            cpu_mem: &mut self.cpu_mem,
            gpu_mem: &mut self.gpu_mem,
            snapshots: &mut self.snapshots,
            peers: coexec_peers,
            injector: self.injector.as_mut(),
            dead_cpu,
        };
        let outcome = match Coexec::new(input).and_then(Coexec::run) {
            Ok(outcome) => outcome,
            Err(e) => {
                // The launch is abandoned: return the scratch buffers the
                // setup acquired (snapshot allocations were drained inside
                // the engine) and re-align the two address spaces so a
                // later kernel's diff-merge cannot fold stale divergence.
                self.release_scratch(&out_ids);
                self.restore_coherence(&out_ids);
                if matches!(e, ClError::DeviceLost { .. }) {
                    self.fatal = Some(e.clone());
                }
                return Err(e);
            }
        };
        if self.config.validate_protocol {
            let diags = crate::lint::lint_report(&outcome.report);
            if let Some(first) = diags
                .iter()
                .find(|d| d.severity == crate::lint::LintSeverity::Error)
            {
                self.release_scratch(&out_ids);
                return Err(ClError::ProtocolViolation {
                    kernel: kernel.to_string(),
                    detail: format!("{first} ({} finding(s) total)", diags.len()),
                });
            }
        }
        if let Some(hook) = &self.config.report_hook {
            let diags = hook.run(&outcome.report);
            if let Some(first) = diags
                .iter()
                .find(|d| d.severity == crate::lint::LintSeverity::Error)
            {
                self.release_scratch(&out_ids);
                return Err(ClError::ProtocolViolation {
                    kernel: kernel.to_string(),
                    detail: format!("{first} ({} finding(s) total)", diags.len()),
                });
            }
        }
        self.host_clock = outcome.complete_at;
        self.gpu_free = outcome.gpu_busy_until;
        self.hd_free = outcome.hd_free;
        self.dh_free = outcome.dh_free;
        // On a re-formed run the primary card stays dead and its buffer
        // tracking stays frozen — the next launch re-broadcasts anyway.
        let record_gpu = !reformed && !outcome.lost_gpu;
        for id in &out_ids {
            self.buffers
                .record_cpu_arrival(*id, kid, outcome.cpu_results_at);
            if record_gpu {
                self.buffers
                    .record_gpu_arrival(*id, kid, outcome.gpu_results_at);
                // The end-of-kernel copy refreshed the original snapshot
                // (paper §5.5).
                self.buffers.state_mut(*id).orig_snapshot_current = true;
                if self.config.dirty_range_transfers {
                    // The epilogue just refreshed the snapshot and the
                    // return path (D2H thread or CPU finish, §4.4) brought
                    // the host copy current, so both dirty sets collapse to
                    // empty (tracker representation chosen by buffer size).
                    let len = self.buffers.state(*id).len;
                    self.buffers.record_kernel_dirty(
                        *id,
                        DirtyTracker::new(len),
                        DirtyTracker::new(len),
                    );
                }
            }
        }
        self.release_scratch(&out_ids);
        if outcome.lost_cpu {
            self.roster.lose_cpu();
        }
        if outcome.lost_gpu {
            // In a re-formed run the engine's "gpu" is the acting peer: its
            // loss costs that peer, not the (already dead) primary card.
            match acting_dev {
                Some(dev) => self.roster.lose_peer(dev),
                None => self.roster.lose_gpu(),
            }
        }
        for dev in outcome.lost_peers {
            self.roster.lose_peer(dev);
        }
        self.last_cpu_version = outcome.report.cpu_version_used;
        self.reports.push(outcome.report);
        Ok(())
    }

    fn read_buffer(&mut self, id: BufferId) -> ClResult<Vec<f32>> {
        // Reading a buffer forces any deferred kernel graph to execute.
        self.flush_graph()?;
        let state = self.buffers.try_state(id)?.clone();
        // After a device loss the surviving copy is the only valid one,
        // regardless of what location tracking would prefer. With the
        // primary GPU dead the host copy is authoritative even if the CPU
        // device also died — host memory outlives its compute device, and
        // re-formed/peer-degraded runs mirror results into it.
        let use_cpu_copy = if !self.roster.gpu_healthy() {
            true
        } else if !self.roster.cpu_healthy() {
            false
        } else {
            self.config.location_tracking && !state.cpu_is_stale()
        };
        if use_cpu_copy {
            // Data-location tracking (paper §6.2): the device-to-host thread
            // (or a CPU-finished kernel) already placed the data on the CPU;
            // wait for it and hand it out without touching the link.
            let data = self.cpu_mem.get(id)?.to_vec();
            let bytes = data.len() as u64 * 4;
            self.host_clock =
                self.host_clock.max(state.cpu_ready_at) + self.machine.host.copy_time(bytes);
            Ok(data)
        } else {
            let data = self.gpu_mem.get(id)?.to_vec();
            // Under dirty-range transfers only the ranges where the host
            // copy is stale cross the link; the rest is already resident.
            let bytes = if self.config.dirty_range_transfers {
                state.read_back_bytes()
            } else {
                data.len() as u64 * 4
            };
            let start = self.host_clock.max(state.gpu_ready_at).max(self.dh_free);
            let arrival = start + self.machine.d2h.transfer_time(bytes);
            self.dh_free = arrival;
            self.host_clock = arrival;
            Ok(data)
        }
    }

    fn elapsed(&self) -> SimDuration {
        self.host_clock.saturating_since(SimTime::ZERO)
    }

    fn kernel_times(&self) -> Vec<(String, SimDuration)> {
        self.reports
            .iter()
            .map(|r| (r.kernel.clone(), r.duration))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidicl_hetsim::KernelProfile;
    use fluidicl_vcl::{ArgRole, ArgSpec, KernelDef};

    fn scale_program() -> Program {
        let mut p = Program::new();
        p.register(KernelDef::new(
            "scale",
            vec![
                ArgSpec::new("src", ArgRole::In),
                ArgSpec::new("dst", ArgRole::Out),
                ArgSpec::new("f", ArgRole::Scalar),
            ],
            KernelProfile::new("scale")
                .flops_per_item(4.0)
                .bytes_read_per_item(4.0)
                .bytes_written_per_item(4.0),
            |item, scalars, ins, outs| {
                let i = item.global_linear();
                outs.at(0)[i] = scalars.f32(0) * ins.get(0)[i];
            },
        ));
        p
    }

    fn runtime() -> Fluidicl {
        Fluidicl::new(
            MachineConfig::paper_testbed(),
            FluidiclConfig::default(),
            scale_program(),
        )
    }

    #[test]
    fn single_kernel_end_to_end() {
        let mut rt = runtime();
        let n = 4096;
        let src = rt.create_buffer(n);
        let dst = rt.create_buffer(n);
        let input: Vec<f32> = (0..n).map(|i| i as f32).collect();
        rt.write_buffer(src, &input).unwrap();
        rt.enqueue_kernel(
            "scale",
            NdRange::d1(n, 64).unwrap(),
            &[
                KernelArg::Buffer(src),
                KernelArg::Buffer(dst),
                KernelArg::F32(3.0),
            ],
        )
        .unwrap();
        let out = rt.read_buffer(dst).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 3.0 * i as f32);
        }
        assert!(!rt.elapsed().is_zero());
        assert_eq!(rt.reports().len(), 1);
        let r = &rt.reports()[0];
        assert_eq!(r.total_wgs, 64);
        assert!(r.gpu_executed_wgs + r.cpu_executed_wgs >= r.total_wgs);
    }

    #[test]
    fn chained_kernels_stay_coherent() {
        let mut rt = runtime();
        let n = 2048;
        let a = rt.create_buffer(n);
        let b = rt.create_buffer(n);
        rt.write_buffer(a, &vec![1.0; n]).unwrap();
        // a -> b (x2), b -> a (x2): a should end at 4.0.
        rt.enqueue_kernel(
            "scale",
            NdRange::d1(n, 64).unwrap(),
            &[
                KernelArg::Buffer(a),
                KernelArg::Buffer(b),
                KernelArg::F32(2.0),
            ],
        )
        .unwrap();
        rt.enqueue_kernel(
            "scale",
            NdRange::d1(n, 64).unwrap(),
            &[
                KernelArg::Buffer(b),
                KernelArg::Buffer(a),
                KernelArg::F32(2.0),
            ],
        )
        .unwrap();
        assert_eq!(rt.read_buffer(a).unwrap(), vec![4.0; n]);
        assert_eq!(rt.reports().len(), 2);
        // Kernel ids are assigned monotonically.
        assert!(rt.reports()[0].kernel_id < rt.reports()[1].kernel_id);
    }

    #[test]
    fn reports_and_summary_are_consistent() {
        let mut rt = runtime();
        let n = 1024;
        let a = rt.create_buffer(n);
        let b = rt.create_buffer(n);
        rt.write_buffer(a, &vec![1.0; n]).unwrap();
        rt.enqueue_kernel(
            "scale",
            NdRange::d1(n, 32).unwrap(),
            &[
                KernelArg::Buffer(a),
                KernelArg::Buffer(b),
                KernelArg::F32(1.5),
            ],
        )
        .unwrap();
        let summary = rt.summary();
        assert_eq!(summary.kernels, 1);
        assert_eq!(summary.total_wgs, 32);
        let times = rt.kernel_times();
        assert_eq!(times.len(), 1);
        assert_eq!(times[0].0, "scale");
    }

    #[test]
    fn location_tracking_skips_dh_transfer_on_reads() {
        let run = |tracking: bool| {
            // Whole-buffer transfers: the untracked read pays a full
            // device-to-host transfer, so the CPU-copy path must win. (With
            // dirty-range transfers the untracked read ships only stale
            // ranges, which can legitimately undercut a full-buffer host
            // memcpy — the tracked read's virtue there is staying off the
            // link, asserted separately below.)
            let mut rt = Fluidicl::new(
                MachineConfig::paper_testbed(),
                FluidiclConfig::default()
                    .with_whole_buffer_transfers()
                    .with_location_tracking(tracking),
                scale_program(),
            );
            let n = 1 << 16;
            let a = rt.create_buffer(n);
            let b = rt.create_buffer(n);
            rt.write_buffer(a, &vec![1.0; n]).unwrap();
            rt.enqueue_kernel(
                "scale",
                NdRange::d1(n, 64).unwrap(),
                &[
                    KernelArg::Buffer(a),
                    KernelArg::Buffer(b),
                    KernelArg::F32(2.0),
                ],
            )
            .unwrap();
            let v = rt.read_buffer(b).unwrap();
            assert_eq!(v[0], 2.0);
            rt.elapsed()
        };
        // Reading via the CPU copy must never be slower than an extra
        // device-to-host transfer.
        assert!(run(true) <= run(false));
    }

    #[test]
    fn location_tracking_keeps_reads_off_the_link() {
        let run = |tracking: bool| {
            let mut rt = Fluidicl::new(
                MachineConfig::paper_testbed(),
                FluidiclConfig::default().with_location_tracking(tracking),
                scale_program(),
            );
            let n = 1 << 16;
            let a = rt.create_buffer(n);
            let b = rt.create_buffer(n);
            rt.write_buffer(a, &vec![1.0; n]).unwrap();
            rt.enqueue_kernel(
                "scale",
                NdRange::d1(n, 64).unwrap(),
                &[
                    KernelArg::Buffer(a),
                    KernelArg::Buffer(b),
                    KernelArg::F32(2.0),
                ],
            )
            .unwrap();
            let before = rt.dh_free;
            let v = rt.read_buffer(b).unwrap();
            assert_eq!(v[0], 2.0);
            rt.dh_free > before
        };
        // Under the dirty-range default, the tracked read serves the CPU
        // copy without occupying the device-to-host link; the untracked
        // read pays a (ranged) transfer.
        assert!(!run(true), "tracked read must not touch the dh link");
        assert!(run(false), "untracked read pays a dh transfer");
    }

    #[test]
    fn snapshot_allocations_are_recycled_across_kernels() {
        let mut rt = runtime();
        let n = 2048;
        let a = rt.create_buffer(n);
        let b = rt.create_buffer(n);
        rt.write_buffer(a, &vec![1.0; n]).unwrap();
        for _ in 0..3 {
            rt.enqueue_kernel(
                "scale",
                NdRange::d1(n, 64).unwrap(),
                &[
                    KernelArg::Buffer(a),
                    KernelArg::Buffer(b),
                    KernelArg::F32(2.0),
                ],
            )
            .unwrap();
        }
        let (hits, misses) = rt.snapshot_stats();
        assert_eq!(misses, 1, "only the first kernel allocates a snapshot");
        assert_eq!(hits, 2, "later kernels reuse the pooled allocation");
    }

    #[test]
    fn intra_launch_parallelism_is_byte_identical() {
        let run = |jobs: usize| {
            let mut program = Program::new();
            program.register(
                KernelDef::new(
                    "scale",
                    vec![
                        ArgSpec::new("src", ArgRole::In),
                        ArgSpec::new("dst", ArgRole::Out),
                        ArgSpec::new("f", ArgRole::Scalar),
                    ],
                    KernelProfile::new("scale")
                        .flops_per_item(4.0)
                        .bytes_read_per_item(4.0)
                        .bytes_written_per_item(4.0),
                    |item, scalars, ins, outs| {
                        let i = item.global_linear();
                        // sin/exp give bit patterns that would expose any
                        // reordering or double-execution.
                        outs.at(0)[i] = (scalars.f32(0) * ins.get(0)[i]).sin().exp();
                    },
                )
                .with_disjoint_writes(),
            );
            let mut rt = Fluidicl::new(
                MachineConfig::paper_testbed(),
                FluidiclConfig::default().with_intra_launch_jobs(jobs),
                program,
            );
            let n = 4096;
            let src = rt.create_buffer(n);
            let dst = rt.create_buffer(n);
            let input: Vec<f32> = (0..n).map(|i| (i as f32).cos()).collect();
            rt.write_buffer(src, &input).unwrap();
            rt.enqueue_kernel(
                "scale",
                NdRange::d1(n, 64).unwrap(),
                &[
                    KernelArg::Buffer(src),
                    KernelArg::Buffer(dst),
                    KernelArg::F32(1.7),
                ],
            )
            .unwrap();
            (rt.read_buffer(dst).unwrap(), rt.elapsed())
        };
        let (seq, t_seq) = run(1);
        let (par, t_par) = run(4);
        assert_eq!(
            seq.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            par.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "parallel execution must be byte-identical"
        );
        assert_eq!(t_seq, t_par, "virtual time must not see the thread count");
    }

    #[test]
    fn dirty_range_transfers_cut_bytes_and_preserve_results() {
        // A kernel that writes only the first half of its output: the
        // dirty-range protocol should ship roughly half the H2D payload.
        let half_program = || {
            let mut p = Program::new();
            p.register(KernelDef::new(
                "halfscale",
                vec![
                    ArgSpec::new("src", ArgRole::In),
                    ArgSpec::new("dst", ArgRole::Out),
                ],
                KernelProfile::new("halfscale")
                    .flops_per_item(4.0)
                    .bytes_read_per_item(4.0)
                    .bytes_written_per_item(2.0),
                |item, _, ins, outs| {
                    let i = item.global_linear();
                    let half = outs.at(0).len() / 2;
                    if i < half {
                        outs.at(0)[i] = 2.0 * ins.get(0)[i] + 1.0;
                    }
                },
            ));
            p
        };
        let run = |dirty: bool| {
            let mut rt = Fluidicl::new(
                MachineConfig::paper_testbed(),
                FluidiclConfig::default()
                    .with_validate_protocol(true)
                    .with_dirty_range_transfers(dirty),
                half_program(),
            );
            let n = 1 << 15;
            let a = rt.create_buffer(n);
            let b = rt.create_buffer(n);
            rt.write_buffer(a, &vec![1.0; n]).unwrap();
            for _ in 0..2 {
                rt.enqueue_kernel(
                    "halfscale",
                    NdRange::d1(n, 64).unwrap(),
                    &[KernelArg::Buffer(a), KernelArg::Buffer(b)],
                )
                .unwrap();
            }
            let hd: u64 = rt.reports().iter().map(|r| r.hd_bytes).sum();
            (rt.read_buffer(b).unwrap(), rt.elapsed(), hd)
        };
        let (full_v, full_t, full_hd) = run(false);
        let (dirty_v, dirty_t, dirty_hd) = run(true);
        assert_eq!(
            full_v.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            dirty_v.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "dirty-range transfers must not change functional results"
        );
        assert!(
            dirty_hd < full_hd,
            "partial writes must ship fewer H2D bytes ({dirty_hd} vs {full_hd})"
        );
        assert!(dirty_t <= full_t, "shipping less must never slow the model");
    }

    #[test]
    fn graph_scheduling_defers_until_read_then_matches_serial_results() {
        let mut rt = Fluidicl::new(
            MachineConfig::paper_testbed(),
            FluidiclConfig::default()
                .with_graph_scheduling(true)
                .with_validate_protocol(true),
            scale_program(),
        );
        let n = 2048;
        let a = rt.create_buffer(n);
        let b = rt.create_buffer(n);
        rt.write_buffer(a, &vec![1.0; n]).unwrap();
        // a -> b (x2), b -> a (x2): a should end at 4.0, exactly like the
        // eager chained test — the graph serializes the true dependences.
        for (src, dst) in [(a, b), (b, a)] {
            rt.enqueue_kernel(
                "scale",
                NdRange::d1(n, 64).unwrap(),
                &[
                    KernelArg::Buffer(src),
                    KernelArg::Buffer(dst),
                    KernelArg::F32(2.0),
                ],
            )
            .unwrap();
        }
        assert!(rt.reports().is_empty(), "launches are deferred");
        assert_eq!(rt.read_buffer(a).unwrap(), vec![4.0; n]);
        assert_eq!(rt.reports().len(), 2, "the read flushed the graph");
        let sched = rt.graph_schedules();
        assert_eq!(sched.len(), 1);
        assert_eq!(sched[0].nodes.len(), 2);
        assert!(
            sched[0]
                .edges
                .iter()
                .any(|e| e.from == 0 && e.to == 1 && e.kind == crate::graph::DepKind::True),
            "chain has a true edge"
        );
        // A dependent chain cannot overlap: node 1 starts after node 0.
        assert!(sched[0].nodes[1].start_at >= sched[0].nodes[0].complete_at);
    }

    #[test]
    fn graph_scheduling_overlaps_independent_kernels_on_peers() {
        // Compute-heavy independent launches: serial co-execution leaves
        // the mid-range peer nearly idle (it joins each kernel too late to
        // claim waves), while the graph dedicates it whole sibling nodes.
        let heavy_program = || {
            let mut p = Program::new();
            p.register(KernelDef::new(
                "heavy",
                vec![
                    ArgSpec::new("src", ArgRole::In),
                    ArgSpec::new("dst", ArgRole::Out),
                    ArgSpec::new("f", ArgRole::Scalar),
                ],
                KernelProfile::new("heavy")
                    .flops_per_item(4096.0)
                    .bytes_read_per_item(4.0)
                    .bytes_written_per_item(4.0),
                |item, scalars, ins, outs| {
                    let i = item.global_linear();
                    outs.at(0)[i] = scalars.f32(0) * ins.get(0)[i];
                },
            ));
            p
        };
        let run = |graph: bool| {
            let mut rt = Fluidicl::new(
                MachineConfig::paper_testbed_3dev(),
                FluidiclConfig::default()
                    .with_graph_scheduling(graph)
                    .with_validate_protocol(true),
                heavy_program(),
            );
            let n = 1 << 13;
            let bufs: Vec<(BufferId, BufferId)> = (0..4)
                .map(|_| (rt.create_buffer(n), rt.create_buffer(n)))
                .collect();
            for (src, _) in &bufs {
                rt.write_buffer(*src, &vec![1.0; n]).unwrap();
            }
            let before = rt.elapsed();
            for (src, dst) in &bufs {
                rt.enqueue_kernel(
                    "heavy",
                    NdRange::d1(n, 64).unwrap(),
                    &[
                        KernelArg::Buffer(*src),
                        KernelArg::Buffer(*dst),
                        KernelArg::F32(3.0),
                    ],
                )
                .unwrap();
            }
            rt.flush_graph().unwrap();
            let makespan = rt.elapsed() - before;
            for (_, dst) in &bufs {
                assert_eq!(rt.read_buffer(*dst).unwrap(), vec![3.0; n]);
            }
            (makespan, rt.graph_schedules().to_vec())
        };
        let (serial, s0) = run(false);
        let (graphed, s1) = run(true);
        assert!(s0.is_empty(), "gate off records no schedules");
        assert_eq!(s1.len(), 1);
        assert!(
            s1[0].nodes.iter().any(|nd| nd.lane >= 1),
            "HEFT offloads at least one node to a peer lane"
        );
        assert!(
            graphed < serial,
            "independent kernels must overlap across devices ({graphed:?} vs {serial:?})"
        );
    }

    #[test]
    fn graph_flush_is_explicit_and_idempotent() {
        let mut rt = Fluidicl::new(
            MachineConfig::paper_testbed_3dev(),
            FluidiclConfig::default().with_graph_scheduling(true),
            scale_program(),
        );
        let n = 1024;
        let a = rt.create_buffer(n);
        let b = rt.create_buffer(n);
        rt.write_buffer(a, &vec![1.0; n]).unwrap();
        rt.enqueue_kernel(
            "scale",
            NdRange::d1(n, 64).unwrap(),
            &[
                KernelArg::Buffer(a),
                KernelArg::Buffer(b),
                KernelArg::F32(2.0),
            ],
        )
        .unwrap();
        rt.flush_graph().unwrap();
        assert_eq!(rt.reports().len(), 1);
        let clock = rt.elapsed();
        rt.flush_graph().unwrap();
        assert_eq!(rt.reports().len(), 1, "empty flush is a no-op");
        assert_eq!(rt.elapsed(), clock, "empty flush does not move the clock");
        assert_eq!(rt.read_buffer(b).unwrap(), vec![2.0; n]);
    }

    #[test]
    fn graph_peer_lane_weights_are_profiled_online() {
        // Two flushes of the same independent pair: the second flush plans
        // from observed EWMA weights rather than model seeds, and results
        // stay correct either way.
        let mut rt = Fluidicl::new(
            MachineConfig::paper_testbed_3dev(),
            FluidiclConfig::default().with_graph_scheduling(true),
            scale_program(),
        );
        let n = 4096;
        let pairs: Vec<(BufferId, BufferId)> = (0..2)
            .map(|_| (rt.create_buffer(n), rt.create_buffer(n)))
            .collect();
        for round in 0..2 {
            for (src, _) in &pairs {
                rt.write_buffer(*src, &vec![round as f32 + 1.0; n]).unwrap();
            }
            for (src, dst) in &pairs {
                rt.enqueue_kernel(
                    "scale",
                    NdRange::d1(n, 64).unwrap(),
                    &[
                        KernelArg::Buffer(*src),
                        KernelArg::Buffer(*dst),
                        KernelArg::F32(2.0),
                    ],
                )
                .unwrap();
            }
            rt.flush_graph().unwrap();
            for (_, dst) in &pairs {
                assert_eq!(
                    rt.read_buffer(*dst).unwrap(),
                    vec![2.0 * (round as f32 + 1.0); n]
                );
            }
        }
        assert_eq!(rt.graph_schedules().len(), 2);
        assert_eq!(rt.reports().len(), 4);
    }

    #[test]
    fn buffer_pool_reduces_scratch_creation_cost() {
        let run = |pooled: bool| {
            let mut rt = Fluidicl::new(
                MachineConfig::paper_testbed(),
                FluidiclConfig::default().with_buffer_pool(pooled),
                scale_program(),
            );
            let n = 1 << 18;
            let a = rt.create_buffer(n);
            let b = rt.create_buffer(n);
            rt.write_buffer(a, &vec![1.0; n]).unwrap();
            for _ in 0..4 {
                rt.enqueue_kernel(
                    "scale",
                    NdRange::d1(n, 64).unwrap(),
                    &[
                        KernelArg::Buffer(a),
                        KernelArg::Buffer(b),
                        KernelArg::F32(2.0),
                    ],
                )
                .unwrap();
            }
            (rt.elapsed(), rt.pool_stats())
        };
        let (t_pool, s_pool) = run(true);
        let (t_nopool, s_nopool) = run(false);
        assert!(s_pool.hits > 0, "pool must be reused across kernels");
        assert_eq!(s_nopool.hits, 0);
        assert!(t_pool <= t_nopool);
    }
}
