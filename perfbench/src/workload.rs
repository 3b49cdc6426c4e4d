//! The three workloads: their set-up, their application runs, and the
//! checks each run must pass.

use std::time::Instant;

use fluidicl::{lint_report, Fluidicl, FluidiclConfig, LintDiagnostic, LintSeverity};
use fluidicl_baselines::StaticPartitionRuntime;
use fluidicl_check::{check_schedule, max_overlap, race_check_report, sweep_size};
use fluidicl_des::SimDuration;
use fluidicl_hetsim::{AbortMode, MachineConfig};
use fluidicl_polybench::{all_benchmarks, benchmarks, outputs_match, BenchmarkSpec};
use fluidicl_vcl::{ClDriver, ClResult, DeviceKind, Program, SingleDeviceRuntime};

use crate::trace::{Kind, Span, TimedDriver, Tracer};

/// A named run mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The `repro overall` run mix: six paper apps at default size on
    /// CPU-only, GPU-only, FluidiCL and the 11 static-split oracle points,
    /// each run validated through `run_and_validate_sized`.
    PaperSweep,
    /// FluidiCL default over all nine apps at default size, validated
    /// against references computed once in set-up.
    CoexecSuite,
    /// The check sweep's stage-2 traffic: nine apps at sweep size on four
    /// machines × eight configs, each report linted and race-checked and
    /// each graph schedule validated.
    CheckSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::CoexecSuite,
        Workload::CheckSweep,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::CoexecSuite => "coexec_suite",
            Workload::CheckSweep => "check_sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The runtime one application run uses.
#[derive(Clone, Debug)]
pub enum Runtime {
    /// `SingleDeviceRuntime` on the CPU.
    Cpu,
    /// `SingleDeviceRuntime` on the GPU.
    Gpu,
    /// `StaticPartitionRuntime` with this CPU fraction.
    Static(f64),
    /// `Fluidicl` with this named configuration.
    Fluidicl(&'static str, FluidiclConfig),
}

impl Runtime {
    fn kind(&self) -> Kind {
        match self {
            Runtime::Cpu | Runtime::Gpu => Kind::Single,
            Runtime::Static(_) => Kind::Static,
            Runtime::Fluidicl(..) => Kind::Fluidicl,
        }
    }
}

/// One application run: which machine, app and runtime.
#[derive(Clone, Debug)]
pub struct Unit {
    /// Index into [`Setup::machines`].
    pub machine: usize,
    /// Index into [`Setup::apps`].
    pub app: usize,
    /// Runtime and configuration.
    pub runtime: Runtime,
    /// Lint, race-check and schedule-check the run's reports.
    pub check: bool,
}

impl Unit {
    /// Whether this is a FluidiCL run with graph scheduling on.
    pub fn graph_on(&self) -> bool {
        matches!(&self.runtime, Runtime::Fluidicl(_, c) if c.graph_scheduling)
    }
}

/// One application at one size, with its program and, where the workload
/// computes it in set-up, its sequential reference.
pub struct App {
    /// Registry entry.
    pub spec: BenchmarkSpec,
    /// Problem size.
    pub n: usize,
    /// Program built once in set-up; each run takes a clone.
    pub program: Program,
    /// Reference outputs; `None` when every run recomputes them.
    pub reference: Option<Vec<Vec<f32>>>,
}

/// Everything built before the first timed pass.
pub struct Setup {
    /// Machine models, by name.
    pub machines: Vec<(&'static str, MachineConfig)>,
    /// Applications the units refer to.
    pub apps: Vec<App>,
    /// The timed pass, in run order.
    pub units: Vec<Unit>,
    /// CPU-only and GPU-only runs that give the best-single-device
    /// baselines when the pass has none; run once after the timed passes.
    pub probe: Vec<Unit>,
}

/// The eight stage-2 configurations of the check sweep, with protocol
/// validation off so the checks run once, explicitly.
pub fn check_configs() -> Vec<(&'static str, FluidiclConfig)> {
    let d = FluidiclConfig::default;
    vec![
        ("default", d()),
        (
            "abort=wg-start",
            d().with_abort_mode(AbortMode::WorkGroupStart),
        ),
        ("abort=in-loop", d().with_abort_mode(AbortMode::InLoop)),
        (
            "no-opts",
            d().with_wg_split(false)
                .with_buffer_pool(false)
                .with_location_tracking(false),
        ),
        ("whole-buffer", d().with_whole_buffer_transfers()),
        ("pipeline=1", d().with_pipeline_depth(1)),
        ("pipeline=4", d().with_pipeline_depth(4)),
        ("graph-sched", d().with_graph_scheduling(true)),
    ]
    .into_iter()
    .map(|(name, c)| (name, c.with_validate_protocol(false)))
    .collect()
}

fn app(spec: BenchmarkSpec, n: usize, seed: u64, with_reference: bool) -> App {
    App {
        spec,
        n,
        program: (spec.program)(n),
        reference: with_reference.then(|| (spec.reference)(n, seed)),
    }
}

/// CPU-only and GPU-only units for every (machine, app) pair of `units`.
fn baseline_probe(units: &[Unit]) -> Vec<Unit> {
    let mut pairs: Vec<(usize, usize)> = units.iter().map(|u| (u.machine, u.app)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
        .into_iter()
        .flat_map(|(machine, app)| {
            [Runtime::Cpu, Runtime::Gpu].map(|runtime| Unit {
                machine,
                app,
                runtime,
                check: false,
            })
        })
        .collect()
}

/// Builds a workload's programs, machines and run list; `seed` reaches
/// only the host programs and references.
pub fn setup(workload: Workload, seed: u64) -> Setup {
    match workload {
        Workload::PaperSweep => {
            let apps: Vec<App> = benchmarks()
                .into_iter()
                .map(|b| app(b, b.default_n, seed, false))
                .collect();
            let mut units = Vec::new();
            for a in 0..apps.len() {
                let mut runtimes = vec![
                    Runtime::Cpu,
                    Runtime::Gpu,
                    Runtime::Fluidicl("default", FluidiclConfig::default()),
                ];
                runtimes.extend((0..=10).map(|i| Runtime::Static(f64::from(i) / 10.0)));
                units.extend(runtimes.into_iter().map(|runtime| Unit {
                    machine: 0,
                    app: a,
                    runtime,
                    check: false,
                }));
            }
            Setup {
                machines: vec![("paper-testbed", MachineConfig::paper_testbed())],
                apps,
                units,
                probe: Vec::new(),
            }
        }
        Workload::CoexecSuite => {
            let apps: Vec<App> = all_benchmarks()
                .into_iter()
                .map(|b| app(b, b.default_n, seed, true))
                .collect();
            let units: Vec<Unit> = (0..apps.len())
                .map(|a| Unit {
                    machine: 0,
                    app: a,
                    runtime: Runtime::Fluidicl("default", FluidiclConfig::default()),
                    check: false,
                })
                .collect();
            Setup {
                machines: vec![("paper-testbed", MachineConfig::paper_testbed())],
                apps,
                probe: baseline_probe(&units),
                units,
            }
        }
        Workload::CheckSweep => {
            let apps: Vec<App> = all_benchmarks()
                .into_iter()
                .map(|b| app(b, sweep_size(b.name), seed, true))
                .collect();
            let machines = vec![
                ("paper-testbed", MachineConfig::paper_testbed()),
                ("weak-gpu-laptop", MachineConfig::weak_gpu_laptop()),
                ("big-gpu-node", MachineConfig::big_gpu_node()),
                ("paper-testbed-3dev", MachineConfig::paper_testbed_3dev()),
            ];
            let configs = check_configs();
            let mut units = Vec::new();
            for m in 0..machines.len() {
                for &(name, ref config) in &configs {
                    units.extend((0..apps.len()).map(|a| Unit {
                        machine: m,
                        app: a,
                        runtime: Runtime::Fluidicl(name, config.clone()),
                        check: true,
                    }));
                }
            }
            Setup {
                machines,
                apps,
                probe: baseline_probe(&units),
                units,
            }
        }
    }
}

/// Co-execution counters of one FluidiCL run, taken from its reports.
#[derive(Clone, Debug, Default)]
pub struct CoexecStats {
    /// Kernel reports (launches).
    pub launches: u64,
    /// CPU subkernels launched.
    pub subkernels: u64,
    /// Protocol trace events across all reports.
    pub trace_events: u64,
    /// Work-groups in all NDRanges.
    pub total_wgs: u64,
    /// Work-groups executed by any device (duplicates included).
    pub executed_wgs: u64,
    /// Work-groups executed by peer GPUs.
    pub peer_wgs: u64,
    /// Work-groups whose results came from the CPU.
    pub cpu_merged_wgs: u64,
    /// Host→device bytes.
    pub hd_bytes: u64,
    /// Device→host bytes.
    pub dh_bytes: u64,
    /// Snapshot-pool hits.
    pub snapshot_hits: u64,
    /// Snapshot-pool misses.
    pub snapshot_misses: u64,
    /// Graph nodes over all flush schedules.
    pub graph_nodes: u64,
    /// Graph edges over all flush schedules.
    pub graph_edges: u64,
    /// Largest number of concurrently running graph nodes.
    pub graph_max_overlap: u64,
}

impl CoexecStats {
    fn of(rt: &Fluidicl) -> Self {
        let mut s = CoexecStats::default();
        for r in rt.reports() {
            let peers: u64 = r.peer_executed_wgs.iter().sum();
            s.launches += 1;
            s.subkernels += r.subkernels;
            s.trace_events += r.trace.len() as u64;
            s.total_wgs += r.total_wgs;
            s.executed_wgs += r.gpu_executed_wgs + r.cpu_executed_wgs + peers;
            s.peer_wgs += peers;
            s.cpu_merged_wgs += r.cpu_merged_wgs;
            s.hd_bytes += r.hd_bytes;
            s.dh_bytes += r.dh_bytes;
        }
        (s.snapshot_hits, s.snapshot_misses) = rt.snapshot_stats();
        for g in rt.graph_schedules() {
            s.graph_nodes += g.nodes.len() as u64;
            s.graph_edges += g.edges.len() as u64;
            s.graph_max_overlap = s.graph_max_overlap.max(max_overlap(g) as u64);
        }
        s
    }

    /// Adds another run's counters; `graph_max_overlap` takes the maximum.
    pub fn add(&mut self, o: &CoexecStats) {
        self.launches += o.launches;
        self.subkernels += o.subkernels;
        self.trace_events += o.trace_events;
        self.total_wgs += o.total_wgs;
        self.executed_wgs += o.executed_wgs;
        self.peer_wgs += o.peer_wgs;
        self.cpu_merged_wgs += o.cpu_merged_wgs;
        self.hd_bytes += o.hd_bytes;
        self.dh_bytes += o.dh_bytes;
        self.snapshot_hits += o.snapshot_hits;
        self.snapshot_misses += o.snapshot_misses;
        self.graph_nodes += o.graph_nodes;
        self.graph_edges += o.graph_edges;
        self.graph_max_overlap = self.graph_max_overlap.max(o.graph_max_overlap);
    }
}

/// Error-severity diagnostics found by the three checkers.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckErrors {
    /// Protocol-lint errors.
    pub lint: u64,
    /// Race-checker errors.
    pub race: u64,
    /// Graph-schedule errors.
    pub schedule: u64,
}

impl CheckErrors {
    fn total(self) -> u64 {
        self.lint + self.race + self.schedule
    }
}

fn errors(diags: &[LintDiagnostic]) -> u64 {
    diags
        .iter()
        .filter(|d| d.severity == LintSeverity::Error)
        .count() as u64
}

/// Result of one application run.
#[derive(Debug)]
pub struct Outcome {
    /// Why the run failed: a driver error, an output that differs from
    /// the reference bit for bit, or (where checked) a checker error.
    /// `None` for a run that passed.
    pub error: Option<String>,
    /// Virtual total running time (`ClDriver::elapsed`), in nanoseconds.
    pub vtime_ns: u64,
    /// Checker errors (check-sweep runs).
    pub checks: CheckErrors,
    /// Co-execution counters (traced FluidiCL runs only).
    pub stats: Option<CoexecStats>,
    /// Spans of the run (traced runs only); the first is the root.
    pub spans: Vec<Span>,
}

/// Runs the host program on `rt` and validates its outputs: through
/// `run_and_validate_sized` when the app has no precomputed reference,
/// against the precomputed one otherwise. A traced run makes the same
/// calls one by one, so each gets its own span.
fn run_host(
    t: &mut Tracer,
    rt: &mut dyn ClDriver,
    kind: Kind,
    app: &App,
    seed: u64,
) -> ClResult<bool> {
    let (spec, n) = (&app.spec, app.n);
    if !t.is_on() {
        return match &app.reference {
            None => spec.run_and_validate_sized(rt, n, seed),
            Some(want) => Ok(outputs_match(&(spec.run)(rt, n, seed)?, want)),
        };
    }
    let got = t.span("polybench.host", kind, |t| {
        (spec.run)(&mut TimedDriver::new(rt, kind, t), n, seed)
    })?;
    let computed;
    let want = match &app.reference {
        Some(want) => want,
        None => {
            computed = t.span("polybench.reference", Kind::None, |_| {
                (spec.reference)(n, seed)
            });
            &computed
        }
    };
    Ok(t.span("polybench.validate", Kind::None, |_| {
        outputs_match(&got, want)
    }))
}

fn run_checks(t: &mut Tracer, rt: &Fluidicl, defs: &Program) -> CheckErrors {
    let lint = t.span("check.lint", Kind::None, |_| {
        rt.reports().iter().map(|r| errors(&lint_report(r))).sum()
    });
    let race = t.span("check.race", Kind::None, |_| {
        rt.reports()
            .iter()
            .map(|r| {
                defs.kernel(&r.kernel)
                    .map_or(1, |k| errors(&race_check_report(&k, r)))
            })
            .sum()
    });
    let schedule = t.span("check.schedule", Kind::None, |_| {
        rt.graph_schedules()
            .iter()
            .map(|s| errors(&check_schedule(s)))
            .sum()
    });
    CheckErrors {
        lint,
        race,
        schedule,
    }
}

/// Names a unit's machine, app, size and runtime, for failure messages.
pub fn describe(setup: &Setup, unit: &Unit) -> String {
    let app = &setup.apps[unit.app];
    let runtime = match &unit.runtime {
        Runtime::Cpu => "cpu-only".to_string(),
        Runtime::Gpu => "gpu-only".to_string(),
        Runtime::Static(f) => format!("static cpu={f}"),
        Runtime::Fluidicl(name, _) => format!("fluidicl {name}"),
    };
    format!(
        "{} {} n={} {runtime}",
        setup.machines[unit.machine].0, app.spec.name, app.n
    )
}

type RunResult = (
    ClResult<bool>,
    SimDuration,
    CheckErrors,
    Option<CoexecStats>,
);

/// Builds a runtime with `make`, runs the host program on it, lets
/// `inspect` look at the runtime, then drops it.
fn drive<D: ClDriver>(
    t: &mut Tracer,
    kind: Kind,
    app: &App,
    seed: u64,
    make: impl FnOnce() -> D,
    inspect: impl FnOnce(&mut Tracer, &D) -> (CheckErrors, Option<CoexecStats>),
) -> RunResult {
    let mut rt = t.span("driver.new", kind, |_| make());
    let result = run_host(t, &mut rt, kind, app, seed);
    let (checks, stats) = inspect(t, &rt);
    let vtime = rt.elapsed();
    t.span("driver.drop", kind, |_| drop(rt));
    (result, vtime, checks, stats)
}

/// The `inspect` of runtimes that report nothing beyond their outputs.
fn nothing<D>(_: &mut Tracer, _: &D) -> (CheckErrors, Option<CoexecStats>) {
    (CheckErrors::default(), None)
}

/// Runs one unit; records spans against `origin` when `traced`.
pub fn run_unit(setup: &Setup, unit: &Unit, seed: u64, traced: bool, origin: Instant) -> Outcome {
    let app = &setup.apps[unit.app];
    let machine = || setup.machines[unit.machine].1.clone();
    let kind = unit.runtime.kind();
    let mut t = Tracer::new(traced, origin);
    let (result, vtime, checks, stats) = t.span("run", Kind::None, |t| {
        let program = app.program.clone();
        match &unit.runtime {
            Runtime::Cpu => drive(
                t,
                kind,
                app,
                seed,
                || SingleDeviceRuntime::new(machine(), DeviceKind::Cpu, program),
                nothing,
            ),
            Runtime::Gpu => drive(
                t,
                kind,
                app,
                seed,
                || SingleDeviceRuntime::new(machine(), DeviceKind::Gpu, program),
                nothing,
            ),
            Runtime::Static(frac) => drive(
                t,
                kind,
                app,
                seed,
                || StaticPartitionRuntime::new(machine(), program, *frac),
                nothing,
            ),
            Runtime::Fluidicl(_, config) => {
                let defs = unit.check.then(|| program.clone());
                drive(
                    t,
                    kind,
                    app,
                    seed,
                    || Fluidicl::new(machine(), config.clone(), program),
                    |t, rt| {
                        let checks = defs.map(|d| run_checks(t, rt, &d)).unwrap_or_default();
                        (checks, t.is_on().then(|| CoexecStats::of(rt)))
                    },
                )
            }
        }
    });
    let error = match result {
        Err(e) => Some(format!("driver error: {e}")),
        Ok(false) => Some("output differs from the reference".to_string()),
        Ok(true) if checks.total() > 0 => Some(format!("checker errors: {checks:?}")),
        Ok(true) => None,
    };
    Outcome {
        error,
        vtime_ns: vtime.as_nanos(),
        checks,
        stats,
        spans: t.into_spans(),
    }
}

/// Runs `units` over the `fluidicl_par` pool, in input order.
pub fn run_units(
    setup: &Setup,
    units: &[Unit],
    seed: u64,
    traced: bool,
    origin: Instant,
) -> Vec<Outcome> {
    fluidicl_par::par_map(units.iter().collect(), |u| {
        run_unit(setup, u, seed, traced, origin)
    })
}
