//! `perf` — wall-clock performance harness for the reproduction itself.
//!
//! The experiments measure *virtual* time; this binary measures the *real*
//! time the harness spends producing them, so regressions in the executor
//! hot paths show up in CI. It times:
//!
//! * the repro sweep (all experiments, or the `--quick` subset), fanned out
//!   over the [`fluidicl_par`] pool exactly as `repro` runs it;
//! * the micro-hotspots: sequential and parallel `execute_groups` on SYRK,
//!   the `diff_merge` / `diff_merge_ranged` coherence primitives,
//!   dirty-range coalescing, and buffer snapshotting.
//!
//! Results go to `BENCH_repro.json` at the repository root (one section per
//! line: median/p10/p90 nanoseconds, worker-thread count, git revision,
//! runner key).
//!
//! `--check` compares medians against `ci/bench_baseline.json`. The
//! baseline holds a fallback section list (compared at a generous blanket
//! factor, because unknown machines differ from the one that recorded it)
//! plus optional per-runner blocks keyed by `<os>-<cpus>cpu` — a runner
//! block carries its own, tighter factor and wins over the fallback when
//! its key matches the current machine.
//!
//! ```text
//! perf                    # full sweep + micro-hotspots
//! perf --quick            # fast subset (CI)
//! perf --jobs 4           # cap the worker pool
//! perf --check            # also compare against ci/bench_baseline.json;
//!                         # exit 1 on a median regression beyond the
//!                         # baseline's factor for this runner
//! perf --out PATH         # write the JSON somewhere else
//! ```

use std::time::Instant;

use fluidicl::{Fluidicl, FluidiclConfig, SnapshotPool};
use fluidicl_bench::experiments::{experiments, find, Experiment};
use fluidicl_des::SplitMix64;
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::data::gen_matrix;
use fluidicl_polybench::{outputs_match, syrk, BenchmarkSpec};
use fluidicl_vcl::{
    diff_merge, diff_merge_ranged, diff_merge_tracked, execute_groups_par, set_simd_enabled,
    simd_active, BufferId, ClDriver, DirtyRanges, DirtyTracker, KernelArg, Launch, Memory, NdRange,
};

/// Experiment ids of the `--quick` sweep (mirrors `repro --quick`).
const QUICK_IDS: [&str; 4] = ["table1", "table2", "table3", "extended"];

/// Allowed median slowdown vs the committed *fallback* baseline before
/// `--check` fails: generous because unknown machines differ from the
/// machine that recorded it. Per-runner baseline blocks override this
/// with their own (tighter) factor.
const REGRESSION_FACTOR: f64 = 3.0;

/// Allowed median slowdown of a `with_dirty_range_transfers` co-execution
/// over the ungated protocol. Self-relative (both states measured in the
/// same process on the same machine), so the bound holds everywhere.
const DIRTY_GATE_FACTOR: f64 = 3.0;

/// Key identifying the machine class a baseline was recorded on.
fn runner_key() -> String {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!("{}-{cpus}cpu", std::env::consts::OS)
}

/// One timed section of the harness.
struct Section {
    name: &'static str,
    iters: usize,
    median_ns: u128,
    p10_ns: u128,
    p90_ns: u128,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut check = false;
    let mut out: Option<String> = None;
    let mut baseline = default_path("ci/bench_baseline.json");
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--jobs" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--jobs requires a positive integer argument");
                    std::process::exit(2);
                };
                fluidicl_par::configure_jobs(n);
            }
            "--out" => {
                out = it.next();
                if out.is_none() {
                    eprintln!("--out requires a path argument");
                    std::process::exit(2);
                }
            }
            "--baseline" => {
                baseline = it.next().unwrap_or_else(|| {
                    eprintln!("--baseline requires a path argument");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "usage: perf [--quick] [--check] [--jobs N] [--out PATH] [--baseline PATH]"
                );
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    let out = out.unwrap_or_else(|| default_path("BENCH_repro.json"));
    let jobs = fluidicl_par::jobs();
    eprintln!(
        "perf: {} sweep, {jobs} worker threads",
        if quick { "quick" } else { "full" }
    );

    let mut sections = Vec::new();
    sections.push(time_sweep(quick));
    sections.extend(micro_hotspots(jobs));
    let (paged_sections, simd) = paged_merge_sections(quick);
    sections.extend(paged_sections);
    let (gate_sections, gate_factor) = dirty_gate_sections();
    sections.extend(gate_sections);
    sections.extend(pipeline_sections());
    sections.extend(ndev_sections());
    sections.extend(graph_sched_sections());

    let json = render_json(&sections, quick, jobs, &simd);
    std::fs::write(&out, &json).expect("write BENCH_repro.json");
    eprintln!("wrote {out}");
    for s in &sections {
        eprintln!(
            "  {:24} median {:>10.3} ms  (p10 {:.3}, p90 {:.3})",
            s.name,
            s.median_ns as f64 / 1e6,
            s.p10_ns as f64 / 1e6,
            s.p90_ns as f64 / 1e6
        );
    }
    eprintln!(
        "  dirty-range gate overhead: {gate_factor:.2}x ungated (bound {DIRTY_GATE_FACTOR}x)"
    );
    if simd.compiled && simd.active {
        eprintln!(
            "  simd: compiled={} active={} speedup {:.2}x over portable (10M page-path merge)",
            simd.compiled,
            simd.active,
            simd.speedup()
        );
    } else {
        // Both timed lanes ran the portable merge: the ratio is noise, not
        // a speedup — don't print one.
        eprintln!(
            "  simd: compiled={} active={} (speedup n/a: both lanes portable)",
            simd.compiled, simd.active
        );
    }
    if gate_factor > DIRTY_GATE_FACTOR {
        eprintln!(
            "perf: dirty-range gated co-execution exceeds {DIRTY_GATE_FACTOR}x the ungated path"
        );
        std::process::exit(1);
    }
    if check && !check_against_baseline(&sections, &baseline) {
        std::process::exit(1);
    }
}

/// Times a full SYRK co-execution with `with_dirty_range_transfers` off
/// and on — both gate states exercised every CI run — and returns the
/// sections plus the gated/ungated median ratio, which `main` holds to
/// [`DIRTY_GATE_FACTOR`].
fn dirty_gate_sections() -> (Vec<Section>, f64) {
    let b = fluidicl_polybench::find("SYRK").expect("SYRK registered");
    let n = 128;
    let machine = MachineConfig::paper_testbed();
    b.reference_outputs(n, RUN_SEED);
    let run_once = |dirty: bool| {
        let mut rt = Fluidicl::new(
            machine.clone(),
            FluidiclConfig::default().with_dirty_range_transfers(dirty),
            (b.program)(n),
        );
        time_run(&b, &mut rt, n, &format!("SYRK (dirty={dirty})"))
    };
    let iters = 7;
    let off = collect(iters, || run_once(false));
    let on = collect(iters, || run_once(true));
    let off = stats("coexec_dirty_off", iters, off);
    let on = stats("coexec_dirty_on", iters, on);
    let factor = on.median_ns as f64 / off.median_ns.max(1) as f64;
    (vec![off, on], factor)
}

/// Times a full SYRK co-execution at pipeline depths 1, 2 and 4: the
/// harness cost of the pipelined CPU subkernel executor (the copy channel,
/// batch coalescing and exposed-stall bookkeeping) at the serial, default
/// and deep settings.
fn pipeline_sections() -> Vec<Section> {
    let b = fluidicl_polybench::find("SYRK").expect("SYRK registered");
    let n = 128;
    let machine = MachineConfig::paper_testbed();
    b.reference_outputs(n, RUN_SEED);
    let run_once = |depth: u32| {
        let mut rt = Fluidicl::new(
            machine.clone(),
            FluidiclConfig::default().with_pipeline_depth(depth),
            (b.program)(n),
        );
        time_run(&b, &mut rt, n, &format!("SYRK (depth={depth})"))
    };
    let iters = 7;
    [1u32, 2, 4]
        .into_iter()
        .map(|depth| {
            let samples = collect(iters, || run_once(depth));
            stats(
                match depth {
                    1 => "coexec_pipeline_1",
                    2 => "coexec_pipeline_2",
                    _ => "coexec_pipeline_4",
                },
                iters,
                samples,
            )
        })
        .collect()
}

/// Times a full SYRK co-execution on the two-device paper testbed and the
/// three-device machine: the harness cost of the shared-frontier protocol
/// with a peer-GPU endpoint (second endpoint loop, per-device staging
/// channels, coverage bookkeeping and the merge fold) relative to the
/// watermark-pair baseline.
fn ndev_sections() -> Vec<Section> {
    let b = fluidicl_polybench::find("SYRK").expect("SYRK registered");
    let n = 128;
    b.reference_outputs(n, RUN_SEED);
    let run_once = |machine: &MachineConfig| {
        let mut rt = Fluidicl::new(machine.clone(), FluidiclConfig::default(), (b.program)(n));
        time_run(&b, &mut rt, n, "SYRK")
    };
    let iters = 7;
    let two = MachineConfig::paper_testbed();
    let three = MachineConfig::paper_testbed_3dev();
    let ndev2 = collect(iters, || run_once(&two));
    let ndev3 = collect(iters, || run_once(&three));
    vec![
        stats("coexec_ndev_2", iters, ndev2),
        stats("coexec_ndev_3", iters, ndev3),
    ]
}

/// Times the BATCHMM pipeline with kernel-graph scheduling off and on: the
/// harness cost of deferral, DAG construction, HEFT placement and the
/// per-node dispatch loop, on the workload the `graph` experiment uses.
/// Wall-clock, not virtual time — the scheduling *win* lives in the
/// virtual makespans (EXPERIMENTS.md `[graph]`); this gate catches the
/// host-side overhead of the graph machinery regressing.
fn graph_sched_sections() -> Vec<Section> {
    let b = fluidicl_polybench::pipeline_benchmark();
    let n = 96;
    let three = MachineConfig::paper_testbed_3dev();
    b.reference_outputs(n, RUN_SEED);
    let run_once = |graph: bool| {
        let mut rt = Fluidicl::new(
            three.clone(),
            FluidiclConfig::default().with_graph_scheduling(graph),
            (b.program)(n),
        );
        time_run(&b, &mut rt, n, &format!("BATCHMM (graph={graph})"))
    };
    let iters = 7;
    let off = collect(iters, || run_once(false));
    let on = collect(iters, || run_once(true));
    vec![
        stats("graph_sched_off", iters, off),
        stats("graph_sched_on", iters, on),
    ]
}

/// Seed of the co-execution sections' host programs.
const RUN_SEED: u64 = 0xF1D1C1;

/// Times one run of `b`'s host program on `rt`, then, with the timer
/// stopped, checks its outputs against the memoized reference. Sections
/// warm the memo before their first iteration.
fn time_run(b: &BenchmarkSpec, rt: &mut dyn ClDriver, n: usize, what: &str) -> u128 {
    let started = Instant::now();
    let got = (b.run)(rt, n, RUN_SEED).unwrap_or_else(|e| panic!("{what} run failed: {e}"));
    let ns = started.elapsed().as_nanos();
    assert!(
        outputs_match(&got, &b.reference_outputs(n, RUN_SEED)),
        "{what} diverged from reference"
    );
    ns
}

/// Resolves `rel` against the repository root (two levels above this
/// crate's manifest).
fn default_path(rel: &str) -> String {
    format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
}

/// Times the repro sweep: every selected experiment fanned out over the
/// pool, like `repro all` / `repro --quick`.
fn time_sweep(quick: bool) -> Section {
    let selected: Vec<Experiment> = if quick {
        QUICK_IDS
            .iter()
            .map(|id| find(id).expect("quick experiment registered"))
            .collect()
    } else {
        experiments()
    };
    let machine = MachineConfig::paper_testbed();
    let iters = 3;
    let samples = collect(iters, || {
        let sel = selected.clone();
        let started = Instant::now();
        let results = fluidicl_par::par_map(sel, |e| (e.run)(&machine));
        let ns = started.elapsed().as_nanos();
        assert!(!results.is_empty());
        ns
    });
    stats(
        if quick { "sweep_quick" } else { "sweep_full" },
        iters,
        samples,
    )
}

/// Times the executor hot paths the coexec engine leans on.
fn micro_hotspots(jobs: usize) -> Vec<Section> {
    let n = 256;
    let program = syrk::program(n);
    let kernel = program.kernel("syrk").expect("syrk kernel");
    let a = gen_matrix(n, n, 7);
    let c0 = gen_matrix(n, n, 8);
    let a_buf = BufferId(0);
    let c_buf = BufferId(1);
    let launch = Launch::new(
        kernel,
        NdRange::d2(n, n, syrk::WG, syrk::WG).expect("ndrange"),
        vec![
            KernelArg::Buffer(a_buf),
            KernelArg::Buffer(c_buf),
            KernelArg::F32(1.5),
            KernelArg::F32(2.5),
            KernelArg::Usize(n),
        ],
    );
    let groups = launch.ndrange.num_groups();
    let mut mem = Memory::new();
    mem.install(a_buf, a);
    mem.install(c_buf, c0.clone());

    let iters = 10;
    let seq = collect(iters, || {
        mem.write(c_buf, &c0).expect("reset c");
        let started = Instant::now();
        fluidicl_vcl::exec::execute_groups(&launch, &mut mem, 0, groups).expect("execute");
        started.elapsed().as_nanos()
    });
    let par = collect(iters, || {
        mem.write(c_buf, &c0).expect("reset c");
        let started = Instant::now();
        execute_groups_par(&launch, &mut mem, 0, groups, jobs).expect("execute par");
        started.elapsed().as_nanos()
    });

    // diff_merge over a 1M-element buffer with every 16th element changed —
    // the §4.3 coherence primitive the CPU->GPU result path runs per
    // subkernel.
    let len = 1 << 20;
    let original: Vec<f32> = (0..len).map(|i| i as f32).collect();
    let mut cpu = original.clone();
    for (i, v) in cpu.iter_mut().enumerate() {
        if i % 16 == 0 {
            *v += 1.0;
        }
    }
    let mut dst = original.clone();
    let merge = collect(iters, || {
        dst.copy_from_slice(&original);
        let started = Instant::now();
        diff_merge(&mut dst, &cpu, &original);
        started.elapsed().as_nanos()
    });

    // diff_merge_ranged over the same 1M buffer with a realistic captured
    // footprint: 128 spans of 512 dirty elements (1/16 of the buffer) —
    // what the dirty-range protocol hands the merge per subkernel.
    let span = 512;
    let stride = len / 128;
    let ranges = DirtyRanges::from_ranges((0..128).map(|j| (j * stride, j * stride + span)));
    let mut cpu_spans = original.clone();
    for (s, e) in ranges.iter() {
        for v in &mut cpu_spans[s..e] {
            *v += 1.0;
        }
    }
    let merge_ranged = collect(iters, || {
        dst.copy_from_slice(&original);
        let started = Instant::now();
        diff_merge_ranged(&mut dst, &cpu_spans, &original, &ranges).expect("ranged merge");
        started.elapsed().as_nanos()
    });

    // Coalescing 65536 scattered dirty indices (every 16th element) into
    // ranges — the capture-side cost of the dirty-range protocol.
    let indices: Vec<usize> = (0..len).filter(|i| i % 16 == 0).collect();
    let coalesce = collect(iters, || {
        let started = Instant::now();
        let r = DirtyRanges::from_indices(indices.iter().copied());
        let ns = started.elapsed().as_nanos();
        assert_eq!(r.element_count(), indices.len());
        ns
    });

    // Snapshotting: acquire a pooled vec, copy a buffer into it, release —
    // what coexec does for every output buffer of every kernel.
    let mut pool = SnapshotPool::new();
    let snap = collect(iters * 10, || {
        let started = Instant::now();
        let mut v = pool.acquire();
        mem.copy_into(c_buf, &mut v).expect("copy_into");
        pool.release(v);
        started.elapsed().as_nanos()
    });

    vec![
        stats("execute_groups_seq", iters, seq),
        stats("execute_groups_par", iters, par),
        stats("diff_merge_1m", iters, merge),
        stats("diff_merge_ranged_1m", iters, merge_ranged),
        stats("dirty_coalesce", iters, coalesce),
        stats("snapshot_roundtrip", iters * 10, snap),
    ]
}

/// SIMD-on vs SIMD-off medians of the 10M page-path merge, measured in
/// one process via the runtime toggle. Without the `simd` feature both
/// runs take the portable path and the speedup reports 1.00x.
struct SimdStats {
    compiled: bool,
    active: bool,
    on_median_ns: u128,
    off_median_ns: u128,
}

impl SimdStats {
    fn speedup(&self) -> f64 {
        self.off_median_ns as f64 / self.on_median_ns.max(1) as f64
    }
}

/// A pristine buffer and a copy with scattered single-element writes at
/// ~1/16 density — the huge-buffer regime the paged tracker exists for:
/// writes land everywhere, so exact range capture fragments into millions
/// of unit ranges while the page map stays O(pages).
fn scatter_case(len: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut rng = SplitMix64::new(seed);
    let original: Vec<f32> = (0..len).map(|i| (i % 1024) as f32).collect();
    let mut cpu = original.clone();
    for _ in 0..len / 16 {
        let at = rng.range_usize(0, len);
        cpu[at] += 1.5;
    }
    (original, cpu)
}

/// Times the paged dirty pipeline on huge buffers: page-map capture plus
/// tracked merge at 10M (quick and full) and 100M elements (full only,
/// against the pre-PR exact-range pipeline on the same data), and the
/// O(1) page-marking path under 1M scattered marks.
fn paged_merge_sections(quick: bool) -> (Vec<Section>, SimdStats) {
    let iters = 10;
    // 10M elements: capture + merge through the paged path; also the
    // SIMD-on/SIMD-off comparison workload.
    let (orig10, cpu10) = scatter_case(10_000_000, 0xF1D1_0001);
    let mut dst = orig10.clone();
    let run10 = |dst: &mut Vec<f32>| {
        dst.copy_from_slice(&orig10);
        let started = Instant::now();
        let t = DirtyTracker::from_diff(&cpu10, &orig10);
        diff_merge_tracked(dst, &cpu10, &orig10, &t).expect("tracked merge");
        let ns = started.elapsed().as_nanos();
        assert!(t.is_paged() && !t.is_empty());
        ns
    };
    set_simd_enabled(true);
    let on = collect(iters, || run10(&mut dst));
    set_simd_enabled(false);
    let off = collect(iters, || run10(&mut dst));
    set_simd_enabled(true);
    let merge10 = stats("diff_merge_10m", iters, on.clone());
    let simd = SimdStats {
        compiled: cfg!(feature = "simd"),
        active: simd_active(),
        on_median_ns: stats("simd_on", iters, on).median_ns,
        off_median_ns: stats("simd_off", iters, off).median_ns,
    };
    drop(dst);
    drop(cpu10);
    drop(orig10);

    // 1M scattered marks into a 100M-element paged tracker: the O(1)
    // capture-side cost the page map buys (compare `dirty_coalesce`,
    // which builds exact ranges from 65536 indices).
    let mut rng = SplitMix64::new(0xF1D1_0002);
    const MARK_LEN: usize = 100_000_000;
    let marks: Vec<usize> = (0..1_000_000)
        .map(|_| rng.range_usize(0, MARK_LEN))
        .collect();
    let mark = collect(iters, || {
        let started = Instant::now();
        let mut t = DirtyTracker::new(MARK_LEN);
        for &i in &marks {
            t.mark_range(i, i + 1);
        }
        let ns = started.elapsed().as_nanos();
        assert!(t.is_paged() && !t.is_empty());
        ns
    });
    let mut sections = vec![merge10, stats("page_mark_scatter", iters, mark)];

    // 100M elements, full mode only: the paged pipeline vs the pre-PR
    // exact-range pipeline (DirtyRanges::from_diff + diff_merge_ranged)
    // on identical data — the EXPERIMENTS.md page-path/range-path table.
    if !quick {
        let len = 100_000_000;
        let (orig, cpu) = scatter_case(len, 0xF1D1_0003);
        let mut dst = orig.clone();
        let paged_iters = 5;
        let paged = collect(paged_iters, || {
            dst.copy_from_slice(&orig);
            let started = Instant::now();
            let t = DirtyTracker::from_diff(&cpu, &orig);
            diff_merge_tracked(&mut dst, &cpu, &orig, &t).expect("tracked merge");
            let ns = started.elapsed().as_nanos();
            assert!(t.is_paged());
            ns
        });
        sections.push(stats("diff_merge_100m_scattered", paged_iters, paged));
        let range_iters = 3;
        let ranged = collect(range_iters, || {
            dst.copy_from_slice(&orig);
            let started = Instant::now();
            let r = DirtyRanges::from_diff(&cpu, &orig);
            diff_merge_ranged(&mut dst, &cpu, &orig, &r).expect("ranged merge");
            let ns = started.elapsed().as_nanos();
            assert!(!r.is_empty());
            ns
        });
        sections.push(stats("diff_merge_100m_rangepath", range_iters, ranged));
    }
    (sections, simd)
}

fn collect(iters: usize, mut f: impl FnMut() -> u128) -> Vec<u128> {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        samples.push(f());
    }
    samples
}

fn stats(name: &'static str, iters: usize, mut samples: Vec<u128>) -> Section {
    samples.sort_unstable();
    let q = |p: f64| samples[((samples.len() - 1) as f64 * p).round() as usize];
    Section {
        name,
        iters,
        median_ns: q(0.5),
        p10_ns: q(0.1),
        p90_ns: q(0.9),
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Hand-written JSON: one section object per line, so the file diffs
/// cleanly and the `--check` parser can stay a line scanner.
fn render_json(sections: &[Section], quick: bool, jobs: usize, simd: &SimdStats) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"git_rev\": \"{}\",\n", git_rev()));
    s.push_str(&format!("  \"jobs\": {jobs},\n"));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"runner\": \"{}\",\n", runner_key()));
    s.push_str(&format!("  \"simd_compiled\": {},\n", simd.compiled));
    s.push_str(&format!("  \"simd_active\": {},\n", simd.active));
    s.push_str(&format!(
        "  \"simd_on_median_ns\": {},\n",
        simd.on_median_ns
    ));
    s.push_str(&format!(
        "  \"simd_off_median_ns\": {},\n",
        simd.off_median_ns
    ));
    // A speedup ratio is only meaningful when the on-lane actually ran
    // vectorized code; otherwise both lanes timed the portable merge and
    // the ratio is runner noise (a 1-cpu CI box once published 0.958).
    if simd.compiled && simd.active {
        s.push_str(&format!("  \"simd_speedup\": {:.3},\n", simd.speedup()));
    } else {
        s.push_str("  \"simd_speedup\": null,\n");
    }
    s.push_str("  \"sections\": [\n");
    for (i, sec) in sections.iter().enumerate() {
        let comma = if i + 1 < sections.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"median_ns\": {}, \"p10_ns\": {}, \"p90_ns\": {}}}{comma}\n",
            sec.name, sec.iters, sec.median_ns, sec.p10_ns, sec.p90_ns
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Extracts a quoted string value for `key` from a JSON line.
fn json_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let at = line.find(&pat)?;
    let rest = &line[at + pat.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts a bare numeric value for `key` from a JSON line.
fn json_num(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": ");
    let at = line.find(&pat)?;
    Some(
        line[at + pat.len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect(),
    )
}

/// One baseline block: a section list compared at `factor`. The fallback
/// block has `runner == None` and applies to machines without a matching
/// per-runner block.
struct BaselineBlock {
    runner: Option<String>,
    factor: f64,
    sections: Vec<(String, u128)>,
}

/// Parses a baseline file in the line-per-section format: `"name"` lines
/// before any `"runner"` line form the fallback block (compared at
/// [`REGRESSION_FACTOR`]); each `"runner"` line opens a per-runner block
/// whose `"factor"` (same line) governs its sections.
fn parse_baseline(text: &str) -> Vec<BaselineBlock> {
    let mut blocks = vec![BaselineBlock {
        runner: None,
        factor: REGRESSION_FACTOR,
        sections: Vec::new(),
    }];
    for line in text.lines() {
        if let Some(runner) = json_str(line, "runner") {
            let factor = json_num(line, "factor")
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(REGRESSION_FACTOR);
            blocks.push(BaselineBlock {
                runner: Some(runner),
                factor,
                sections: Vec::new(),
            });
            continue;
        }
        let (Some(name), Some(med)) = (json_str(line, "name"), json_num(line, "median_ns")) else {
            continue;
        };
        if let Ok(v) = med.parse::<u128>() {
            blocks
                .last_mut()
                .expect("fallback block")
                .sections
                .push((name, v));
        }
    }
    blocks
}

/// Compares section medians against the committed baseline; returns false
/// (CI failure) on a regression beyond the selected block's factor.
fn check_against_baseline(sections: &[Section], path: &str) -> bool {
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("perf --check: no baseline at {path}; skipping comparison");
        return true;
    };
    let blocks = parse_baseline(&text);
    let key = runner_key();
    let block = blocks
        .iter()
        .find(|b| b.runner.as_deref() == Some(key.as_str()))
        .or_else(|| blocks.iter().find(|b| !b.sections.is_empty()))
        .expect("fallback block always present");
    match &block.runner {
        Some(r) => eprintln!(
            "perf --check: runner baseline `{r}` (factor {})",
            block.factor
        ),
        None => eprintln!(
            "perf --check: no baseline for runner `{key}`; using fallback (factor {})",
            block.factor
        ),
    }
    let mut ok = true;
    for s in sections {
        let Some((_, base_med)) = block.sections.iter().find(|(n, _)| n == s.name) else {
            eprintln!("  {:24} no baseline entry; skipped", s.name);
            continue;
        };
        let factor = s.median_ns as f64 / (*base_med).max(1) as f64;
        let verdict = if factor > block.factor {
            ok = false;
            "REGRESSION"
        } else {
            "ok"
        };
        eprintln!("  {:24} {factor:>6.2}x baseline  {verdict}", s.name);
    }
    if !ok {
        eprintln!(
            "perf --check: median regression beyond {}x baseline",
            block.factor
        );
    }
    ok
}
