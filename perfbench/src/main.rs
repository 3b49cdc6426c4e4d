//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--jobs J]`
//!
//! Sets the workload up several times (reporting the median as
//! `setup_s`), then runs timed passes until the next one would overrun
//! `--seconds` (at least one), validating every application run. With
//! `--trace 1` untraced and traced passes alternate and the per-layer
//! metrics come from the traced ones. The last line of standard output is
//! the JSON result; the exit code is non-zero if any run failed.

use std::time::Instant;

use fluidicl_perfbench::metrics::{self, result_json, LayerTotals};
use fluidicl_perfbench::workload::{
    describe, run_unit, run_units, setup, Outcome, Setup, Unit, Workload,
};

/// Set-ups per run: at least `SETUP_MIN_REPS`, and more until they have
/// taken `SETUP_BUDGET_S` in total; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 1.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    jobs: usize,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--jobs J]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn bad(flag: &str, value: &str) -> ! {
    usage(&format!("bad value `{value}` for {flag}"))
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut jobs = 1;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).unwrap_or_else(|| bad(&flag, &value)))
            }
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| bad(&flag, &value))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u32>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .unwrap_or_else(|| bad(&flag, &value)),
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(&flag, &value),
                }
            }
            "--jobs" => {
                jobs = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&j| j >= 1)
                    .unwrap_or_else(|| bad(&flag, &value))
            }
            _ => usage(&format!("unknown argument `{flag}`")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: f64::from(seconds.unwrap_or_else(|| usage("--seconds is required"))),
        trace,
        jobs,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or_else(
            || {
                eprintln!("perfbench: VmHWM unavailable; peak_rss_mib reads 0");
                0.0
            },
            |kib| kib / 1024.0,
        )
}

/// The checkout's commit, read from `.git` without running git; `none`
/// outside a git checkout.
fn git_rev() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let Ok(head) = std::fs::read_to_string(format!("{git}/HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!("{git}/{r}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(format!("{git}/packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "none".to_string())
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Failed runs among `units`' outcomes, plus runs whose virtual time
/// differs from `first`'s (the virtual clock must repeat exactly).
fn count_failures(
    su: &Setup,
    units: &[Unit],
    pass: &[Outcome],
    first: &[Outcome],
    errors: &mut Vec<String>,
) -> u64 {
    let mut failed = 0;
    for ((u, o), f) in units.iter().zip(pass).zip(first) {
        let error = match &o.error {
            Some(e) => e.clone(),
            None if o.vtime_ns != f.vtime_ns => format!(
                "virtual time {} ns differs from the first pass's {} ns",
                o.vtime_ns, f.vtime_ns
            ),
            None => continue,
        };
        failed += 1;
        errors.push(format!("{}: {error}", describe(su, u)));
    }
    failed
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!(
            "perfbench: refusing a debug build (validate_protocol defaults on there); \
             build with --release"
        );
        std::process::exit(2);
    }
    let args = parse_args();
    fluidicl_par::configure_jobs(args.jobs);
    let nproc = fluidicl_par::hardware_parallelism();
    println!(
        "config: workload={} seed={} seconds={} trace={} jobs={} nproc={nproc} runner={}-{nproc}cpu \
         git_rev={} simd_feature={} simd_active={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fluidicl_par::jobs(),
        std::env::consts::OS,
        git_rev(),
        cfg!(feature = "simd"),
        fluidicl_vcl::simd_active(),
    );

    // A set-up builds the workload and makes one untimed run of its first
    // application, so the process's first heap growth is paid before the
    // timed passes. Building alone takes microseconds for `paper_sweep`,
    // too little to time steadily on a shared host.
    let mut setup_s = Vec::new();
    let mut su: Option<Setup> = None;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut errors = Vec::new();
    while setup_s.len() < SETUP_MIN_REPS || setup_s.iter().sum::<f64>() < SETUP_BUDGET_S {
        drop(su.take());
        let ((s, warm), secs) = timed(|| {
            let s = setup(args.workload, args.seed);
            let warm = run_unit(&s, &s.units[0], args.seed, false, Instant::now());
            (s, warm)
        });
        attempted += 1;
        if let Some(e) = warm.error {
            failed += 1;
            errors.push(format!("{} (warm-up): {e}", describe(&s, &s.units[0])));
        }
        su = Some(s);
        setup_s.push(secs);
    }
    let su = su.expect("at least one set-up");

    let start = Instant::now();
    let mut walls = Vec::new();
    let mut traced = LayerTotals::default();
    let mut first: Option<Vec<Outcome>> = None;
    let mut first_traced: Option<Vec<Outcome>> = None;
    loop {
        let (pass, wall) = timed(|| run_units(&su, &su.units, args.seed, false, start));
        walls.push(wall);
        let mut round = wall;
        attempted += pass.len() as u64;
        failed += count_failures(
            &su,
            &su.units,
            &pass,
            first.as_ref().unwrap_or(&pass),
            &mut errors,
        );
        first.get_or_insert(pass);
        if args.trace {
            let (pass, wall) = timed(|| run_units(&su, &su.units, args.seed, true, start));
            round += wall;
            attempted += pass.len() as u64;
            let base = first.as_ref().expect("untraced pass ran first");
            failed += count_failures(&su, &su.units, &pass, base, &mut errors);
            traced.add_pass(&su, wall, &pass);
            first_traced.get_or_insert(pass);
        }
        // Start another round only if it is expected to fit.
        if start.elapsed().as_secs_f64() + round > args.seconds {
            break;
        }
    }
    let first = first.expect("at least one pass");

    let probe = run_units(&su, &su.probe, args.seed, args.trace, start);
    attempted += probe.len() as u64;
    failed += count_failures(&su, &su.probe, &probe, &probe, &mut errors);

    let out = if args.trace {
        traced.add_probe(&su, &probe);
        let first_traced = first_traced.expect("at least one traced pass");
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-{}.jsonl", args.workload.name(), args.seed);
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, metrics::spans_jsonl(&first_traced)))
        {
            eprintln!("perfbench: could not write {path}: {e}");
        }
        traced.metrics(&su, &first_traced, &walls, fluidicl_par::jobs())
    } else {
        let ok_frac = 1.0 - failed as f64 / attempted as f64;
        metrics::end_to_end(
            &walls,
            &setup_s,
            peak_rss_mib(),
            ok_frac,
            &su,
            &first,
            &probe,
        )
    };

    println!(
        "passes: {} of {} runs (+{} baseline probe runs); wall per pass: {:?}",
        walls.len(),
        su.units.len(),
        su.probe.len(),
        walls
    );
    for e in errors.iter().take(20) {
        eprintln!("perfbench: FAILED {e}");
    }
    for m in &out {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(failed == 0, attempted, failed, &out));
    if failed > 0 {
        std::process::exit(1);
    }
}
