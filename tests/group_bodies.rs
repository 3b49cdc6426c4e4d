//! Work-group bodies against the per-item bodies they stand in for.
//!
//! A kernel version's optional group body runs in place of its per-item
//! body whenever present, and the per-item body is the kernel's definition.
//! For every Polybench kernel with a group body, at two sizes, executing a
//! group range through the real kernel must leave memory bit-identical to
//! executing it item by item. The ranges cover one group, the first and the
//! last group, the whole NDRange, random interiors and ragged tails taken
//! from the top (as CPU subkernels take them). Two mutations check that
//! the test and the sanitizer catch a wrong group body.

use std::collections::BTreeSet;
use std::sync::Arc;

use fluidicl_check::{sanitize_launch, SWEEP_SEED};
use fluidicl_des::{SimDuration, SplitMix64};
use fluidicl_polybench::{all_benchmarks, BenchmarkSpec};
use fluidicl_vcl::exec::{execute_all, execute_groups};
use fluidicl_vcl::{
    BufferId, ClDriver, ClResult, Inputs, KernelArg, KernelDef, KernelVersion, Launch, Memory,
    NdRange, Outputs, Program, Scalars, WorkGroup, WorkItem,
};

/// Problem sizes: a few groups, and the sweep size of the matvec apps.
const SIZES: [usize; 2] = [80, 256];

/// Executes every launch functionally and keeps, for each launch whose
/// version has a group body, the launch and the memory it started from.
struct Recorder {
    program: Program,
    mem: Memory,
    next_id: u64,
    launches: Vec<(Launch, Memory)>,
}

impl ClDriver for Recorder {
    fn create_buffer(&mut self, len: usize) -> BufferId {
        let id = BufferId(self.next_id);
        self.next_id += 1;
        self.mem.alloc(id, len);
        id
    }

    fn write_buffer(&mut self, id: BufferId, data: &[f32]) -> ClResult<()> {
        self.mem.write(id, data)
    }

    fn enqueue_kernel(
        &mut self,
        kernel: &str,
        ndrange: NdRange,
        args: &[KernelArg],
    ) -> ClResult<()> {
        let launch = Launch::new(self.program.kernel(kernel)?, ndrange, args.to_vec());
        if launch.resolved_version().group_body.is_some() {
            self.launches.push((launch.clone(), self.mem.clone()));
        }
        execute_all(&launch, &mut self.mem)
    }

    fn read_buffer(&mut self, id: BufferId) -> ClResult<Vec<f32>> {
        self.mem.get(id).map(<[f32]>::to_vec)
    }

    fn elapsed(&self) -> SimDuration {
        SimDuration::ZERO
    }

    fn kernel_times(&self) -> Vec<(String, SimDuration)> {
        Vec::new()
    }
}

/// Names of the kernels of `b` that have a group body.
fn group_bodied_kernels(b: &BenchmarkSpec) -> BTreeSet<String> {
    let p = (b.program)(b.default_n);
    p.kernel_names()
        .filter(|&k| {
            let def = p.kernel(k).expect("listed kernel");
            def.versions().iter().any(|v| v.group_body.is_some())
        })
        .map(String::from)
        .collect()
}

/// Every group-bodied launch of every app at size `n`, checking that each
/// kernel with a group body is among them.
fn group_launches(n: usize) -> Vec<(Launch, Memory)> {
    let mut all = Vec::new();
    for b in all_benchmarks() {
        let want = group_bodied_kernels(&b);
        if want.is_empty() {
            continue;
        }
        let mut rec = Recorder {
            program: (b.program)(n),
            mem: Memory::new(),
            next_id: 0,
            launches: Vec::new(),
        };
        (b.run)(&mut rec, n, SWEEP_SEED).expect("host program runs");
        let got: BTreeSet<String> = rec
            .launches
            .iter()
            .map(|(l, _)| l.kernel.name().to_string())
            .collect();
        assert_eq!(got, want, "{} at n = {n}: every group body runs", b.name);
        all.extend(rec.launches);
    }
    assert!(!all.is_empty(), "some kernel has a group body");
    all
}

/// The per-item body of `v`, as a closure a new [`KernelDef`] can take.
fn item_body(
    v: &KernelVersion,
) -> impl Fn(&WorkItem, &Scalars, &Inputs<'_>, &mut Outputs<'_>) + Send + Sync + 'static {
    let body = Arc::clone(&v.body);
    move |it, s, i, o| body(it, s, i, o)
}

/// `launch` with every version reduced to its per-item body: the test-only
/// route to the definition a group body must reproduce.
fn per_item_twin(launch: &Launch) -> Launch {
    let k = &launch.kernel;
    let mut versions = k.versions().iter();
    let first = versions.next().expect("a kernel has a version");
    let mut def = KernelDef::new(
        k.name(),
        k.args().to_vec(),
        first.profile.clone(),
        item_body(first),
    );
    for v in versions {
        def = def.with_version(v.label.clone(), v.profile.clone(), item_body(v));
    }
    let mut twin = Launch::new(Arc::new(def), launch.ndrange, launch.args.clone());
    twin.version = launch.version;
    twin
}

/// `launch` whose group body runs the real one, then `tamper`.
fn mutant(
    launch: &Launch,
    tamper: impl Fn(&WorkGroup, &mut Outputs<'_>) + Send + Sync + 'static,
) -> Launch {
    let k = &launch.kernel;
    let v = launch.resolved_version();
    let real = Arc::clone(v.group_body.as_ref().expect("kernel has a group body"));
    let def = KernelDef::new(k.name(), k.args().to_vec(), v.profile.clone(), item_body(v))
        .with_group_body(move |wg, s, i, o| {
            real(wg, s, i, o);
            tamper(wg, o);
        });
    Launch::new(Arc::new(def), launch.ndrange, launch.args.clone())
}

/// Runs groups `[from, to)` of `launch` and of its per-item twin on copies
/// of `mem`; describes the first output element where they differ.
fn compare(launch: &Launch, mem: &Memory, from: u64, to: u64) -> Result<(), String> {
    let mut grouped = mem.clone();
    let mut itemwise = mem.clone();
    execute_groups(launch, &mut grouped, from, to).expect("group execution");
    execute_groups(&per_item_twin(launch), &mut itemwise, from, to).expect("per-item execution");
    for id in launch.output_buffers().expect("valid launch") {
        let (g, w) = (grouped.get(id).unwrap(), itemwise.get(id).unwrap());
        if let Some(i) = (0..g.len()).find(|&i| g[i].to_bits() != w[i].to_bits()) {
            return Err(format!(
                "kernel `{}`, groups {from}..{to}, buffer {id:?}[{i}]: group body {} vs \
                 per-item {}",
                launch.kernel.name(),
                g[i],
                w[i]
            ));
        }
    }
    Ok(())
}

/// One group, the first and last group, the whole range, random interiors
/// and ragged tails from the top.
fn ranges(total: u64, rng: &mut SplitMix64) -> Vec<(u64, u64)> {
    let one = rng.range_u64(0, total);
    let mut out = vec![(one, one + 1), (0, 1), (total - 1, total), (0, total)];
    for _ in 0..4 {
        let (a, b) = (rng.range_u64(0, total), rng.range_u64(0, total));
        out.push((a.min(b), a.max(b) + 1));
        out.push((rng.range_u64(0, total), total));
    }
    out
}

#[test]
fn group_bodies_match_per_item_execution() {
    let mut rng = SplitMix64::new(SWEEP_SEED);
    for n in SIZES {
        for (launch, mem) in group_launches(n) {
            for (from, to) in ranges(launch.ndrange.num_groups(), &mut rng) {
                compare(&launch, &mem, from, to).unwrap();
            }
        }
    }
}

#[test]
fn a_group_body_one_ulp_off_fails_the_comparison() {
    for (launch, mem) in group_launches(SIZES[0]) {
        let off = mutant(&launch, |wg, outs| {
            let x = &mut outs.at(0)[wg.global_range(0).start];
            *x = f32::from_bits(x.to_bits() + 1);
        });
        let total = launch.ndrange.num_groups();
        assert!(compare(&launch, &mem, 0, total).is_ok());
        assert!(
            compare(&off, &mem, 0, total).is_err(),
            "kernel `{}`",
            launch.kernel.name()
        );
    }
}

#[test]
fn a_group_body_writing_past_its_group_is_a_write_conflict() {
    for (launch, mem) in group_launches(SIZES[0]) {
        let spill = mutant(&launch, |wg, outs| {
            if let Some(x) = outs.at(0).get_mut(wg.global_range(0).end) {
                *x = 0.0;
            }
        });
        assert!(sanitize_launch(&launch, &mem).is_empty());
        let rules: Vec<_> = sanitize_launch(&spill, &mem)
            .iter()
            .map(|d| d.rule)
            .collect();
        assert!(
            rules.contains(&"write-conflict"),
            "kernel `{}`: {rules:?}",
            launch.kernel.name()
        );
    }
}
