//! The timing proxy changes nothing: wrapped and unwrapped runs of every
//! app on every runtime give bit-identical outputs, `elapsed()` and
//! `kernel_times()`.

use std::time::Instant;

use fluidicl::{Fluidicl, FluidiclConfig};
use fluidicl_baselines::StaticPartitionRuntime;
use fluidicl_check::sweep_size;
use fluidicl_hetsim::MachineConfig;
use fluidicl_perfbench::trace::{Kind, TimedDriver, Tracer};
use fluidicl_polybench::{all_benchmarks, outputs_match};
use fluidicl_vcl::{ClDriver, DeviceKind, Program, SingleDeviceRuntime};

const SEED: u64 = 11;

type Make = fn(Program) -> Box<dyn ClDriver>;

fn runtimes() -> Vec<(&'static str, Kind, Make)> {
    vec![
        ("single-cpu", Kind::Single, |p| {
            Box::new(SingleDeviceRuntime::new(
                MachineConfig::paper_testbed(),
                DeviceKind::Cpu,
                p,
            ))
        }),
        ("single-gpu", Kind::Single, |p| {
            Box::new(SingleDeviceRuntime::new(
                MachineConfig::paper_testbed(),
                DeviceKind::Gpu,
                p,
            ))
        }),
        ("static", Kind::Static, |p| {
            Box::new(StaticPartitionRuntime::new(
                MachineConfig::paper_testbed(),
                p,
                0.3,
            ))
        }),
        ("fluidicl-2dev", Kind::Fluidicl, |p| {
            Box::new(Fluidicl::new(
                MachineConfig::paper_testbed(),
                FluidiclConfig::default(),
                p,
            ))
        }),
        ("fluidicl-3dev", Kind::Fluidicl, |p| {
            Box::new(Fluidicl::new(
                MachineConfig::paper_testbed_3dev(),
                FluidiclConfig::default(),
                p,
            ))
        }),
        ("fluidicl-graph", Kind::Fluidicl, |p| {
            Box::new(Fluidicl::new(
                MachineConfig::paper_testbed_3dev(),
                FluidiclConfig::default().with_graph_scheduling(true),
                p,
            ))
        }),
    ]
}

#[test]
fn wrapped_runs_are_bit_identical_to_unwrapped_runs() {
    for b in all_benchmarks() {
        let n = sweep_size(b.name);
        for (name, kind, make) in runtimes() {
            let mut plain = make((b.program)(n));
            let want = (b.run)(plain.as_mut(), n, SEED).expect("unwrapped run");

            let mut inner = make((b.program)(n));
            let mut tracer = Tracer::new(true, Instant::now());
            let mut wrapped = TimedDriver::new(inner.as_mut(), kind, &mut tracer);
            let got = (b.run)(&mut wrapped, n, SEED).expect("wrapped run");
            assert_eq!(
                wrapped.elapsed(),
                plain.elapsed(),
                "{} on {name}: elapsed",
                b.name
            );
            assert_eq!(
                wrapped.kernel_times(),
                plain.kernel_times(),
                "{} on {name}: kernel_times",
                b.name
            );
            assert!(outputs_match(&got, &want), "{} on {name}: outputs", b.name);

            let spans = tracer.into_spans();
            let enqueued_wgs: u64 = spans
                .iter()
                .filter(|s| s.name == "driver.enqueue")
                .map(|s| {
                    assert_eq!(s.kind, kind);
                    s.work
                })
                .sum();
            assert_eq!(
                enqueued_wgs,
                (b.workgroups)(n).iter().sum::<u64>(),
                "{} on {name}: every launch recorded",
                b.name
            );
        }
    }
}
