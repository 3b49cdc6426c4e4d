//! `paper_sweep` and the `repro overall` harness must not drift apart: at
//! the harness seed, the benchmark's per-app FluidiCL/best ratios and
//! their geomean (`vtime_vs_best`) equal the FluidiCL column of the
//! `overall` table.

use std::time::Instant;

use fluidicl_bench::experiments::experiments;
use fluidicl_bench::SEED;
use fluidicl_hetsim::MachineConfig;
use fluidicl_perfbench::metrics::{end_to_end, vs_best_ratios};
use fluidicl_perfbench::workload::{run_units, setup, Workload};

#[test]
fn paper_sweep_matches_the_overall_fluidicl_column() {
    let overall = experiments()
        .into_iter()
        .find(|e| e.id == "overall")
        .expect("overall experiment registered");
    let csv = (overall.run)(&MachineConfig::paper_testbed()).tables[0].to_csv();
    let column: Vec<(String, String)> = csv
        .lines()
        .skip(1)
        .map(|l| {
            let cells: Vec<&str> = l.split(',').collect();
            (cells[0].to_string(), cells[3].to_string())
        })
        .collect();

    let su = setup(Workload::PaperSweep, SEED);
    let pass = run_units(&su, &su.units, SEED, false, Instant::now());
    assert!(
        pass.iter().all(|o| o.error.is_none()),
        "every paper_sweep run validates"
    );
    let mut ours: Vec<(String, String)> = vs_best_ratios(&su, &pass, &[])
        .into_iter()
        .map(|((_, app), r)| (su.apps[app].spec.name.to_string(), format!("{r:.3}")))
        .collect();
    let metrics = end_to_end(&[1.0], &[1.0], 1.0, 1.0, &su, &pass, &[]);
    let vs_best = metrics
        .iter()
        .find(|m| m.name == "vtime_vs_best")
        .expect("vtime_vs_best reported")
        .value;
    ours.push(("GeoMean".to_string(), format!("{vs_best:.3}")));
    assert_eq!(ours, column);
}
