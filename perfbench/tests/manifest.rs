//! `BENCHMARK.json` lists exactly the workloads the benchmark accepts and
//! the metrics, with units, that it prints.

use fluidicl_perfbench::metrics::{end_to_end, LayerTotals};
use fluidicl_perfbench::workload::{setup, Workload};

/// `(section, name, unit)` for every entry of the manifest, which keeps
/// one entry per line.
fn manifest_entries() -> Vec<(String, String, Option<String>)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let field = |line: &str, key: &str| {
        let tag = format!("\"{key}\": \"");
        line.find(&tag).map(|i| {
            let rest = &line[i + tag.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
    };
    let mut section = String::new();
    let mut out = Vec::new();
    for line in text.lines() {
        let t = line.trim();
        if let Some(s) = t.strip_prefix('"').and_then(|s| s.split('"').next()) {
            if t.ends_with('[') {
                section = s.to_string();
            }
        }
        if let Some(name) = field(t, "name") {
            out.push((section.clone(), name, field(t, "unit")));
        }
    }
    out
}

fn section(entries: &[(String, String, Option<String>)], name: &str) -> Vec<(String, String)> {
    entries
        .iter()
        .filter(|(s, _, _)| s == name)
        .map(|(_, n, u)| (n.clone(), u.clone().unwrap_or_default()))
        .collect()
}

#[test]
fn manifest_matches_the_benchmark() {
    let entries = manifest_entries();
    let workloads: Vec<String> = section(&entries, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));

    let su = setup(Workload::CheckSweep, 0);
    let printed = |m: Vec<fluidicl_perfbench::metrics::Metric>| -> Vec<(String, String)> {
        m.into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect()
    };
    assert_eq!(
        section(&entries, "end_to_end"),
        printed(end_to_end(&[1.0], &[1.0], 1.0, 1.0, &su, &[], &[]))
    );
    assert_eq!(
        section(&entries, "per_layer"),
        printed(LayerTotals::default().metrics(&su, &[], &[1.0], 1))
    );
}
