//! Turns pass timings, outcomes and spans into the named metrics.

use std::collections::BTreeMap;

use fluidicl_des::geomean;
use fluidicl_polybench::all_benchmarks;

use crate::trace::{Kind, Span};
use crate::workload::{CoexecStats, Outcome, Runtime, Setup, Unit};

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value (0 where the workload does no such work).
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Minimum of CPU-only and GPU-only virtual time per (machine, app).
fn best_single(runs: &[(&Unit, &Outcome)]) -> BTreeMap<(usize, usize), u64> {
    let mut best = BTreeMap::new();
    for (u, o) in runs {
        if matches!(u.runtime, Runtime::Cpu | Runtime::Gpu) {
            best.entry((u.machine, u.app))
                .and_modify(|b: &mut u64| *b = (*b).min(o.vtime_ns))
                .or_insert(o.vtime_ns);
        }
    }
    best
}

/// Each FluidiCL run's virtual time over the best single device on the
/// same machine and app, keyed by (machine, app), in run order.
pub fn vs_best_ratios(
    setup: &Setup,
    pass: &[Outcome],
    probe: &[Outcome],
) -> Vec<((usize, usize), f64)> {
    let runs: Vec<(&Unit, &Outcome)> = setup
        .units
        .iter()
        .zip(pass)
        .chain(setup.probe.iter().zip(probe))
        .collect();
    let best = best_single(&runs);
    runs.iter()
        .filter(|(u, _)| matches!(u.runtime, Runtime::Fluidicl(..)))
        .filter_map(|(u, o)| {
            let key = (u.machine, u.app);
            best.get(&key).map(|&b| (key, o.vtime_ns as f64 / b as f64))
        })
        .collect()
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(
    wall_s: &[f64],
    setup_s: &[f64],
    peak_rss_mib: f64,
    ok_frac: f64,
    setup: &Setup,
    pass: &[Outcome],
    probe: &[Outcome],
) -> Vec<Metric> {
    let us: Vec<f64> = setup
        .units
        .iter()
        .zip(pass)
        .filter(|(u, _)| matches!(u.runtime, Runtime::Fluidicl(..)))
        .map(|(_, o)| o.vtime_ns as f64 / 1e3)
        .collect();
    let vs_best: Vec<f64> = vs_best_ratios(setup, pass, probe)
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    vec![
        metric("wall_s", "s", median(wall_s)),
        metric("setup_s", "s", median(setup_s)),
        metric("peak_rss_mib", "MiB", peak_rss_mib),
        metric("ok_frac", "frac", ok_frac),
        metric("vtime_geomean_us", "sim_us", geomean(&us).unwrap_or(0.0)),
        metric("vtime_vs_best", "ratio", geomean(&vs_best).unwrap_or(0.0)),
    ]
}

/// Per-app geomean of FluidiCL virtual time, `vtime_us.<APP>`, for every
/// registered app (0 for apps the workload does not run).
pub fn vtime_per_app(setup: &Setup, pass: &[Outcome]) -> Vec<Metric> {
    all_benchmarks()
        .iter()
        .map(|b| {
            let v: Vec<f64> = setup
                .units
                .iter()
                .zip(pass)
                .filter(|(u, _)| {
                    matches!(u.runtime, Runtime::Fluidicl(..))
                        && setup.apps[u.app].spec.name == b.name
                })
                .map(|(_, o)| o.vtime_ns as f64 / 1e3)
                .collect();
            metric(
                format!("vtime_us.{}", b.name),
                "sim_us",
                geomean(&v).unwrap_or(0.0),
            )
        })
        .collect()
}

/// Span totals for one (name, kind).
#[derive(Clone, Copy, Debug, Default)]
struct Agg {
    dur: u64,
    self_ns: u64,
    count: u64,
    work: u64,
}

/// Per-layer totals over several traced passes of the same units.
#[derive(Default)]
pub struct LayerTotals {
    passes: usize,
    wall_s: Vec<f64>,
    spans: BTreeMap<(&'static str, Kind), Agg>,
    /// (Σ single-device enqueue ns, Σ work-groups) per app, passes and
    /// probe together.
    single_by_app: BTreeMap<usize, (u64, u64)>,
    /// FluidiCL enqueue-plus-flush ns and executed work-groups per app.
    fluidicl_by_app: BTreeMap<usize, (u64, u64)>,
    graph_flush_ns: u64,
    reference_keys: usize,
    lint_errors: u64,
    race_errors: u64,
    coexec: CoexecStats,
}

fn add_spans(spans: &[Span], into: &mut BTreeMap<(&'static str, Kind), Agg>) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    for (s, c) in spans.iter().zip(child_ns) {
        let a = into.entry((s.name, s.kind)).or_default();
        a.dur += s.dur_ns();
        a.self_ns += s.dur_ns() - c;
        a.count += 1;
        a.work += s.work;
    }
}

fn sum_named(spans: &[Span], name: &str, kind: Kind) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name && s.kind == kind)
        .fold((0, 0), |(d, w), s| (d + s.dur_ns(), w + s.work))
}

impl LayerTotals {
    /// Adds one traced pass that took `wall_s` seconds.
    pub fn add_pass(&mut self, setup: &Setup, wall_s: f64, pass: &[Outcome]) {
        self.passes += 1;
        self.wall_s.push(wall_s);
        let mut keys = Vec::new();
        for (u, o) in setup.units.iter().zip(pass) {
            add_spans(&o.spans, &mut self.spans);
            self.add_unit_rates(u, o);
            if o.spans.iter().any(|s| s.name == "polybench.reference") {
                keys.push(u.app);
            }
            if u.graph_on() {
                self.graph_flush_ns += sum_named(&o.spans, "driver.read", Kind::Fluidicl).0;
            }
            self.lint_errors += o.checks.lint;
            self.race_errors += o.checks.race;
            if let Some(s) = &o.stats {
                self.coexec.add(s);
            }
        }
        keys.sort_unstable();
        keys.dedup();
        self.reference_keys = keys.len();
    }

    /// Adds the traced baseline probe, which only feeds the single-device
    /// cost per work-group.
    pub fn add_probe(&mut self, setup: &Setup, probe: &[Outcome]) {
        for (u, o) in setup.probe.iter().zip(probe) {
            self.add_unit_rates(u, o);
        }
    }

    fn add_unit_rates(&mut self, u: &Unit, o: &Outcome) {
        match u.runtime {
            Runtime::Cpu | Runtime::Gpu => {
                let (ns, wgs) = sum_named(&o.spans, "driver.enqueue", Kind::Single);
                let e = self.single_by_app.entry(u.app).or_default();
                e.0 += ns;
                e.1 += wgs;
            }
            Runtime::Fluidicl(..) => {
                let mut ns = sum_named(&o.spans, "driver.enqueue", Kind::Fluidicl).0;
                if u.graph_on() {
                    ns += sum_named(&o.spans, "driver.read", Kind::Fluidicl).0;
                }
                let executed = o.stats.as_ref().map_or(0, |s| s.executed_wgs);
                let e = self.fluidicl_by_app.entry(u.app).or_default();
                e.0 += ns;
                e.1 += executed;
            }
            Runtime::Static(_) => {}
        }
    }

    /// Totals of the spans named `name`, of runtime `kind` or of any.
    fn agg(&self, name: &str, kind: Option<Kind>) -> Agg {
        self.spans
            .iter()
            .filter(|((n, k), _)| *n == name && kind.is_none_or(|kind| *k == kind))
            .fold(Agg::default(), |a, (_, b)| Agg {
                dur: a.dur + b.dur,
                self_ns: a.self_ns + b.self_ns,
                count: a.count + b.count,
                work: a.work + b.work,
            })
    }

    /// Seconds per pass in spans `name` of runtime `kind` or of any.
    fn secs(&self, name: &str, kind: Option<Kind>) -> f64 {
        self.per_pass(self.agg(name, kind).dur) / 1e9
    }

    fn per_pass(&self, v: u64) -> f64 {
        v as f64 / self.passes.max(1) as f64
    }

    /// Self time per layer, per pass, in seconds; the first entry is the
    /// harness (root spans' own time), the rest are named layers.
    fn layer_self_s(&self) -> Vec<(&'static str, f64)> {
        let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (&(name, kind), a) in &self.spans {
            let layer = match (name, kind) {
                ("run", _) => "harness",
                (n, _) if n.starts_with("polybench.") => "polybench",
                (n, _) if n.starts_with("check.") => "check",
                (_, Kind::Single) => "vcl",
                (_, Kind::Static) => "baselines",
                (_, Kind::Fluidicl) => "core",
                (_, Kind::None) => "harness",
            };
            *layers.entry(layer).or_default() += a.self_ns;
        }
        ["harness", "polybench", "vcl", "baselines", "core", "check"]
            .into_iter()
            .map(|l| (l, self.per_pass(layers.get(l).copied().unwrap_or(0)) / 1e9))
            .collect()
    }

    /// The per-layer metrics; `untraced_wall_s` are the same run's
    /// untraced pass times, `jobs` the worker count.
    pub fn metrics(
        &self,
        setup: &Setup,
        first_pass: &[Outcome],
        untraced_wall_s: &[f64],
        jobs: usize,
    ) -> Vec<Metric> {
        let c = &self.coexec;
        let (single_ns, single_wgs) = self
            .single_by_app
            .values()
            .fold((0, 0), |(n, w), &(a, b)| (n + a, w + b));
        let (fl_ns, fl_wgs) = self
            .fluidicl_by_app
            .values()
            .fold((0, 0), |(n, w), &(a, b)| (n + a, w + b));
        // FluidiCL time over what the single-device runtime would take to
        // execute the same work-groups of the same apps.
        let single_equiv: f64 = self
            .fluidicl_by_app
            .iter()
            .map(|(app, &(_, wgs))| {
                let (ns, swgs) = self.single_by_app.get(app).copied().unwrap_or((0, 0));
                wgs as f64 * ratio(ns as f64, swgs as f64)
            })
            .sum();
        let mut m = vec![
            metric(
                "polybench.reference_s",
                "s",
                self.secs("polybench.reference", None),
            ),
            metric(
                "polybench.reference_calls",
                "count",
                self.per_pass(self.agg("polybench.reference", None).count),
            ),
            metric(
                "polybench.reference_keys",
                "count",
                self.reference_keys as f64,
            ),
            metric(
                "polybench.host_self_s",
                "s",
                self.per_pass(self.agg("polybench.host", None).self_ns) / 1e9,
            ),
            metric(
                "polybench.validate_s",
                "s",
                self.secs("polybench.validate", None),
            ),
            metric("driver.write_s", "s", self.secs("driver.write", None)),
            metric(
                "driver.write_mib",
                "MiB",
                self.per_pass(self.agg("driver.write", None).work) / MIB,
            ),
            metric("driver.read_s", "s", self.secs("driver.read", None)),
            metric(
                "driver.read_mib",
                "MiB",
                self.per_pass(self.agg("driver.read", None).work) / MIB,
            ),
            metric(
                "single.enqueue_s",
                "s",
                self.secs("driver.enqueue", Some(Kind::Single)),
            ),
            metric(
                "static.enqueue_s",
                "s",
                self.secs("driver.enqueue", Some(Kind::Static)),
            ),
            metric(
                "single.enqueue_ns_per_wg",
                "ns",
                ratio(single_ns as f64, single_wgs as f64),
            ),
            metric(
                "fluidicl.enqueue_s",
                "s",
                self.secs("driver.enqueue", Some(Kind::Fluidicl)),
            ),
            metric(
                "fluidicl.enqueue_ns_per_wg",
                "ns",
                ratio(fl_ns as f64, fl_wgs as f64),
            ),
            metric(
                "coexec.host_overhead",
                "ratio",
                ratio(fl_ns as f64, single_equiv),
            ),
            metric(
                "coexec.trace_events",
                "count",
                self.per_pass(c.trace_events),
            ),
            metric(
                "coexec.ns_per_event",
                "ns",
                ratio(fl_ns as f64, c.trace_events as f64),
            ),
            metric("coexec.launches", "count", self.per_pass(c.launches)),
            metric("coexec.subkernels", "count", self.per_pass(c.subkernels)),
            metric(
                "coexec.useful_wg_frac",
                "frac",
                ratio(c.total_wgs as f64, c.executed_wgs as f64),
            ),
            metric("coexec.hd_mib", "MiB", self.per_pass(c.hd_bytes) / MIB),
            metric("coexec.dh_mib", "MiB", self.per_pass(c.dh_bytes) / MIB),
            metric(
                "coexec.cpu_share",
                "frac",
                ratio(c.cpu_merged_wgs as f64, c.total_wgs as f64),
            ),
            metric(
                "coexec.peer_wg_frac",
                "frac",
                ratio(c.peer_wgs as f64, c.executed_wgs as f64),
            ),
            metric(
                "buffers.snapshot_hit_frac",
                "frac",
                ratio(
                    c.snapshot_hits as f64,
                    (c.snapshot_hits + c.snapshot_misses) as f64,
                ),
            ),
            metric("graph.nodes", "count", self.per_pass(c.graph_nodes)),
            metric("graph.edges", "count", self.per_pass(c.graph_edges)),
            metric("graph.max_overlap", "count", c.graph_max_overlap as f64),
            metric(
                "graph.flush_s",
                "s",
                self.per_pass(self.graph_flush_ns) / 1e9,
            ),
            metric("lint.s", "s", self.secs("check.lint", None)),
            metric("lint.errors", "count", self.per_pass(self.lint_errors)),
            metric("race.s", "s", self.secs("check.race", None)),
            metric("race.errors", "count", self.per_pass(self.race_errors)),
            metric("schedule.s", "s", self.secs("check.schedule", None)),
        ];
        m.extend(vtime_per_app(setup, first_pass));

        let layers = self.layer_self_s();
        let traced = median(&self.wall_s);
        let untraced = median(untraced_wall_s);
        let attributed: f64 = layers.iter().skip(1).map(|(_, s)| s).sum();
        let workers = jobs.min(setup.units.len()).max(1) as f64;
        m.extend([
            metric("trace.wall_s", "s", traced),
            metric("trace.overhead_s", "s", traced - untraced),
            metric(
                "trace.overhead_frac",
                "frac",
                ratio(traced - untraced, untraced),
            ),
            metric(
                "trace.attributed_frac",
                "frac",
                ratio(
                    attributed,
                    self.wall_s.iter().sum::<f64>() / self.passes.max(1) as f64 * workers,
                ),
            ),
        ]);
        m.extend(
            layers
                .into_iter()
                .map(|(l, s)| metric(format!("self_s.{l}"), "s", s)),
        );
        m
    }
}

/// Renders the final result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// Renders one span per line as JSON, for the span dump.
pub fn spans_jsonl(outcomes: &[Outcome]) -> String {
    let mut out = String::new();
    for (run, o) in outcomes.iter().enumerate() {
        for (id, s) in o.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"run\": {run}, \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"kind\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"work\": {}}}\n",
                s.name,
                s.kind.label(),
                s.start_ns,
                s.end_ns,
                s.work
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                parent: None,
                name: "run",
                kind: Kind::None,
                start_ns: 0,
                end_ns: 100,
                work: 0,
            },
            Span {
                parent: Some(0),
                name: "polybench.host",
                kind: Kind::Single,
                start_ns: 10,
                end_ns: 90,
                work: 0,
            },
            Span {
                parent: Some(1),
                name: "driver.enqueue",
                kind: Kind::Single,
                start_ns: 20,
                end_ns: 50,
                work: 8,
            },
        ];
        let mut agg = BTreeMap::new();
        add_spans(&spans, &mut agg);
        assert_eq!(agg[&("run", Kind::None)].self_ns, 20);
        assert_eq!(agg[&("polybench.host", Kind::Single)].self_ns, 50);
        assert_eq!(agg[&("driver.enqueue", Kind::Single)].work, 8);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(true, 3, 0, &[metric("wall_s", "s", 1.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(metric("x", "s", f64::NAN).value, 0.0);
    }
}
