//! Metric names, the result line, and the small statistics the
//! workloads share.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (tracing off) that every workload reports, in
/// output order. They must match `BENCHMARK.json`'s `end_to_end`.
pub const END_TO_END: &[(&str, &str)] =
    &[("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics of the traced run, in output order. Every workload
/// reports every one; a layer the workload never calls reads 0. They
/// must match `BENCHMARK.json`'s `per_layer`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("noc.step_s", "s"),
    ("noc.step_calls", "count"),
    ("noc.step_ns.ring", "ns"),
    ("noc.step_ns.mesh", "ns"),
    ("noc.step_ns.optbus", "ns"),
    ("noc.step_ns.flumen_i", "ns"),
    ("noc.step_ns.flumen_a", "ns"),
    ("noc.step_ns.torus", "ns"),
    ("noc.step_ns.ring.load05", "ns"),
    ("noc.step_ns.ring.load30", "ns"),
    ("noc.step_ns.ring.load80", "ns"),
    ("noc.step_ns.mesh.load05", "ns"),
    ("noc.step_ns.mesh.load30", "ns"),
    ("noc.step_ns.mesh.load80", "ns"),
    ("noc.step_ns.optbus.load05", "ns"),
    ("noc.step_ns.optbus.load30", "ns"),
    ("noc.step_ns.optbus.load80", "ns"),
    ("noc.step_ns.flumen_i.load05", "ns"),
    ("noc.step_ns.flumen_i.load30", "ns"),
    ("noc.step_ns.flumen_i.load80", "ns"),
    ("noc.step_ns.torus.load05", "ns"),
    ("noc.step_ns.torus.load30", "ns"),
    ("noc.step_ns.torus.load80", "ns"),
    ("noc.inject_s", "s"),
    ("noc.injects", "count"),
    ("noc.idle_step_frac", "fraction"),
    ("system.engine_self_s", "s"),
    ("core.control_unit.step_s", "s"),
    ("core.control_unit.requests", "count"),
    ("core.control_unit.admit_frac", "fraction"),
    ("workloads.instantiate_s", "s"),
    ("workloads.taskgen_s", "s"),
    ("workloads.verify_s", "s"),
    ("power.energy_s", "s"),
    ("sweep.content_hash_s", "s"),
    ("sweep.content_hash_us", "us"),
    ("sweep.cache_store_s", "s"),
    ("sweep.cache_load_s", "s"),
    ("sweep.cache_bytes", "bytes"),
    ("linalg.block_decompose_s", "s"),
    ("photonics.program_s", "s"),
    ("photonics.programs", "count"),
    ("photonics.program_us", "us"),
    ("photonics.apply_s", "s"),
    ("photonics.applies", "count"),
    ("photonics.apply_ns", "ns"),
    ("serve.generate_s", "s"),
    ("serve.execute_payloads_s", "s"),
    ("serve.payloads", "count"),
    ("serve.serve_requests_s", "s"),
    ("serve.requests", "count"),
    ("serve.admitted_frac", "fraction"),
    ("trace.recording_overhead_frac", "fraction"),
    ("bench.trace_overhead_frac", "fraction"),
];

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and holds at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The per-layer values of one traced run, keyed by [`PER_LAYER`] name.
#[derive(Debug)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect())
    }
}

impl Layers {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`] (a bug in this benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
        *slot = value;
    }

    /// The metrics in [`PER_LAYER`] order with their units.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER.iter().map(|&(n, u)| (n, self.0[n], u)).collect()
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs, points, verifications or requests attempted.
    pub attempted: u64,
    /// Of those, how many panicked, were truncated, mismatched their
    /// recorded digest or broke a conservation check.
    pub failed: u64,
    /// End-to-end values `(name, value)`, tracing off.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer values, traced run only.
    pub layers: Option<Layers>,
}

impl Outcome {
    /// Counts one attempted unit, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.check_many(1, ok);
    }

    /// Counts `n` attempted units, all failed unless `ok`.
    pub fn check_many(&mut self, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }
}

/// A JSON number with every digit of `v` (non-finite values, which the
/// workloads never produce on purpose, read as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        failed == 0,
        attempted.max(1),
        failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    s.push_str("}}");
    s
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
///
/// # Panics
///
/// Panics where `/proc/self/status` is unreadable: the benchmark runs on
/// Linux only.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Prints one human-readable metric row.
pub fn print_row(name: &str, value: f64, unit: &str) {
    println!("  {name:<34} {value:>16.6} {unit}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
        }
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let declared = |section: &str| -> Vec<String> {
            let body = text.split(&format!("\"{section}\"")).nth(1).expect(section);
            let body = &body[..body.find(']').expect("list end")];
            body.split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("name value").to_string())
                .collect()
        };
        let names = |xs: &[(&str, &str)]| xs.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(declared("end_to_end"), names(END_TO_END));
        assert_eq!(declared("per_layer"), names(PER_LAYER));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(3, 0, &[("wall_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert!(result_line(2, 1, &[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn layers_default_to_zero_and_reject_undeclared_names() {
        let mut l = Layers::default();
        assert_eq!(l.rows().len(), PER_LAYER.len());
        l.set("noc.step_s", 2.5);
        let value = |name| l.rows().into_iter().find(|r| r.0 == name).unwrap().1;
        assert_eq!(value("noc.step_s"), 2.5);
        assert_eq!(value("noc.inject_s"), 0.0);
        let r = std::panic::catch_unwind(move || l.set("no.such", 1.0));
        assert!(r.is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
