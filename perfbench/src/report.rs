//! The metric registry, host facts and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which run prints a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Printed by the untraced run (`--trace 0`).
    EndToEnd,
    /// Printed by the traced run (`--trace 1`).
    PerLayer,
}

/// A metric name, its unit and the run that prints it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]`, unique).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which run prints it.
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::PerLayer,
    }
}

/// Every metric the benchmark prints. `BENCHMARK.json` lists the same
/// names and units (a self-test keeps them in step).
pub const METRICS: &[MetricDef] = &[
    e2e("work_per_s", "1/s"),
    e2e("op_ms_p50", "ms"),
    e2e("op_ms_tail", "ms"),
    e2e("setup_s", "s"),
    e2e("peak_rss_mib", "MiB"),
    // Calls, self time and share of traced worker time per layer group.
    layer("web.shards.calls", "count"),
    layer("web.shards.self_ms", "ms"),
    layer("web.shards.share", "ratio"),
    layer("web.visit.calls", "count"),
    layer("web.visit.self_ms", "ms"),
    layer("web.visit.share", "ratio"),
    layer("human.plan.calls", "count"),
    layer("human.plan.self_ms", "ms"),
    layer("human.plan.share", "ratio"),
    layer("crawler.scenario.calls", "count"),
    layer("crawler.scenario.self_ms", "ms"),
    layer("crawler.scenario.share", "ratio"),
    layer("crawler.campaign.calls", "count"),
    layer("crawler.campaign.self_ms", "ms"),
    layer("crawler.campaign.share", "ratio"),
    layer("crawler.reliability.calls", "count"),
    layer("crawler.reliability.self_ms", "ms"),
    layer("crawler.reliability.share", "ratio"),
    layer("crawler.chaos.calls", "count"),
    layer("crawler.chaos.self_ms", "ms"),
    layer("crawler.chaos.share", "ratio"),
    layer("armsrace.session.calls", "count"),
    layer("armsrace.session.self_ms", "ms"),
    layer("armsrace.session.share", "ratio"),
    layer("detect.judge.calls", "count"),
    layer("detect.judge.self_ms", "ms"),
    layer("detect.judge.share", "ratio"),
    // Layer-specific figures.
    layer("web.shards.gen_us", "us"),
    layer("web.shards.peak_resident", "count"),
    layer("web.shards.bookkeeping_bytes", "B"),
    layer("web.visit.ns_per_visit", "ns"),
    layer("web.visit.visits", "count"),
    layer("web.visit.success_ratio", "ratio"),
    layer("human.plan.ns_per_visit", "ns"),
    layer("human.plan.ns_per_sample", "ns"),
    layer("human.plan.samples", "count"),
    layer("human.plan.keys", "count"),
    layer("human.plan.ticks", "count"),
    layer("crawler.scenario.us_per_drive", "us"),
    layer("crawler.scenario.drives", "count"),
    layer("crawler.campaign.fold_ns_per_shard", "ns"),
    layer("crawler.campaign.unattributed_share", "ratio"),
    layer("crawler.campaign.untraced_worker_ms", "ms"),
    layer("crawler.campaign.layer_ms", "ms"),
    layer("crawler.reliability.pristine_ms", "ms"),
    layer("crawler.reliability.naive_ms", "ms"),
    layer("crawler.reliability.strengthened_ms", "ms"),
    layer("crawler.reliability.events_offered", "count"),
    layer("crawler.reliability.events_dropped", "count"),
    layer("crawler.reliability.events_replayed", "count"),
    layer("crawler.reliability.strengthened_overhead", "ratio"),
    layer("crawler.chaos.ms", "ms"),
    layer("crawler.chaos.attempts", "count"),
    layer("crawler.chaos.faults_injected", "count"),
    layer("crawler.chaos.retries", "count"),
    layer("crawler.chaos.recovered_ratio", "ratio"),
    layer("armsrace.session_ms.selenium", "ms"),
    layer("armsrace.session_ms.naive", "ms"),
    layer("armsrace.session_ms.hlisa", "ms"),
    layer("armsrace.session_ms.human", "ms"),
    layer("detect.judge_us", "us"),
    layer("detect.flagged_ratio", "ratio"),
    layer("setup.shards_ms", "ms"),
    layer("setup.runtime_ms", "ms"),
    layer("setup.reference_ms", "ms"),
    layer("trace.overhead_ratio", "ratio"),
    layer("trace.traced_work_per_s", "1/s"),
    layer("trace.untraced_work_per_s", "1/s"),
];

/// Metric values collected by one run, keyed by registered name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under a registered metric name.
    ///
    /// # Panics
    /// On an unregistered name: a benchmark bug, caught by the self-tests.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = METRICS
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("unregistered metric {name}"));
        self.values.insert(def.name, value);
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// Renders a finite number with all its digits (shortest round-trip).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: every metric of `kind`, in registry order. Errors if
/// one is missing or not finite, so a run never prints a partial result.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    kind: Kind,
    metrics: &Metrics,
) -> Result<String, String> {
    let mut body = Vec::new();
    for def in METRICS.iter().filter(|m| m.kind == kind) {
        let v = metrics
            .get(def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", def.name));
        }
        body.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(def.name),
            num(v),
            json_str(def.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// Facts about the host the figures were measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct HostFacts {
    /// CPUs this process may run on (what `nproc` prints).
    pub nproc: usize,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
}

impl HostFacts {
    /// Reads the facts for the running process.
    pub fn current() -> Self {
        let available_parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
        let nproc = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                    .map(cpu_list_len)
            })
            .unwrap_or(available_parallelism);
        Self {
            nproc,
            available_parallelism,
        }
    }
}

/// Counts the CPUs in a kernel CPU list such as `0-3,6,8-9`.
pub fn cpu_list_len(list: &str) -> usize {
    list.trim()
        .split(',')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('-') {
            Some((lo, hi)) => match (lo.parse::<usize>(), hi.parse::<usize>()) {
                (Ok(lo), Ok(hi)) if hi >= lo => hi - lo + 1,
                _ => 0,
            },
            None => usize::from(part.parse::<usize>().is_ok()),
        })
        .sum()
}

/// The process high-water resident set (VmHWM) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_unique_and_have_units() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(!m.name.is_empty() && m.name.len() <= 64, "{}", m.name);
            assert!(
                m.name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{} must start with a letter or digit",
                m.name
            );
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{} uses a character outside [A-Za-z0-9_.-]",
                m.name
            );
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{} has a bad unit {:?}",
                m.name,
                m.unit
            );
            assert!(
                METRICS[..i].iter().all(|o| o.name != m.name),
                "{} is registered twice",
                m.name
            );
        }
        assert!(METRICS.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let squeezed: String = json.split_whitespace().collect();
        for m in METRICS {
            let entry = format!("\"name\":\"{}\",\"unit\":\"{}\"", m.name, m.unit);
            assert!(squeezed.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = squeezed.matches("\"unit\":").count();
        assert_eq!(listed, METRICS.len(), "BENCHMARK.json lists other metrics");
    }

    #[test]
    fn result_line_requires_every_metric_of_its_kind() {
        let mut m = Metrics::default();
        for def in METRICS.iter().filter(|d| d.kind == Kind::EndToEnd) {
            m.set(def.name, 1.5);
        }
        let line = result_line(true, 3, 0, Kind::EndToEnd, &m).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(result_line(true, 3, 0, Kind::PerLayer, &m).is_err());
        m.set("setup_s", f64::NAN);
        assert!(result_line(true, 3, 0, Kind::EndToEnd, &m).is_err());
    }

    #[test]
    fn cpu_lists_count_ranges_and_singletons() {
        assert_eq!(cpu_list_len("0-1"), 2);
        assert_eq!(cpu_list_len("0-3,6,8-9\n"), 7);
        assert_eq!(cpu_list_len("5"), 1);
    }
}
