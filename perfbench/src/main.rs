//! The campaign benchmark.
//!
//! ```text
//! perfbench --workload <crawl_100k|planned_crawl|instrument_faults|arms_race>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input derives from `--seed`. The run sets up (several times,
//! reporting the median), measures for `--seconds`, checks every output,
//! and prints one JSON result line last: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the traced run with `--trace 1`.
//! The line before it carries the host facts and the figures' bases. See
//! README.md beside this file.

mod armsrace;
mod cpu;
mod crawl;
mod digest;
mod faults;
mod report;
mod stats;
mod trace;

use digest::Ledger;
use report::{json_str, num, HostFacts, Kind, Metrics, METRICS};
use std::marker::PhantomData;
use std::path::PathBuf;
use std::time::Duration;
use trace::{LayerTotals, GROUPS};

/// Worker threads of the crawl engine (`instances`) and of the replay: at
/// most this many threads ever run the program at once.
pub const WORKERS: usize = 2;

/// Set-up runs this many times before the first timed op (the last
/// product is the one measured)...
const SETUP_UP_FRONT: usize = 5;
/// ...then once more between timed reps while set-up has taken less than
/// this share of the timed time, so its samples span the whole run...
const SETUP_SHARE: f64 = 0.1;
/// ...and at the end as often as it takes to reach this many runs.
const SETUP_MIN_REPEATS: usize = 15;

/// Every run times at least this many ops, however long they take, so the
/// tail rule always has a percentile to report.
pub const MIN_OPS: usize = 20;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    /// Time for the untraced (timed) ops: all of it, or half in a traced
    /// run, which spends the other half on traced passes.
    pub fn untraced_budget(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }

    /// Time for traced passes (traced run only).
    pub fn traced_budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 2.0)
    }
}

/// One set-up's timings, read from the wall clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// The whole set-up, seconds.
    pub total_s: f64,
    /// Population / shard-layer construction, ms.
    pub shards_ms: f64,
    /// Detector construction, ms (only where set-up pays it).
    pub runtime_ms: f64,
    /// Reference-corpus construction, ms.
    pub reference_ms: f64,
}

/// Medians over the repeated set-ups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupStats {
    /// Set-ups run.
    pub repeats: usize,
    /// The first (cold) set-up, seconds.
    pub first_s: f64,
    /// Median timings.
    pub median: SetupTimes,
}

/// Samples the one-time set-up cost: several runs up front (the last
/// product is kept for the timed ops), more between timed reps, and the
/// median of all of them is reported. One slow set-up (a page-fault storm,
/// a preempted core) cannot move a median, and samples spread over the
/// run see the same host as the timed ops.
pub struct SetupSampler<T, F> {
    setup: F,
    times: Vec<SetupTimes>,
    spent_s: f64,
    product: PhantomData<fn() -> T>,
}

impl<T, F: FnMut() -> (T, SetupTimes)> SetupSampler<T, F> {
    /// A sampler over `setup`.
    pub fn new(setup: F) -> Self {
        Self {
            setup,
            times: Vec::new(),
            spent_s: 0.0,
            product: PhantomData,
        }
    }

    fn once(&mut self) -> T {
        let (product, t) = (self.setup)();
        self.spent_s += t.total_s;
        self.times.push(t);
        product
    }

    /// The up-front set-ups; returns the last product.
    pub fn initial(&mut self) -> T {
        let mut last = self.once();
        for _ in 1..SETUP_UP_FRONT {
            // Drop the previous product first: set-ups never overlap.
            drop(last);
            last = self.once();
        }
        last
    }

    /// One more set-up (product dropped) if set-up sampling has taken
    /// less than its share of `timed`.
    pub fn between_reps(&mut self, timed: Duration) {
        if self.spent_s < SETUP_SHARE * timed.as_secs_f64() {
            drop(self.once());
        }
    }

    /// Tops up to the minimum count and returns the medians.
    pub fn finish(mut self) -> SetupStats {
        while self.times.len() < SETUP_MIN_REPEATS {
            drop(self.once());
        }
        let med = |f: fn(&SetupTimes) -> f64| {
            stats::median(&self.times.iter().map(f).collect::<Vec<_>>())
        };
        SetupStats {
            repeats: self.times.len(),
            first_s: self.times[0].total_s,
            median: SetupTimes {
                total_s: med(|t| t.total_s),
                shards_ms: med(|t| t.shards_ms),
                runtime_ms: med(|t| t.runtime_ms),
                reference_ms: med(|t| t.reference_ms),
            },
        }
    }
}

/// Whether a timed loop goes on: until `timed` reaches `budget` and at
/// least [`MIN_OPS`] ops were timed.
pub fn keep_measuring(timed: Duration, budget: Duration, ops: usize) -> bool {
    ops < MIN_OPS || timed < budget
}

/// What one workload run produced.
#[derive(Debug)]
pub struct WorkloadRun {
    /// Ops and checks.
    pub ledger: Ledger,
    /// Metric values.
    pub metrics: Metrics,
    /// Facts printed beside the metrics (values are JSON).
    pub facts: Vec<(&'static str, String)>,
}

impl WorkloadRun {
    /// A run whose work is counted in `unit`, with its set-up figures.
    pub fn new(ledger: Ledger, setup: SetupStats, unit: &str) -> Self {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", setup.median.total_s);
        metrics.set("setup.shards_ms", setup.median.shards_ms);
        metrics.set("setup.runtime_ms", setup.median.runtime_ms);
        metrics.set("setup.reference_ms", setup.median.reference_ms);
        let facts = vec![
            ("unit_of_work", json_str(unit)),
            ("setup_repeats", setup.repeats.to_string()),
            ("setup_first_s", num(setup.first_s)),
        ];
        Self {
            ledger,
            metrics,
            facts,
        }
    }

    /// Records the end-to-end figures of the timed ops: the median per-rep
    /// rate over wall time (`work_per_s`, with the CPU-time rate printed
    /// beside it) and the op wall latencies, grouped by rep.
    pub fn end_to_end(&mut self, rates: &Rates, op_ms: &[Vec<f64>], peak_rss_mib: Option<f64>) {
        self.metrics.set("work_per_s", rates.wall());
        self.facts.push(("cpu_work_per_s", num(rates.cpu())));
        let all = op_ms.concat();
        self.metrics.set("op_ms_p50", stats::median(&all));
        self.facts.push(("op_samples", all.len().to_string()));
        if let Some(t) = stats::tail_over_reps(op_ms) {
            self.metrics.set("op_ms_tail", t.value);
            self.facts
                .push(("op_ms_tail_percentile", num(t.percentile)));
            self.facts.push(("op_ms_tail_beyond", t.beyond.to_string()));
            self.facts
                .push(("op_ms_tail_samples", t.samples.to_string()));
            self.facts.push(("op_ms_tail_reps", t.groups.to_string()));
        }
        if let Some(rss) = peak_rss_mib {
            self.metrics.set("peak_rss_mib", rss);
        }
    }

    /// Writes a traced run's spans to the workload's span file and names
    /// the file among the facts.
    pub fn write_spans(&mut self, workload: &str, tracers: &[trace::Tracer]) -> Result<(), String> {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("trace-out")
            .join(format!("{workload}.spans.tsv"));
        trace::write_spans(&path, tracers).map_err(|e| format!("{}: {e}", path.display()))?;
        self.facts
            .push(("spans_file", json_str(&path.display().to_string())));
        Ok(())
    }
}

/// Per-rep throughput samples. `wall` divides a rep's units by its wall
/// time: the rate a user sees, so idle workers, lock waits, imbalance at
/// the join and preemption all lower it. `cpu` divides by the rep's CPU
/// time per worker (the process CPU clock over the worker count); printed
/// beside the wall rate, the gap between the two is time spent waiting
/// rather than computing.
#[derive(Debug, Clone, Default)]
pub struct Rates {
    cpu: Vec<f64>,
    wall: Vec<f64>,
}

impl Rates {
    /// Records one rep of `units` over `cpu` time per worker and `wall`.
    pub fn push(&mut self, units: u64, cpu: Duration, wall: Duration) {
        self.cpu.push(units as f64 / cpu.as_secs_f64());
        self.wall.push(units as f64 / wall.as_secs_f64());
    }

    /// Median wall-time rate.
    pub fn wall(&self) -> f64 {
        stats::median(&self.wall)
    }

    /// Median CPU-time rate.
    pub fn cpu(&self) -> f64 {
        stats::median(&self.cpu)
    }
}

/// Calls, self time (per pass) and share of traced worker time for every
/// layer group.
pub fn group_metrics(m: &mut Metrics, layers: &LayerTotals, passes: f64, traced_worker_ns: f64) {
    for g in GROUPS {
        let self_ns = layers.group_self_ns(g) as f64;
        m.set(&format!("{g}.calls"), layers.group_calls(g) as f64 / passes);
        m.set(&format!("{g}.self_ms"), self_ns / passes / 1e6);
        m.set(&format!("{g}.share"), self_ns / traced_worker_ns);
    }
}

/// The tracing overhead with both of its bases.
pub fn trace_overhead(m: &mut Metrics, traced_work_per_s: f64, untraced_work_per_s: f64) {
    m.set("trace.traced_work_per_s", traced_work_per_s);
    m.set("trace.untraced_work_per_s", untraced_work_per_s);
    m.set(
        "trace.overhead_ratio",
        traced_work_per_s / untraced_work_per_s,
    );
}

/// A workload: its runner and the per-layer metric prefixes it does not
/// exercise (reported as 0 in its traced run).
struct Workload {
    name: &'static str,
    run: fn(&Opts) -> Result<WorkloadRun, String>,
    idle: &'static [&'static str],
}

const CRAWL_IDLE: &[&str] = &[
    "crawler.reliability.",
    "crawler.chaos.",
    "armsrace.",
    "detect.",
];

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "crawl_100k",
        run: |o| crawl::run(&crawl::CRAWL_100K, o),
        idle: CRAWL_IDLE,
    },
    Workload {
        name: "planned_crawl",
        run: |o| crawl::run(&crawl::PLANNED_CRAWL, o),
        idle: CRAWL_IDLE,
    },
    Workload {
        name: "instrument_faults",
        run: faults::run,
        idle: &[
            "crawler.campaign.unattributed_share",
            "crawler.campaign.untraced_worker_ms",
            "crawler.campaign.layer_ms",
            "armsrace.",
            "detect.",
        ],
    },
    Workload {
        name: "arms_race",
        run: armsrace::run,
        idle: &["web.", "human.plan.", "crawler.", "setup.shards_ms"],
    },
];

fn run(opts: &Opts) -> Result<String, String> {
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == opts.workload)
        .ok_or_else(|| format!("unknown workload {}", opts.workload))?;
    let mut out = (workload.run)(opts)?;
    let kind = if opts.trace {
        for def in METRICS.iter().filter(|d| d.kind == Kind::PerLayer) {
            if out.metrics.get(def.name).is_none()
                && workload.idle.iter().any(|p| def.name.starts_with(p))
            {
                out.metrics.set(def.name, 0.0);
            }
        }
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };

    let host = HostFacts::current();
    let mut facts = vec![
        ("workload", json_str(workload.name)),
        ("seed", opts.seed.to_string()),
        ("seconds", num(opts.seconds)),
        ("trace", opts.trace.to_string()),
        ("nproc", host.nproc.to_string()),
        (
            "available_parallelism",
            host.available_parallelism.to_string(),
        ),
    ];
    facts.append(&mut out.facts);
    let checks: Vec<String> = out
        .ledger
        .checks
        .iter()
        .map(|(name, ok)| format!("{{\"check\": {}, \"passed\": {ok}}}", json_str(name)))
        .collect();
    let units: Vec<String> = METRICS
        .iter()
        .filter(|d| d.kind == kind)
        .map(|d| format!("{}: {}", json_str(d.name), json_str(d.unit)))
        .collect();
    let facts: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!(
        "{{\"facts\": {{{}}}, \"checks\": [{}], \"units\": {{{}}}}}",
        facts.join(", "),
        checks.join(", "),
        units.join(", ")
    );
    report::result_line(
        out.ledger.correct(),
        out.ledger.attempted,
        out.ledger.failed,
        kind,
        &out.metrics,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = Opts::parse(&args).and_then(|opts| run(&opts));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = Opts::parse(&args(
            "--workload arms_race --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, "arms_race");
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
        assert_eq!(o.untraced_budget(), Duration::from_secs(5));
        assert!(Opts::parse(&args("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(Opts::parse(&args("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(Opts::parse(&args("--workload x --seed 1 --seconds 1")).is_err());
    }

    #[test]
    fn setup_sampler_reports_the_median_and_keeps_the_last_up_front_product() {
        let mut n = 0;
        let mut sampler = SetupSampler::new(|| {
            n += 1;
            let t = SetupTimes {
                total_s: if n == 1 { 1.0 } else { 0.001 },
                ..SetupTimes::default()
            };
            (n, t)
        });
        assert_eq!(sampler.initial(), SETUP_UP_FRONT);
        // 1.005 s of set-up so far: a 5 s timed run allows none between
        // reps, a 20 s one allows another.
        sampler.between_reps(Duration::from_secs(5));
        assert_eq!(sampler.times.len(), SETUP_UP_FRONT);
        sampler.between_reps(Duration::from_secs(20));
        assert_eq!(sampler.times.len(), SETUP_UP_FRONT + 1);
        let stats = sampler.finish();
        assert_eq!(stats.repeats, SETUP_MIN_REPEATS);
        assert_eq!(stats.first_s, 1.0);
        assert_eq!(stats.median.total_s, 0.001);
    }

    #[test]
    fn timed_loops_run_for_their_budget_and_a_minimum_of_ops() {
        let budget = Duration::from_secs(10);
        assert!(keep_measuring(Duration::from_secs(11), budget, MIN_OPS - 1));
        assert!(keep_measuring(Duration::from_secs(9), budget, 1_000));
        assert!(!keep_measuring(Duration::from_secs(10), budget, MIN_OPS));
    }
}
