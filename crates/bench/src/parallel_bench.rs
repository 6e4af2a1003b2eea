//! Core-scaling benchmark for the sharded campaign engine.
//!
//! Sweeps the worker count over a large lazily-sharded population and
//! emits `BENCH_parallel.json` with, per `instances` value:
//!
//! * visits/sec and elapsed wall time;
//! * speedup vs the 1-worker run, parallel efficiency
//!   (`speedup / instances`) and efficiency normalised to the physical
//!   core count (`speedup / min(instances, cores)` — oversubscribed
//!   workers beyond the cores can't speed anything up);
//! * the peak-RSS proxy: bytes of population materialised at once
//!   (`peak resident shards × shard bytes`), against the bytes an eager
//!   `generate_population` would pin for the whole campaign.
//!
//! A final `batch_plan` section runs the same campaign at the core-count
//! worker level with the batch interaction planner off and on: the two
//! outcome tables must be bit-identical (the plan draws from a forked
//! context), and the throughput delta is the cost of synthesising every
//! successful visit's full interaction plan at campaign pace.
//!
//! Every sweep entry must also produce identical per-shard summaries —
//! the benchmark doubles as a scale check of the bit-identical-for-any-
//! `instances` property on a population far larger than the test suite's.
//!
//! Timing goes through [`crate::harness`], the crate's one wall-clock
//! read. The residency high-water mark is a measurement too: it records how much
//! thread overlap the OS actually scheduled, so like elapsed time it can
//! vary run to run — only its bound (`peak <= workers`) is guaranteed.

use crate::harness::{timed, Object, Report};
use hlisa_crawler::campaign::{
    run_machine, run_machine_planned, run_machine_shard_summaries, CampaignConfig,
};
use hlisa_web::{generate_population, sites_bytes, ClientKind, PopulationConfig, PopulationShards};

/// Benchmark sizing.
#[derive(Debug, Clone)]
pub struct ParallelBenchConfig {
    /// Sites in the campaign population.
    pub n_sites: usize,
    /// Visits per site (1 at scale: the sweep measures scheduling, not
    /// per-site repetition).
    pub visits_per_site: usize,
    /// Shard granularity for claiming and lazy materialisation.
    pub shard_size: usize,
    /// Worker counts to sweep. [`run`] sorts and deduplicates them, so
    /// the 1-worker baseline comes first and no count runs twice.
    pub instance_sweep: Vec<usize>,
}

/// Worker counts the sweep always probes, plus the machine's core count.
fn sweep_with_max() -> Vec<usize> {
    vec![1, 2, 4, 8, available_cores()]
}

/// The machine's available parallelism (1 if undetectable).
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl ParallelBenchConfig {
    /// The default run: a 100K-site campaign.
    pub fn full() -> Self {
        Self {
            n_sites: 100_000,
            visits_per_site: 1,
            shard_size: 256,
            instance_sweep: sweep_with_max(),
        }
    }

    /// A seconds-scale smoke run for CI.
    pub fn smoke() -> Self {
        Self {
            n_sites: 2_000,
            visits_per_site: 1,
            shard_size: 128,
            instance_sweep: sweep_with_max(),
        }
    }
}

/// What one worker-count run measured.
#[derive(Debug, Clone)]
pub struct SweepEntry {
    /// Workers requested.
    pub instances: usize,
    /// Elapsed wall time.
    pub elapsed_s: f64,
    /// Visits completed per second.
    pub visits_per_sec: f64,
    /// Throughput ratio vs the 1-worker entry.
    pub speedup_vs_1: f64,
    /// `speedup / instances`.
    pub efficiency: f64,
    /// `speedup / min(instances, cores)` — what the hardware could give.
    pub efficiency_at_cores: f64,
    /// High-water mark of concurrently materialised shards.
    pub peak_resident_shards: usize,
    /// Peak-RSS proxy: peak resident shards × representative shard bytes.
    pub peak_materialised_bytes: usize,
}

/// Campaign throughput with the batch interaction planner off vs on, at
/// the core-count worker level. Planning synthesises every successful
/// visit's full interaction plan (cursor samples, key transitions, wheel
/// ticks) on top of the visit outcome, so the delta between the two rows
/// is the per-visit cost of full-session interaction synthesis at
/// campaign scale.
#[derive(Debug, Clone)]
pub struct PlanThroughput {
    /// Visits driven by each run.
    pub visits: u64,
    /// Elapsed seconds with planning off.
    pub off_s: f64,
    /// Elapsed seconds with planning on.
    pub on_s: f64,
    /// Planned actions across all successful visits.
    pub actions: u64,
    /// Planned cursor samples across all successful visits.
    pub samples: u64,
    /// Planned key transitions across all successful visits.
    pub keys: u64,
    /// Planned wheel ticks across all successful visits.
    pub ticks: u64,
}

impl PlanThroughput {
    /// Visits/sec with planning off.
    pub fn off_rate(&self) -> f64 {
        self.visits as f64 / self.off_s.max(1e-12)
    }

    /// Visits/sec with planning on.
    pub fn on_rate(&self) -> f64 {
        self.visits as f64 / self.on_s.max(1e-12)
    }

    /// Throughput retained with planning on (`on_rate / off_rate`).
    pub fn throughput_ratio(&self) -> f64 {
        self.on_rate() / self.off_rate().max(1e-12)
    }
}

/// One shard's folded results — tiny, so a 1M-site campaign keeps one of
/// these per shard instead of a `SiteResult` per site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardSummary {
    sites: usize,
    reached: usize,
    successes: usize,
    detected: usize,
}

/// The full benchmark result.
#[derive(Debug, Clone)]
pub struct ParallelBenchReport {
    /// Sizing used.
    pub config: ParallelBenchConfig,
    /// Physical parallelism of the benchmarking machine.
    pub cores: usize,
    /// Bytes an eager population pins for the whole campaign.
    pub eager_population_bytes: usize,
    /// Standing bytes of the lazy layer's bookkeeping.
    pub shard_bookkeeping_bytes: usize,
    /// Seconds to eagerly generate the whole population.
    pub eager_generation_s: f64,
    /// Seconds for the lazy layer's skeleton pass.
    pub shard_setup_s: f64,
    /// One entry per swept worker count.
    pub sweep: Vec<SweepEntry>,
    /// Efficiency of the entry whose `instances` equals the core count.
    pub efficiency_at_max_cores: f64,
    /// Campaign throughput with the batch interaction planner off vs on.
    pub batch_plan: PlanThroughput,
}

fn campaign_config(bench: &ParallelBenchConfig, instances: usize) -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        population: PopulationConfig {
            n_sites: bench.n_sites,
            ..PopulationConfig::default()
        },
        visits_per_site: bench.visits_per_site,
        instances,
        world_cache: true,
        plan_interactions: false,
    }
}

/// The worker counts [`run`] sweeps for a requested `sweep`: sorted and
/// deduplicated.
fn swept_counts(sweep: &[usize]) -> Vec<usize> {
    let mut counts = sweep.to_vec();
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Runs the whole sweep.
pub fn run(mut config: ParallelBenchConfig) -> ParallelBenchReport {
    config.instance_sweep = swept_counts(&config.instance_sweep);
    let cores = available_cores();
    let population = PopulationConfig {
        n_sites: config.n_sites,
        ..PopulationConfig::default()
    };

    // The memory story: what the eager path pins vs what the lazy layer
    // keeps standing. The eager population is dropped before the sweep —
    // only the shard layer exists while workers run.
    let (eager_t, eager_bytes) = timed(|| {
        let sites = generate_population(&population);
        sites_bytes(&sites)
    });
    let (setup_t, shards) =
        timed(|| PopulationShards::with_shard_size(&population, config.shard_size));
    let shard_bytes = sites_bytes(&shards.generate_shard(0));

    let summarise = |_k: usize, results: Vec<hlisa_crawler::SiteResult>| ShardSummary {
        sites: results.len(),
        reached: results.iter().filter(|r| r.reached()).count(),
        successes: results.iter().map(|r| r.successful_visits()).sum(),
        detected: results
            .iter()
            .flat_map(|r| &r.outcomes)
            .filter(|o| o.detected)
            .count(),
    };

    let visits = (config.n_sites * config.visits_per_site) as f64;
    let mut reference: Option<Vec<ShardSummary>> = None;
    let mut raw: Vec<(usize, f64, usize)> = Vec::new();
    for &instances in &config.instance_sweep {
        // Fresh shard layer per entry so the residency high-water mark is
        // this run's, not the sweep's.
        let shards = PopulationShards::with_shard_size(&population, config.shard_size);
        let cfg = campaign_config(&config, instances);
        let (t, summaries) =
            timed(|| run_machine_shard_summaries(&cfg, &shards, ClientKind::OpenWpm, &summarise));
        // Scale check: every worker count folds to the same summaries.
        match &reference {
            None => reference = Some(summaries),
            Some(want) => assert_eq!(
                &summaries, want,
                "{instances}-worker run diverged from the 1-worker run"
            ),
        }
        raw.push((instances, t.as_secs_f64(), shards.peak_resident_shards()));
    }

    let base_s = raw.first().map_or(0.0, |(_, t, _)| *t);
    let sweep: Vec<SweepEntry> = raw
        .into_iter()
        .map(|(instances, elapsed_s, peak)| {
            let speedup = base_s / elapsed_s.max(1e-12);
            SweepEntry {
                instances,
                elapsed_s,
                visits_per_sec: visits / elapsed_s.max(1e-12),
                speedup_vs_1: speedup,
                efficiency: speedup / instances as f64,
                efficiency_at_cores: speedup / instances.min(cores).max(1) as f64,
                peak_resident_shards: peak,
                peak_materialised_bytes: peak * shard_bytes,
            }
        })
        .collect();

    let efficiency_at_max_cores = sweep
        .iter()
        .find(|e| e.instances == cores)
        .map_or(0.0, |e| e.efficiency);

    // Planner off vs on over the same campaign at the core-count worker
    // level. The outcome table must be bit-identical either way — the
    // plan draws from a forked context, never the visit stream.
    let sites = generate_population(&population);
    let plan_cfg = campaign_config(&config, cores);
    let (off_t, baseline_run) = timed(|| run_machine(&plan_cfg, &sites, ClientKind::OpenWpm));
    let (on_t, (planned_run, totals)) =
        timed(|| run_machine_planned(&plan_cfg, &sites, ClientKind::OpenWpm));
    assert_eq!(
        baseline_run, planned_run,
        "planned campaign diverged from the unplanned run"
    );
    let batch_plan = PlanThroughput {
        visits: (config.n_sites * config.visits_per_site) as u64,
        off_s: off_t.as_secs_f64(),
        on_s: on_t.as_secs_f64(),
        actions: totals.actions,
        samples: totals.samples,
        keys: totals.keys,
        ticks: totals.ticks,
    };

    ParallelBenchReport {
        config,
        cores,
        eager_population_bytes: eager_bytes,
        shard_bookkeeping_bytes: shards.bookkeeping_bytes(),
        eager_generation_s: eager_t.as_secs_f64(),
        shard_setup_s: setup_t.as_secs_f64(),
        sweep,
        efficiency_at_max_cores,
        batch_plan,
    }
}

impl ParallelBenchReport {
    /// The report, field by field, as `BENCH_parallel.json` lays it out.
    pub fn fields(&self) -> Report {
        let sweep = self
            .sweep
            .iter()
            .map(|e| {
                Object::new()
                    .int("instances", e.instances as u64)
                    .num("elapsed_s", e.elapsed_s)
                    .num("visits_per_sec", e.visits_per_sec)
                    .num("speedup_vs_1", e.speedup_vs_1)
                    .num("efficiency", e.efficiency)
                    .num("efficiency_at_cores", e.efficiency_at_cores)
                    .int("peak_resident_shards", e.peak_resident_shards as u64)
                    .int("peak_materialised_bytes", e.peak_materialised_bytes as u64)
            })
            .collect();
        let plan = &self.batch_plan;
        Report::new("hlisa parallel campaign scaling (lazy shards + claiming workers)")
            .object(
                "config",
                Object::new()
                    .int("n_sites", self.config.n_sites as u64)
                    .int("visits_per_site", self.config.visits_per_site as u64)
                    .int("shard_size", self.config.shard_size as u64),
            )
            .int("cores", self.cores as u64)
            .object(
                "population",
                Object::new()
                    .int("eager_bytes", self.eager_population_bytes as u64)
                    .int(
                        "shard_bookkeeping_bytes",
                        self.shard_bookkeeping_bytes as u64,
                    )
                    .num("eager_generation_s", self.eager_generation_s)
                    .num("shard_setup_s", self.shard_setup_s),
            )
            .rows("sweep", sweep)
            .num(
                "parallel_efficiency_at_max_cores",
                self.efficiency_at_max_cores,
            )
            .object(
                "batch_plan",
                Object::new()
                    .int("visits", plan.visits)
                    .num("plan_off_s", plan.off_s)
                    .num("plan_on_s", plan.on_s)
                    .num("plan_off_visits_per_sec", plan.off_rate())
                    .num("plan_on_visits_per_sec", plan.on_rate())
                    .num("throughput_ratio", plan.throughput_ratio())
                    .int("actions", plan.actions)
                    .int("samples", plan.samples)
                    .int("keys", plan.keys)
                    .int("ticks", plan.ticks),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::schema;

    #[test]
    fn smoke_report_is_well_formed_and_efficient_at_max_cores() {
        let cfg = ParallelBenchConfig {
            n_sites: 300,
            visits_per_site: 1,
            shard_size: 32,
            instance_sweep: vec![1, 2, available_cores()],
        };
        let expected = swept_counts(&cfg.instance_sweep);
        let report = run(cfg);
        let swept: Vec<usize> = report.sweep.iter().map(|e| e.instances).collect();
        assert_eq!(swept, expected);
        // The 1-worker entry is its own baseline.
        let first = &report.sweep[0];
        assert!((first.speedup_vs_1 - 1.0).abs() < 1e-9);
        assert!((first.efficiency - 1.0).abs() < 1e-9);
        // Laziness: no run ever materialised more shards than workers.
        for e in &report.sweep {
            assert!(
                e.peak_resident_shards <= e.instances,
                "instances {}: {} shards resident",
                e.instances,
                e.peak_resident_shards
            );
            assert!(e.peak_resident_shards >= 1);
            assert!(e.peak_materialised_bytes < report.eager_population_bytes);
        }
        // The planner drove real visits and synthesised real interaction.
        assert!(report.batch_plan.actions > 0);
        assert!(report.batch_plan.samples > report.batch_plan.actions);
        schema::assert_matches_baseline(&report.fields(), "parallel", &[]);
    }
}
