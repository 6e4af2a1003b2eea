//! Chaos-mode campaign benchmark: what the fault plane costs.
//!
//! Two measurements, emitted as `BENCH_chaos.json`:
//!
//! 1. **Rate-0 overhead** — [`run_campaign`] vs the chaos runner with
//!    [`ChaosConfig::off`]. Both are visit drivers over the same machine
//!    pass; their outputs are asserted bit-identical, so the comparison
//!    isolates the pure plumbing cost of the fault plane when nothing is
//!    injected.
//! 2. **Faulted throughput** — visits/sec at a 5% uniform per-visit
//!    fault rate with the default retry/breaker policy, plus the
//!    resulting `fault.*` / `retry.*` / `breaker.*` counters (asserted
//!    reproducible across the two timed runs).
//!
//! Timing goes through [`crate::harness`], the crate's one wall-clock
//! read.

use crate::harness::{timed, Comparison, Object, Report};
use hlisa_crawler::campaign::{run_campaign, CampaignConfig};
use hlisa_crawler::chaos::{run_chaos_campaign, ChaosConfig};
use hlisa_sim::CounterSet;
use hlisa_web::PopulationConfig;

/// The per-visit fault rate the faulted side runs at.
pub const FAULT_RATE: f64 = 0.05;

/// Benchmark sizing.
#[derive(Debug, Clone, Copy)]
pub struct ChaosBenchConfig {
    /// Sites in the campaign population.
    pub campaign_sites: usize,
    /// Visits per site per machine.
    pub visits_per_site: usize,
}

impl ChaosBenchConfig {
    /// The default run: big enough for stable ratios.
    pub fn full() -> Self {
        Self {
            campaign_sites: 120,
            visits_per_site: 8,
        }
    }

    /// A seconds-scale smoke run for CI.
    pub fn smoke() -> Self {
        Self {
            campaign_sites: 30,
            visits_per_site: 4,
        }
    }
}

/// The chaos benchmark result.
#[derive(Debug, Clone)]
pub struct ChaosBenchReport {
    /// Sizing used.
    pub config: ChaosBenchConfig,
    /// Visits per campaign side (2 machines × sites × visits).
    pub campaign_visits: u64,
    /// [`run_campaign`] (baseline) vs rate-0 chaos runner (optimized):
    /// `overhead_ratio` near 1.0 means the fault plane is free when off.
    pub rate_zero: Comparison,
    /// Elapsed seconds for the 5%-fault campaign.
    pub faulted_s: f64,
    /// Attempts actually simulated in the faulted run (visits + retries
    /// − breaker skips).
    pub faulted_attempts: u64,
    /// The faulted run's fault/retry/breaker counters.
    pub counters: CounterSet,
}

fn campaign_config(bench: &ChaosBenchConfig) -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        population: PopulationConfig {
            n_sites: bench.campaign_sites,
            // Keep the paper's 79/1000 unreachable fraction at any sizing;
            // the default's absolute count would drown the breaker/retry
            // numbers in intrinsically dead sites at bench scale.
            unreachable_sites: bench.campaign_sites * 79 / 1000,
            ..PopulationConfig::default()
        },
        visits_per_site: bench.visits_per_site,
        instances: 4,
        world_cache: true,
        plan_interactions: false,
    }
}

/// Runs the whole suite.
pub fn run(config: ChaosBenchConfig) -> ChaosBenchReport {
    let cfg = campaign_config(&config);
    let visits = 2 * config.campaign_sites as u64 * config.visits_per_site as u64;

    let (legacy_t, legacy) = timed(|| run_campaign(&cfg));
    let (zero_t, zero) = timed(|| run_chaos_campaign(&cfg, &ChaosConfig::off()));
    assert_eq!(
        zero.campaign, legacy,
        "rate-0 chaos diverged from the legacy runner"
    );

    let faulted_cfg = ChaosConfig::uniform(FAULT_RATE);
    let (faulted_t, faulted) = timed(|| run_chaos_campaign(&cfg, &faulted_cfg));
    let (_, again) = timed(|| run_chaos_campaign(&cfg, &faulted_cfg));
    assert_eq!(
        faulted.counters(),
        again.counters(),
        "faulted counters not reproducible"
    );

    let attempts: u64 = [&faulted.openwpm_recovery, &faulted.spoofed_recovery]
        .iter()
        .flat_map(|m| &m.sites)
        .map(|s| u64::from(s.total_attempts()))
        .sum();

    ChaosBenchReport {
        config,
        campaign_visits: visits,
        rate_zero: Comparison {
            ops: visits,
            baseline_s: legacy_t.as_secs_f64(),
            optimized_s: zero_t.as_secs_f64(),
        },
        faulted_s: faulted_t.as_secs_f64(),
        faulted_attempts: attempts,
        counters: faulted.counters(),
    }
}

impl ChaosBenchReport {
    /// Visits/sec of the faulted run.
    pub fn faulted_rate(&self) -> f64 {
        self.campaign_visits as f64 / self.faulted_s.max(1e-12)
    }

    /// The report, field by field, as `BENCH_chaos.json` lays it out.
    /// The rate-0 side names keep the committed baseline's schema.
    pub fn fields(&self) -> Report {
        let counters = self
            .counters
            .entries()
            .iter()
            .fold(Object::new(), |o, (name, value)| o.int(name, *value));
        Report::new("hlisa chaos-mode campaign (fault plane + recovery)")
            .object(
                "config",
                Object::new()
                    .int("campaign_sites", self.config.campaign_sites as u64)
                    .int("visits_per_site", self.config.visits_per_site as u64)
                    .num("fault_rate", FAULT_RATE),
            )
            .object(
                "rate_zero_overhead",
                self.rate_zero
                    .sides("visits", "legacy", "chaos_off")
                    .num("overhead_ratio", self.rate_zero.overhead_ratio()),
            )
            .object(
                "faulted",
                Object::new()
                    .int("ops", self.campaign_visits)
                    .str("unit", "visits")
                    .int("attempts", self.faulted_attempts)
                    .num("elapsed_s", self.faulted_s)
                    .num("visits_per_sec", self.faulted_rate()),
            )
            .object("counters", counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::schema;

    #[test]
    fn smoke_report_is_well_formed() {
        let report = run(ChaosBenchConfig {
            campaign_sites: 12,
            visits_per_site: 2,
        });
        assert_eq!(report.campaign_visits, 2 * 12 * 2);
        assert!(
            report.faulted_attempts
                >= report.campaign_visits
                    - report.counters.get("breaker.skipped_visits").unwrap_or(0)
        );
        schema::assert_matches_baseline(&report.fields(), "chaos", &["counters"]);
    }
}
