//! Chaos-mode campaigns: the two-machine crawl threaded through the
//! fault plane and the recovery policy engine.
//!
//! Chaos is a visit driver over the campaign module's one machine pass
//! (see [`crate::campaign`]): it supplies a per-site crawl that retries
//! attempts under a [`RetryPolicy`] and a per-site [`CircuitBreaker`],
//! a worker state holding the scenario scratch and a [`FaultMonitor`],
//! and a degraded row. Scheduling, degraded-shard fill and the two-machine
//! sequence are the engine's. The driver preserves two invariants the
//! tests pin down:
//!
//! 1. **Rate-0 bit-identity.** With [`ChaosConfig::off`] the embedded
//!    [`Campaign`] is byte-identical to [`run_campaign`](crate::run_campaign)'s
//!    output for any population, scenario sites included: a no-op
//!    [`FaultPlan`] consumes zero fault-stream draws, visit draws flow
//!    through the exact same `"visit"` stream forks, and a successful
//!    attempt runs the same post-attempt scenario drive as the plain
//!    driver.
//! 2. **Determinism under faults.** Every fault draw and every backoff
//!    jitter comes from the visit's `"fault"` stream — a pure function of
//!    `(seed, machine, domain, visit index)` — so a faulted campaign
//!    (outcomes *and* `fault.*`/`retry.*`/`breaker.*` counters) replays
//!    identically for a fixed seed, regardless of worker count and shard
//!    size.
//!
//! Retries re-fork the visit context from scratch, so a retried visit
//! replays exactly the interaction draws a first-try visit would have
//! made — HLISA chains stay lint-clean under retry. Only *injected*
//! faults are retried: site-intrinsic transients (the population's flaky
//! visits) are recorded as-is, matching the paper's non-retrying crawler.

use crate::campaign::{
    run_two_machines, Campaign, CampaignConfig, Machine, MachineRun, Plain, SiteResult, VisitDriver,
};
use crate::recovery::{BreakerConfig, CircuitBreaker, RetryPolicy, VisitRecovery};
use crate::scenario::ScenarioScratch;
use hlisa_sim::{CounterSet, FaultEvent, FaultMonitor, FaultPlan, Observer};
use hlisa_web::{simulate_visit_attempt, ClientKind, Site, VisitError};

/// Fault-plane and recovery configuration for a chaos campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Fault injection rates.
    pub plan: FaultPlan,
    /// Retry policy for injected transient faults.
    pub retry: RetryPolicy,
    /// Per-site circuit-breaker policy.
    pub breaker: BreakerConfig,
}

impl ChaosConfig {
    /// The fault plane switched off: no injections, and therefore no
    /// retries and no breaker trips beyond site-intrinsic unreachability.
    pub fn off() -> Self {
        Self {
            plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
        }
    }

    /// A uniform per-visit fault rate with default recovery policy.
    pub fn uniform(total_rate: f64) -> Self {
        Self {
            plan: FaultPlan::uniform(total_rate),
            ..Self::off()
        }
    }
}

/// Recovery telemetry for every visit of one site by one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteRecovery {
    /// The site's domain.
    pub domain: String,
    /// Per-visit recovery records, in visit order.
    pub visits: Vec<VisitRecovery>,
    /// Whether the site's circuit breaker ended the crawl open.
    pub breaker_open: bool,
}

impl SiteRecovery {
    /// Total attempts across all visits of this site.
    pub fn total_attempts(&self) -> u32 {
        self.visits.iter().map(|v| v.attempts).sum()
    }
}

/// One machine's chaos crawl: results live in the embedded
/// [`MachineRun`]; this carries the recovery telemetry alongside.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineRecovery {
    /// The client flavour this machine ran.
    pub client: ClientKind,
    /// Per-site recovery records, in population order.
    pub sites: Vec<SiteRecovery>,
    /// Aggregated `fault.*` / `retry.*` / `breaker.*` counters, merged
    /// from the per-worker monitors in worker-index order.
    pub counters: hlisa_sim::CounterSet,
}

/// Both machines' chaos crawls over the same population.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCampaign {
    /// The plain campaign output — at fault rate 0, byte-identical to
    /// [`run_campaign`](crate::run_campaign).
    pub campaign: Campaign,
    /// Machine (1) recovery telemetry.
    pub openwpm_recovery: MachineRecovery,
    /// Machine (2) recovery telemetry.
    pub spoofed_recovery: MachineRecovery,
}

impl ChaosCampaign {
    /// Both machines' fault counters merged (sorted: a name only one
    /// machine observed must not dangle at the end of the set).
    pub fn counters(&self) -> hlisa_sim::CounterSet {
        let mut c = self.openwpm_recovery.counters.clone();
        c.merge(&self.spoofed_recovery.counters);
        c.sorted()
    }
}

/// Runs the full two-machine campaign under a fault plane.
pub fn run_chaos_campaign(config: &CampaignConfig, chaos: &ChaosConfig) -> ChaosCampaign {
    let (sites, (openwpm, openwpm_recovery), (spoofed, spoofed_recovery)) =
        run_two_machines(config, &Chaos(chaos), split_machine);
    ChaosCampaign {
        campaign: Campaign {
            sites,
            openwpm,
            spoofed,
        },
        openwpm_recovery,
        spoofed_recovery,
    }
}

/// Splits one machine's chaos rows into the run and its recovery
/// telemetry. Per-worker counters are merged, then canonicalised to name
/// order: totals are partition-independent (every site is crawled exactly
/// once, whichever worker claims its shard), but insertion order is not —
/// sorting makes the whole `MachineRecovery` schedule-independent.
fn split_machine(
    client: ClientKind,
    rows: Vec<(SiteResult, SiteRecovery)>,
    workers: Vec<(ScenarioScratch, FaultMonitor)>,
) -> (MachineRun, MachineRecovery) {
    let mut counters = CounterSet::new();
    for (_, monitor) in &workers {
        counters.merge(&monitor.counters());
    }
    let (sites, recoveries) = rows.into_iter().unzip();
    (
        MachineRun { client, sites },
        MachineRecovery {
            client,
            sites: recoveries,
            counters: counters.sorted(),
        },
    )
}

/// The chaos driver: every visit of a site under the recovery policy.
struct Chaos<'a>(&'a ChaosConfig);

impl VisitDriver for Chaos<'_> {
    type Worker = (ScenarioScratch, FaultMonitor);
    type Row = (SiteResult, SiteRecovery);

    fn worker(&self, _config: &CampaignConfig) -> Self::Worker {
        (ScenarioScratch::new(), FaultMonitor::new())
    }

    /// The site's circuit breaker lives here: a site is wholly owned by
    /// one worker, so breaker state needs no synchronisation and trips
    /// deterministically.
    fn visit_site(
        &self,
        machine: &Machine<'_>,
        site: &Site,
        (scratch, monitor): &mut Self::Worker,
    ) -> Self::Row {
        let chaos = self.0;
        let config = machine.config;
        let site_down = chaos.plan.site_is_down(config.seed, &site.domain);
        let mut breaker = CircuitBreaker::new(chaos.breaker.clone());
        let mut outcomes = Vec::with_capacity(config.visits_per_site);
        let mut visits = Vec::with_capacity(config.visits_per_site);

        for v in 0..config.visits_per_site as u64 {
            let recovery = if breaker.is_open() {
                monitor.record(&FaultEvent::BreakerSkippedVisit);
                VisitRecovery {
                    outcome: VisitError::Unreachable { site_down: true }.to_outcome(),
                    attempts: 0,
                    faults: Vec::new(),
                    backoff_ms: 0.0,
                    skipped_by_breaker: true,
                }
            } else {
                visit_with_recovery(
                    chaos,
                    machine,
                    site,
                    site_down,
                    v,
                    &mut breaker,
                    monitor,
                    scratch,
                )
            };
            outcomes.push(recovery.outcome.clone());
            visits.push(recovery);
        }

        (
            SiteResult::new(site, outcomes),
            SiteRecovery {
                domain: site.domain.clone(),
                visits,
                breaker_open: breaker.is_open(),
            },
        )
    }

    fn degraded(&self, site: &Site) -> Self::Row {
        (
            Plain.degraded(site),
            SiteRecovery {
                domain: site.domain.clone(),
                visits: Vec::new(),
                breaker_open: false,
            },
        )
    }
}

/// One visit under the retry policy.
///
/// The fault context is forked **once** per visit and held across
/// attempts: successive attempts draw successive values from its
/// `"fault"` stream (fault schedule, then backoff jitter), while each
/// attempt re-forks the *visit* context from scratch so interaction
/// draws are identical across attempts.
#[allow(clippy::too_many_arguments)]
fn visit_with_recovery(
    chaos: &ChaosConfig,
    machine: &Machine<'_>,
    site: &Site,
    site_down: bool,
    visit_idx: u64,
    breaker: &mut CircuitBreaker,
    monitor: &mut FaultMonitor,
    scratch: &mut ScenarioScratch,
) -> VisitRecovery {
    let mut fault_ctx = machine.visit_ctx(site, visit_idx);
    let mut faults = Vec::new();
    let mut backoff_total = 0.0;
    let mut attempt: u32 = 0;

    loop {
        attempt += 1;
        let injected = if site_down {
            Some(hlisa_sim::InjectedFault::PermanentUnreachable)
        } else {
            chaos.plan.draw(fault_ctx.stream("fault"))
        };
        let mut ctx = machine.visit_ctx(site, visit_idx);
        let result = simulate_visit_attempt(
            site,
            machine.client,
            machine.runtime,
            &mut ctx,
            injected,
            chaos.retry.visit_deadline_ms,
        );

        match result {
            Ok(mut outcome) => {
                machine.drive_scenario(site, &mut outcome, &mut ctx, scratch);
                breaker.record_success();
                if attempt > 1 {
                    monitor.record(&FaultEvent::RecoveredAfterRetry { attempts: attempt });
                }
                return VisitRecovery {
                    outcome,
                    attempts: attempt,
                    faults,
                    backoff_ms: backoff_total,
                    skipped_by_breaker: false,
                };
            }
            Err(e) => {
                let kind = e.fault_kind();
                // An error "is" the injected fault only when the kinds
                // match — an intrinsic flake that preempted the scheduled
                // fault is the population's own behaviour and is recorded
                // as-is, exactly like the legacy (non-retrying) crawler.
                let was_injected = injected.map(|f| f.kind()) == Some(kind);
                if was_injected {
                    monitor.record(&FaultEvent::Injected { kind });
                    faults.push(kind);
                }
                if e.is_permanent() {
                    if breaker.record_permanent_fault() {
                        monitor.record(&FaultEvent::BreakerTripped);
                    }
                    return VisitRecovery {
                        outcome: e.to_outcome(),
                        attempts: attempt,
                        faults,
                        backoff_ms: backoff_total,
                        skipped_by_breaker: false,
                    };
                }
                let can_retry = was_injected && attempt < chaos.retry.max_attempts();
                if can_retry {
                    let backoff = chaos
                        .retry
                        .backoff_ms(attempt - 1, fault_ctx.stream("fault"));
                    monitor.record(&FaultEvent::RetryScheduled {
                        attempt: attempt - 1,
                        backoff_ms: backoff,
                    });
                    backoff_total += backoff;
                    continue;
                }
                if attempt > 1 {
                    monitor.record(&FaultEvent::GaveUp { attempts: attempt });
                }
                // Non-permanent failures never feed the breaker; but a
                // completed (if failed) contact still resets its
                // consecutive-permanent count.
                breaker.record_success();
                return VisitRecovery {
                    outcome: e.to_outcome(),
                    attempts: attempt,
                    faults,
                    backoff_ms: backoff_total,
                    skipped_by_breaker: false,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{crawl_machine, run_campaign, SiteSource};
    use hlisa_web::PopulationConfig;

    fn small_config() -> CampaignConfig {
        CampaignConfig {
            seed: 7,
            population: PopulationConfig {
                n_sites: 60,
                unreachable_sites: 5,
                webdriver_visible: (2, 1, 1, 1),
                template_visible: (1, 1, 1),
                silent_http: (2, 1),
                breakage_sites: 1,
                ..PopulationConfig::default()
            },
            visits_per_site: 4,
            instances: 4,
            world_cache: true,
            plan_interactions: false,
        }
    }

    #[test]
    fn rate_zero_chaos_is_byte_identical_to_the_legacy_runner() {
        let config = small_config();
        let legacy = run_campaign(&config);
        let chaos = run_chaos_campaign(&config, &ChaosConfig::off());
        assert_eq!(chaos.campaign, legacy);
    }

    #[test]
    fn faulted_campaign_reproduces_exactly_across_runs() {
        let config = small_config();
        let cfg = ChaosConfig::uniform(0.05);
        let a = run_chaos_campaign(&config, &cfg);
        let b = run_chaos_campaign(&config, &cfg);
        assert_eq!(
            a, b,
            "fixed-seed 5%-fault campaign must replay bit-identically"
        );
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn faulted_campaign_is_schedule_independent() {
        let base = small_config();
        let mut serial = base.clone();
        serial.instances = 1;
        let cfg = ChaosConfig::uniform(0.10);
        let a = run_chaos_campaign(&base, &cfg);
        let b = run_chaos_campaign(&serial, &cfg);
        assert_eq!(a, b, "worker count must not affect outcomes or counters");
    }

    #[test]
    fn injections_produce_fault_counters_and_recoveries() {
        let config = small_config();
        let chaos = run_chaos_campaign(&config, &ChaosConfig::uniform(0.20));
        let c = chaos.counters();
        assert!(
            c.get("fault.injected").unwrap_or(0) > 0,
            "no faults at 20%?"
        );
        assert!(c.get("retry.scheduled").unwrap_or(0) > 0);
        assert!(c.get("retry.recovered").unwrap_or(0) > 0);
        // Backoff totals follow the retries.
        assert!(c.get("retry.backoff_ms_total").unwrap_or(0) > 0);
    }

    #[test]
    fn site_outage_feeds_the_unreachable_row_and_the_breaker() {
        let config = small_config();
        let cfg = ChaosConfig {
            plan: FaultPlan {
                site_outage: 0.25,
                ..FaultPlan::none()
            },
            ..ChaosConfig::off()
        };
        let chaos = run_chaos_campaign(&config, &cfg);
        let downed: Vec<&str> = chaos
            .campaign
            .sites
            .iter()
            .filter(|s| !s.unreachable && cfg.plan.site_is_down(config.seed, &s.domain))
            .map(|s| s.domain.as_str())
            .collect();
        assert!(!downed.is_empty(), "25% outage downed nothing");
        for run in [&chaos.campaign.openwpm, &chaos.campaign.spoofed] {
            for site in &run.sites {
                if downed.contains(&site.domain.as_str()) {
                    assert!(!site.reached(), "{} should be down", site.domain);
                }
            }
        }
        assert!(chaos.counters().get("breaker.tripped").unwrap_or(0) >= downed.len() as u64);
        assert!(chaos.counters().get("breaker.skipped_visits").unwrap_or(0) > 0);
    }

    #[test]
    fn successful_chaos_visits_match_their_legacy_counterparts() {
        // Retries re-fork the visit context, so any visit that ends in
        // success (first try or after recovery) must record exactly the
        // outcome the faultless campaign records at the same position.
        let config = small_config();
        let legacy = run_campaign(&config);
        let chaos = run_chaos_campaign(&config, &ChaosConfig::uniform(0.15));
        for (chaos_run, legacy_run) in [
            (&chaos.campaign.openwpm, &legacy.openwpm),
            (&chaos.campaign.spoofed, &legacy.spoofed),
        ] {
            for (cs, ls) in chaos_run.sites.iter().zip(&legacy_run.sites) {
                for (co, lo) in cs.outcomes.iter().zip(&ls.outcomes) {
                    if co.successful {
                        assert_eq!(co, lo, "{}: successful visit diverged", cs.domain);
                    }
                }
            }
        }
    }

    /// A population with no intrinsic pathology, so injected faults are
    /// the only failure source and the retry arithmetic is exact.
    fn clean_config() -> CampaignConfig {
        CampaignConfig {
            seed: 11,
            population: PopulationConfig {
                n_sites: 12,
                unreachable_sites: 0,
                webdriver_visible: (0, 0, 0, 0),
                template_visible: (0, 0, 0),
                silent_http: (0, 0),
                breakage_sites: 0,
                mean_flakiness: 0.0,
                ..PopulationConfig::default()
            },
            visits_per_site: 4,
            instances: 2,
            world_cache: true,
            plan_interactions: false,
        }
    }

    #[test]
    fn transient_exhaustion_spends_the_whole_retry_budget_once_per_attempt() {
        let config = clean_config();
        let cfg = ChaosConfig {
            plan: FaultPlan {
                transient_network: 1.0,
                ..FaultPlan::none()
            },
            ..ChaosConfig::off()
        };
        let max_attempts = cfg.retry.max_attempts();
        let chaos = run_chaos_campaign(&config, &cfg);

        let mut visits = 0u64;
        for rec in [&chaos.openwpm_recovery, &chaos.spoofed_recovery] {
            for site in &rec.sites {
                assert!(
                    !site.breaker_open,
                    "{}: transients must never trip the breaker",
                    site.domain
                );
                for v in &site.visits {
                    visits += 1;
                    assert!(!v.skipped_by_breaker);
                    assert_eq!(
                        v.attempts, max_attempts,
                        "{}: the full retry budget is spent",
                        site.domain
                    );
                    assert_eq!(
                        v.faults,
                        vec![hlisa_sim::FaultKind::TransientNetwork; max_attempts as usize]
                    );
                    assert!(!v.outcome.successful);
                    assert!(v.backoff_ms > 0.0, "retries must back off");
                }
            }
        }
        let expected = (config.population.n_sites * config.visits_per_site * 2) as u64;
        assert_eq!(visits, expected);

        // Each attempt is counted exactly once: injections track attempts,
        // scheduled retries are attempts minus the first try, and every
        // visit gives up exactly once.
        let c = chaos.counters();
        assert_eq!(
            c.get("fault.injected"),
            Some(u64::from(max_attempts) * visits)
        );
        assert_eq!(
            c.get("fault.injected.transient_network"),
            Some(u64::from(max_attempts) * visits)
        );
        assert_eq!(
            c.get("retry.scheduled"),
            Some(u64::from(max_attempts - 1) * visits)
        );
        assert_eq!(c.get("retry.gave_up"), Some(visits));
        assert_eq!(c.get("retry.recovered"), None);
        assert_eq!(c.get("breaker.tripped"), None);
        assert_eq!(c.get("breaker.skipped_visits"), None);
    }

    #[test]
    fn permanent_exhaustion_trips_the_breaker_and_empties_the_total_row() {
        let config = clean_config();
        let cfg = ChaosConfig {
            plan: FaultPlan {
                permanent_unreachable: 1.0,
                ..FaultPlan::none()
            },
            ..ChaosConfig::off()
        };
        let threshold = cfg.breaker.permanent_fault_threshold;
        assert!(
            (config.visits_per_site as u32) > threshold,
            "config must leave visits for the open breaker to skip"
        );
        let chaos = run_chaos_campaign(&config, &cfg);

        for rec in [&chaos.openwpm_recovery, &chaos.spoofed_recovery] {
            for site in &rec.sites {
                assert!(
                    site.breaker_open,
                    "{}: breaker should end open",
                    site.domain
                );
                for (i, v) in site.visits.iter().enumerate() {
                    if (i as u32) < threshold {
                        assert_eq!(v.attempts, 1, "permanent faults never retry");
                        assert_eq!(v.faults, vec![hlisa_sim::FaultKind::PermanentUnreachable]);
                        assert_eq!(v.backoff_ms, 0.0);
                        assert!(!v.skipped_by_breaker);
                    } else {
                        assert!(v.skipped_by_breaker, "visit {i} should be skipped");
                        assert_eq!(v.attempts, 0);
                    }
                    assert!(!v.outcome.reached);
                }
            }
        }

        // Every site drops out of Table 2's "total" (reached) row — the
        // campaign-level signature of an unreachable site.
        let table = crate::screenshot::screenshot_table(&chaos.campaign);
        let total = table.row("total").unwrap_or_else(|| {
            panic!("table 2 must keep its total row");
        });
        assert_eq!(total.sites, (0, 0));
        assert_eq!(total.visits, (0, 0));
        for run in [&chaos.campaign.openwpm, &chaos.campaign.spoofed] {
            for site in &run.sites {
                assert!(!site.reached(), "{} should be unreachable", site.domain);
            }
        }

        let c = chaos.counters();
        let sites = (config.population.n_sites * 2) as u64;
        assert_eq!(
            c.get("fault.injected.permanent_unreachable"),
            Some(u64::from(threshold) * sites)
        );
        assert_eq!(c.get("breaker.tripped"), Some(sites));
        assert_eq!(
            c.get("breaker.skipped_visits"),
            Some((config.visits_per_site as u64 - u64::from(threshold)) * sites)
        );
        assert_eq!(c.get("retry.scheduled"), None);
        assert_eq!(c.get("retry.gave_up"), None);
        assert_eq!(c.get("retry.recovered"), None);
    }

    #[test]
    fn breaker_skips_remaining_visits_of_permanently_dead_sites() {
        let config = small_config();
        let chaos = run_chaos_campaign(&config, &ChaosConfig::off());
        let threshold = ChaosConfig::off().breaker.permanent_fault_threshold as usize;
        for (site, rec) in chaos
            .campaign
            .sites
            .iter()
            .zip(&chaos.openwpm_recovery.sites)
        {
            if site.unreachable {
                assert!(rec.breaker_open, "{} breaker should open", site.domain);
                let skipped = rec.visits.iter().filter(|v| v.skipped_by_breaker).count();
                assert_eq!(skipped, config.visits_per_site - threshold);
            }
        }
    }

    /// The population of the integration-level chaos properties.
    fn shard_config(seed: u64, instances: usize) -> CampaignConfig {
        CampaignConfig {
            seed,
            population: PopulationConfig {
                n_sites: 24,
                unreachable_sites: 2,
                webdriver_visible: (1, 1, 0, 0),
                template_visible: (1, 0, 0),
                silent_http: (1, 1),
                breakage_sites: 1,
                ..PopulationConfig::default()
            },
            visits_per_site: 3,
            instances,
            world_cache: true,
            plan_interactions: false,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10))]

        /// Chaos mode under the shard-claiming scheduler: any
        /// `(instances, shard size)` pair reproduces the serial faulted
        /// run exactly — outcomes, recovery telemetry, and merged counters
        /// — even though which worker claims which shard is
        /// scheduling-dependent.
        #[test]
        fn faulted_chaos_is_independent_of_shard_claiming(
            seed in 0u64..1_000_000,
            instances in 2usize..6,
            shard_size in 1usize..16,
        ) {
            let chaos = ChaosConfig::uniform(0.10);
            let serial = run_chaos_campaign(&shard_config(seed, 1), &chaos);
            let config = shard_config(seed, instances);
            let runtime = hlisa_web::visit::DetectorRuntime::new();
            let source = SiteSource::Slice {
                sites: &serial.campaign.sites,
                shard_size,
            };
            for (client, run, recovery) in [
                (ClientKind::OpenWpm, &serial.campaign.openwpm, &serial.openwpm_recovery),
                (ClientKind::OpenWpmSpoofed, &serial.campaign.spoofed, &serial.spoofed_recovery),
            ] {
                let (rows, workers) = crawl_machine(&config, &runtime, client, &source, &Chaos(&chaos));
                let (sharded_run, sharded_recovery) = split_machine(client, rows, workers);
                proptest::prop_assert_eq!(&sharded_run, run);
                proptest::prop_assert_eq!(&sharded_recovery, recovery);
            }
        }
    }
}
