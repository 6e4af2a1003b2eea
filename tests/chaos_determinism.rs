//! Chaos-mode invariants: the fault plane must never perturb what it does
//! not touch.
//!
//! Two properties pin the chaos driver's key guarantee: (a) with every
//! fault rate at zero the chaos runner is bit-identical to the legacy
//! campaign for *arbitrary* seeds, instance counts and scenario mixes,
//! and (b) retries
//! consume RNG from the `"fault"` stream only, so any visit that ends in
//! success — first try or after recovery — records exactly the outcome
//! the faultless campaign records at the same `(machine, site, visit)`.

use hlisa_crawler::{run_campaign, run_chaos_campaign, CampaignConfig, ChaosConfig};
use hlisa_web::{PopulationConfig, ScenarioMix};
use proptest::prelude::*;

fn config(seed: u64, instances: usize) -> CampaignConfig {
    scenario_config(seed, instances, ScenarioMix::default())
}

fn scenario_config(seed: u64, instances: usize, scenarios: ScenarioMix) -> CampaignConfig {
    CampaignConfig {
        seed,
        population: PopulationConfig {
            n_sites: 24,
            unreachable_sites: 2,
            webdriver_visible: (1, 1, 0, 0),
            template_visible: (1, 0, 0),
            silent_http: (1, 1),
            breakage_sites: 1,
            scenarios,
            ..PopulationConfig::default()
        },
        visits_per_site: 3,
        instances,
        world_cache: true,
        plan_interactions: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The mix includes the all-zero one (no scenario sites) and mixes
    /// whose dynamic pages run the post-attempt scenario drive.
    #[test]
    fn rate_zero_chaos_is_bit_identical_for_any_seed_and_schedule(
        seed in 0u64..1_000_000,
        instances in 1usize..5,
        mix in (0usize..3, 0usize..3, 0usize..3),
    ) {
        let cfg = scenario_config(seed, instances, ScenarioMix {
            cookie_banner: mix.0,
            lazy_content: mix.1,
            spa_mutation: mix.2,
        });
        let legacy = run_campaign(&cfg);
        let chaos = run_chaos_campaign(&cfg, &ChaosConfig::off());
        prop_assert_eq!(&chaos.campaign, &legacy);
        // And the no-op plan schedules nothing.
        prop_assert_eq!(chaos.counters().get("fault.injected"), None);
        prop_assert_eq!(chaos.counters().get("retry.scheduled"), None);
    }

    #[test]
    fn retries_draw_from_the_fault_stream_only(
        seed in 0u64..1_000_000,
        instances in 1usize..5,
    ) {
        let cfg = config(seed, instances);
        let legacy = run_campaign(&cfg);
        let chaos = run_chaos_campaign(&cfg, &ChaosConfig::uniform(0.15));
        for (chaos_run, legacy_run) in [
            (&chaos.campaign.openwpm, &legacy.openwpm),
            (&chaos.campaign.spoofed, &legacy.spoofed),
        ] {
            for (cs, ls) in chaos_run.sites.iter().zip(&legacy_run.sites) {
                for (v, (co, lo)) in cs.outcomes.iter().zip(&ls.outcomes).enumerate() {
                    if co.successful {
                        // A successful visit — including one recovered
                        // after retries — replays the legacy draw
                        // sequence exactly: interaction streams are
                        // unperturbed by injection and backoff.
                        prop_assert_eq!(
                            co, lo,
                            "{} visit {}: interaction stream perturbed", cs.domain, v
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn faulted_runs_replay_identically() {
    // The fixed-seed acceptance check in integration form: outcomes and
    // every fault/retry/breaker counter must match across two runs.
    let cfg = config(0xC4A05, 3);
    let chaos = ChaosConfig::uniform(0.05);
    let a = run_chaos_campaign(&cfg, &chaos);
    let b = run_chaos_campaign(&cfg, &chaos);
    assert_eq!(a, b);
    assert_eq!(a.counters(), b.counters());
}
