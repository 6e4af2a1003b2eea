//! Campaign-throughput benchmark: the atoms/shapes/snapshots hot path.
//!
//! Three measurements, emitted as `BENCH_campaign.json`:
//!
//! 1. **World acquisition** — building a `WebDriverFirefox` world from
//!    scratch vs stamping one from a [`WorldSnapshot`] (the per-visit
//!    cost a crawl pays 16,000 times at the paper's scale).
//! 2. **Property lookups** — the linear-scan reference model
//!    ([`LinearObject`]) vs the shape-indexed realm storage, probed over
//!    the real `Navigator.prototype` key set.
//! 3. **Campaign visits/sec** — the full two-machine crawl with the
//!    world-snapshot cache off (the pre-optimization cost model: one
//!    fresh world build per visit) and on (stamped worlds).
//!
//! Timing goes through [`crate::harness`], the crate's one wall-clock
//! read.

use crate::harness::{timed, Comparison, Object, Report};
use hlisa_crawler::campaign::{run_campaign, Campaign, CampaignConfig};
use hlisa_jsom::object::JsObject;
use hlisa_jsom::realm::Realm;
use hlisa_jsom::{build_firefox_world, BrowserFlavor, LinearObject, PropertyDescriptor, Value};
use hlisa_web::{PopulationConfig, WorldSnapshot};
use std::hint::black_box;

/// Benchmark sizing.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// World builds/stamps per timing loop.
    pub world_iters: u32,
    /// Full passes over the navigator key set per lookup loop.
    pub lookup_iters: u32,
    /// Sites in the campaign population.
    pub campaign_sites: usize,
    /// Visits per site per machine.
    pub visits_per_site: usize,
}

impl BenchConfig {
    /// The default run: big enough for stable ratios.
    pub fn full() -> Self {
        Self {
            world_iters: 200,
            lookup_iters: 20_000,
            campaign_sites: 120,
            visits_per_site: 8,
        }
    }

    /// A seconds-scale smoke run for CI.
    pub fn smoke() -> Self {
        Self {
            world_iters: 20,
            lookup_iters: 2_000,
            campaign_sites: 30,
            visits_per_site: 4,
        }
    }
}

/// The full benchmark result.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Sizing used.
    pub config: BenchConfig,
    /// Fresh world build vs snapshot stamp (per-visit world acquisition).
    pub world: Comparison,
    /// Linear-scan vs shape-indexed own-property lookups.
    pub lookup: Comparison,
    /// Total visits simulated per campaign side.
    pub campaign_visits: u64,
    /// Fresh-built-worlds campaign vs snapshot-stamped campaign.
    pub campaign: Comparison,
}

fn bench_world(iters: u32) -> Comparison {
    let snapshot = WorldSnapshot::build(BrowserFlavor::WebDriverFirefox);
    let (build_t, _) = timed(|| {
        for _ in 0..iters {
            black_box(build_firefox_world(BrowserFlavor::WebDriverFirefox));
        }
    });
    let (stamp_t, _) = timed(|| {
        for _ in 0..iters {
            black_box(snapshot.stamp());
        }
    });
    Comparison {
        ops: u64::from(iters),
        baseline_s: build_t.as_secs_f64(),
        optimized_s: stamp_t.as_secs_f64(),
    }
}

/// Lookup probe sizing: a real `window` global exposes hundreds of Web
/// IDL properties (the repro's reduced world keeps only the study's hot
/// ones), so the scan-vs-shape scaling is measured on a window-sized
/// object; detectors also probe for tells that are *absent* (headless
/// leak names), which cost the linear scan a full pass.
const LOOKUP_PRESENT_KEYS: usize = 256;
const LOOKUP_ABSENT_PROBES: usize = 64;

fn bench_lookup(iters: u32) -> Comparison {
    let mut realm = Realm::new();
    let obj = realm.alloc(JsObject::plain("Window", None));
    let mut linear = LinearObject::new();
    let mut probes: Vec<String> = Vec::new();
    for i in 0..LOOKUP_PRESENT_KEYS {
        let key = format!("idlAttribute{i:03}");
        let desc = PropertyDescriptor::plain(Value::Number(i as f64));
        realm.set_own(obj, &key, desc.clone());
        linear.set_own(&key, desc);
        probes.push(key);
    }
    for i in 0..LOOKUP_ABSENT_PROBES {
        probes.push(format!("headlessTell{i:02}"));
    }
    let ops = u64::from(iters) * probes.len() as u64;
    let (linear_t, a) = timed(|| {
        let mut hits = 0u64;
        for _ in 0..iters {
            for key in &probes {
                hits += u64::from(black_box(linear.own(black_box(key))).is_some());
            }
        }
        hits
    });
    let (shape_t, b) = timed(|| {
        let mut hits = 0u64;
        for _ in 0..iters {
            for key in &probes {
                hits += u64::from(black_box(realm.has_own(obj, black_box(key))));
            }
        }
        hits
    });
    assert_eq!(a, b, "lookup sides disagree");
    Comparison {
        ops,
        baseline_s: linear_t.as_secs_f64(),
        optimized_s: shape_t.as_secs_f64(),
    }
}

/// The campaign config both sides run (only `world_cache` differs).
fn campaign_config(bench: &BenchConfig, world_cache: bool) -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        population: PopulationConfig {
            n_sites: bench.campaign_sites,
            ..PopulationConfig::default()
        },
        visits_per_site: bench.visits_per_site,
        instances: 4,
        world_cache,
        plan_interactions: false,
    }
}

fn bench_campaign(bench: &BenchConfig) -> (u64, Comparison) {
    // 2 machines × sites × visits.
    let visits = 2 * bench.campaign_sites as u64 * bench.visits_per_site as u64;
    let (fresh_t, fresh) = timed(|| run_campaign(&campaign_config(bench, false)));
    let (cached_t, cached) = timed(|| run_campaign(&campaign_config(bench, true)));
    assert_campaigns_equal(&fresh, &cached);
    (
        visits,
        Comparison {
            ops: visits,
            baseline_s: fresh_t.as_secs_f64(),
            optimized_s: cached_t.as_secs_f64(),
        },
    )
}

/// The two timed campaigns must also be bit-identical — a benchmark that
/// compared different outputs would be measuring the wrong thing.
fn assert_campaigns_equal(a: &Campaign, b: &Campaign) {
    assert_eq!(a, b, "cached and fresh campaigns diverged");
}

/// Runs the whole suite.
pub fn run(config: BenchConfig) -> BenchReport {
    let world = bench_world(config.world_iters);
    let lookup = bench_lookup(config.lookup_iters);
    let (campaign_visits, campaign) = bench_campaign(&config);
    BenchReport {
        config,
        world,
        lookup,
        campaign_visits,
        campaign,
    }
}

impl BenchReport {
    /// The report, field by field, as `BENCH_campaign.json` lays it out.
    pub fn fields(&self) -> Report {
        let c = &self.config;
        Report::new("hlisa campaign throughput (atoms/shapes/snapshots)")
            .object(
                "config",
                Object::new()
                    .int("world_iters", c.world_iters.into())
                    .int("lookup_iters", c.lookup_iters.into())
                    .int("campaign_sites", c.campaign_sites as u64)
                    .int("visits_per_site", c.visits_per_site as u64),
            )
            .object("world_acquisition", self.world.section("worlds"))
            .object("property_lookup", self.lookup.section("lookups"))
            .object("campaign", self.campaign.section("visits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::schema;

    #[test]
    fn smoke_report_is_well_formed() {
        let mut cfg = BenchConfig::smoke();
        // Keep the test fast; rates are not asserted here.
        cfg.world_iters = 2;
        cfg.lookup_iters = 10;
        cfg.campaign_sites = 10;
        cfg.visits_per_site = 2;
        let report = run(cfg);
        assert_eq!(report.campaign_visits, 2 * 10 * 2);
        schema::assert_matches_baseline(&report.fields(), "campaign", &[]);
    }
}
