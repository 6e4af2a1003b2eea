//! Crawl campaign execution: one machine pass, three visit drivers.
//!
//! Every campaign mode walks a machine's population the same way. The
//! crate-private machine pass builds the machine context, runs the
//! shard-claiming engine over a [`SiteSource`], folds each shard inside
//! its worker right after the shard's visits, fills the shards of any
//! worker that died with degraded rows, and hands back the worker states.
//! What differs between modes is only the *visit driver*: its worker
//! state, its per-site visit and its degraded row.
//!
//! * the **plain** driver (this module) makes one attempt per visit, with
//!   the batch interaction planner optional;
//! * the **chaos** driver ([`crate::chaos`]) retries attempts under the
//!   fault plane and the recovery policy;
//! * the **captured** driver ([`crate::reliability`]) takes the plain
//!   truth and routes it through a lossy capture channel.
//!
//! All three apply the same post-attempt scenario drive through the
//! worker's retained [`ScenarioScratch`], and every two-machine campaign
//! goes population → one [`DetectorRuntime`] → machine (1) → machine (2)
//! through one helper.
//!
//! Workers claim consecutive shard indices off one atomic cursor instead
//! of being statically striped over sites. Claiming order is
//! scheduling-dependent, but no draw is: every visit runs in a
//! [`SimContext`] forked purely from `(machine seed, domain, visit
//! index)`, and results land in per-shard write-once slots reassembled in
//! shard order. A run is therefore bit-identical for any `instances`, any
//! shard size and any claiming order — property-tested, including under
//! the lazy [`PopulationShards`] source where a shard's sites are
//! materialised only while a worker holds them.

use crate::scenario::ScenarioScratch;
use hlisa_human::{HumanParams, VisitPlanner};
use hlisa_sim::SimContext;
use hlisa_web::visit::DetectorRuntime;
use hlisa_web::{
    generate_population, simulate_visit, simulate_visit_planned, ClientKind, PlanStats,
    PopulationConfig, PopulationShards, Site, VisitOutcome, DEFAULT_SHARD_SIZE,
};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Campaign configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Master seed (covers visit-level randomness).
    pub seed: u64,
    /// Site population.
    pub population: PopulationConfig,
    /// Visits per site per machine (the paper's 8 simultaneous instances
    /// provide "a baseline to average out variations").
    pub visits_per_site: usize,
    /// Parallel browser instances per machine.
    pub instances: usize,
    /// Stamp per-visit JS worlds from per-worker snapshots (`true`, the
    /// fast path) or rebuild them from scratch every visit (`false`, the
    /// original cost model). Campaign output is bit-identical either way —
    /// world construction consumes no RNG — so this only trades speed.
    pub world_cache: bool,
    /// Drive every successful visit off a batch [`VisitPlanner`] (one
    /// reusable arena per worker). The plan draws only from a `"plan"`
    /// fork of each visit context, so campaign outcomes are bit-identical
    /// with the mode on or off; planning adds per-visit interaction
    /// synthesis and per-worker [`PlanStats`] totals.
    pub plan_interactions: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            seed: 0x6372_6177, // "craw"
            population: PopulationConfig::default(),
            visits_per_site: 8,
            instances: 8,
            world_cache: true,
            plan_interactions: false,
        }
    }
}

/// All visits of one site by one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteResult {
    /// The site's domain.
    pub domain: String,
    /// Tranco-style rank.
    pub rank: u32,
    /// One outcome per visit.
    pub outcomes: Vec<VisitOutcome>,
}

impl SiteResult {
    /// Whether any visit reached the site.
    pub fn reached(&self) -> bool {
        self.outcomes.iter().any(|o| o.reached)
    }

    /// Number of successful visits.
    pub fn successful_visits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.successful).count()
    }

    /// The site's row: `outcomes` in visit order. With no outcomes this is
    /// the degraded row of a site whose worker died before visiting it —
    /// recorded as unvisited rather than aborting the machine, mirroring
    /// how the paper's crawl keeps its Table 2 denominators when
    /// individual browser instances wedge.
    pub(crate) fn new(site: &Site, outcomes: Vec<VisitOutcome>) -> Self {
        Self {
            domain: site.domain.clone(),
            rank: site.rank,
            outcomes,
        }
    }
}

/// One machine's full crawl.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineRun {
    /// The client flavour this machine ran.
    pub client: ClientKind,
    /// Per-site results, in population order.
    pub sites: Vec<SiteResult>,
}

/// Both machines' crawls over the same population.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// The site population visited.
    pub sites: Vec<Site>,
    /// Machine (1): stock OpenWPM.
    pub openwpm: MachineRun,
    /// Machine (2): OpenWPM + spoofing extension.
    pub spoofed: MachineRun,
}

/// Runs the full two-machine campaign.
pub fn run_campaign(config: &CampaignConfig) -> Campaign {
    let (sites, openwpm, spoofed) = run_two_machines(config, &Plain, |client, sites, _| {
        MachineRun { client, sites }
    });
    Campaign {
        sites,
        openwpm,
        spoofed,
    }
}

/// Runs one machine's crawl with `config.instances` parallel workers.
///
/// Workers claim shards of [`DEFAULT_SHARD_SIZE`] sites off an atomic
/// cursor; every visit runs in its own [`SimContext`] forked from the
/// machine context by `(domain, visit index)`. Neither the schedule nor
/// the thread count can therefore affect any draw: the run is
/// bit-identical for any `instances` and any claiming order.
pub fn run_machine(config: &CampaignConfig, sites: &[Site], client: ClientKind) -> MachineRun {
    plain_machine(config, sites, client).0
}

/// [`run_machine`] in batch-planner mode: every successful visit is
/// driven off the worker's reusable [`VisitPlanner`] arena, and the
/// summed plan totals come back alongside the (bit-identical) run.
pub fn run_machine_planned(
    config: &CampaignConfig,
    sites: &[Site],
    client: ClientKind,
) -> (MachineRun, PlanStats) {
    let planned = CampaignConfig {
        plan_interactions: true,
        ..config.clone()
    };
    plain_machine(&planned, sites, client)
}

/// One plain machine over a materialised population, plus the summed
/// per-worker [`PlanStats`] (all zero unless `config.plan_interactions`).
/// The totals are sums over visits, so they are identical for any worker
/// count and claiming order.
fn plain_machine(
    config: &CampaignConfig,
    sites: &[Site],
    client: ClientKind,
) -> (MachineRun, PlanStats) {
    let source = SiteSource::Slice {
        sites,
        shard_size: DEFAULT_SHARD_SIZE,
    };
    let (sites, workers) = crawl_machine(config, &new_runtime(config), client, &source, &Plain);
    let mut totals = PlanStats::default();
    for w in &workers {
        totals.absorb(w.plan_totals);
    }
    (MachineRun { client, sites }, totals)
}

/// Streaming variant for populations too large to hold a [`SiteResult`]
/// per site: each shard's results are folded into a summary by
/// `summarise(shard index, results)` *inside the worker* and dropped, so
/// the standing footprint is one summary per shard plus one materialised
/// shard per worker. Summaries return in shard order; a shard whose
/// worker died is summarised from degraded (zero-outcome) rows.
pub fn run_machine_shard_summaries<S: Send + Sync>(
    config: &CampaignConfig,
    shards: &PopulationShards,
    client: ClientKind,
    summarise: &(impl Fn(usize, Vec<SiteResult>) -> S + Sync),
) -> Vec<S> {
    let source = SiteSource::Lazy(shards);
    machine_pass(
        config,
        &new_runtime(config),
        client,
        &source,
        &Plain,
        summarise,
    )
    .0
}

/// [`run_machine_shard_summaries`] with a crash-safe on-disk journal:
/// each shard's summary is rendered by `to_json` and appended to `sink`
/// **as the shard completes** (degraded shards included), fsync'd per
/// append, so a harness crash loses at most the shard it was mid-write
/// on. [`ShardSummarySink::replay`](crate::sink::ShardSummarySink::replay)
/// recovers every durable line afterwards.
///
/// Returns the in-memory summaries (shard order) once every append is
/// durably on disk; the first sink I/O error fails the run instead of
/// silently dropping shards.
pub fn run_machine_shard_summaries_persistent<S: Send + Sync>(
    config: &CampaignConfig,
    shards: &PopulationShards,
    client: ClientKind,
    summarise: &(impl Fn(usize, Vec<SiteResult>) -> S + Sync),
    to_json: &(impl Fn(&S) -> String + Sync),
    sink: &crate::sink::ShardSummarySink,
) -> std::io::Result<Vec<S>> {
    let summaries = run_machine_shard_summaries(config, shards, client, &|k, results| {
        let summary = summarise(k, results);
        sink.record(k, &to_json(&summary));
        summary
    });
    sink.finish()?;
    Ok(summaries)
}

/// The campaign's detector runtime — the crate's one `world_cache`
/// branch. One runtime serves a whole campaign: the template reference is
/// captured once and the snapshot cache keeps a slot per flavour, so both
/// machines (and all their workers) share the same pristine worlds.
/// Sharing changes no output — stamps are value clones.
fn new_runtime(config: &CampaignConfig) -> DetectorRuntime {
    if config.world_cache {
        DetectorRuntime::new()
    } else {
        DetectorRuntime::without_world_cache()
    }
}

/// Where a machine's sites come from: a materialised slice viewed in
/// shard-size windows (no per-shard allocation), or the lazy shard layer
/// (sites materialised only while a worker holds the shard).
pub(crate) enum SiteSource<'a> {
    /// A pre-generated population, windowed into logical shards.
    Slice {
        sites: &'a [Site],
        shard_size: usize,
    },
    /// The lazy shard layer — each shard generated on claim, dropped
    /// when the worker finishes it.
    Lazy(&'a PopulationShards),
}

impl SiteSource<'_> {
    fn n_sites(&self) -> usize {
        match self {
            SiteSource::Slice { sites, .. } => sites.len(),
            SiteSource::Lazy(shards) => shards.n_sites(),
        }
    }

    fn shard_size(&self) -> usize {
        match self {
            SiteSource::Slice { shard_size, .. } => (*shard_size).max(1),
            SiteSource::Lazy(shards) => shards.shard_size(),
        }
    }

    fn n_shards(&self) -> usize {
        self.n_sites().div_ceil(self.shard_size())
    }

    fn shard_range(&self, k: usize) -> Range<usize> {
        let lo = k * self.shard_size();
        let hi = (lo + self.shard_size()).min(self.n_sites());
        lo..hi
    }

    /// Runs `f` over shard `k`'s sites. A slice source borrows its
    /// window; the lazy source materialises the shard for exactly the
    /// duration of the call.
    fn with_shard<T>(&self, k: usize, f: impl FnOnce(&[Site]) -> T) -> T {
        match self {
            SiteSource::Slice { sites, .. } => f(&sites[self.shard_range(k)]),
            SiteSource::Lazy(shards) => shards.with_shard(k, |_, sites| f(sites)),
        }
    }
}

/// One way of visiting a site — what the plain, chaos and captured
/// crawls supply to the machine pass. A driver owns no scheduling: it
/// sees one site at a time with its worker's state, so any worker
/// produces the same row for the same site.
pub(crate) trait VisitDriver: Sync {
    /// Worker-local state, built once per worker for its whole shard
    /// stream (scratch buffers, planner arenas, counters).
    type Worker: Send;
    /// What all visits of one site produce.
    type Row: Send + Sync;

    /// A fresh worker state.
    fn worker(&self, config: &CampaignConfig) -> Self::Worker;

    /// All visits of one site by `machine`.
    fn visit_site(
        &self,
        machine: &Machine<'_>,
        site: &Site,
        worker: &mut Self::Worker,
    ) -> Self::Row;

    /// The row of a site whose worker died before visiting it.
    fn degraded(&self, site: &Site) -> Self::Row;
}

/// What every visit of one machine shares: the campaign, the client
/// flavour, the detector runtime and the machine context each visit
/// forks from — a pure function of `(campaign seed, machine label)`.
pub(crate) struct Machine<'a> {
    pub(crate) config: &'a CampaignConfig,
    pub(crate) client: ClientKind,
    pub(crate) runtime: &'a DetectorRuntime,
    ctx: SimContext,
}

impl Machine<'_> {
    /// The context of visit `v` to `site`.
    pub(crate) fn visit_ctx(&self, site: &Site, v: u64) -> SimContext {
        self.ctx.fork_visit(&site.domain, v)
    }

    /// The post-attempt scenario drive every driver applies: a dynamic
    /// page's site runs its drive in the attempt's context, which may
    /// override a successful-looking visit's screenshot verdict. It draws
    /// only from its own forked streams, so populations without
    /// scenarios stay bit-identical.
    pub(crate) fn drive_scenario(
        &self,
        site: &Site,
        outcome: &mut VisitOutcome,
        ctx: &mut SimContext,
        scratch: &mut ScenarioScratch,
    ) {
        if let Some(kind) = site.scenario {
            crate::scenario::apply_scenario_drive_with(
                self.config.seed,
                site,
                kind,
                self.client,
                outcome,
                ctx,
                scratch,
            );
        }
    }
}

/// The machine pass — the one place a machine walks its population.
/// Builds the machine context, runs the shard-claiming engine over
/// `source` with one `driver` worker state per worker, and folds each
/// shard by `fold(shard index, rows)` inside its worker right after the
/// shard's visits. A shard whose worker died is folded from degraded rows
/// afterwards, in shard order. Returns the folded shards in shard order
/// and the worker states in worker-index order.
pub(crate) fn machine_pass<D: VisitDriver, S: Send + Sync>(
    config: &CampaignConfig,
    runtime: &DetectorRuntime,
    client: ClientKind,
    source: &SiteSource<'_>,
    driver: &D,
    fold: &(impl Fn(usize, Vec<D::Row>) -> S + Sync),
) -> (Vec<S>, Vec<D::Worker>) {
    let label = match client {
        ClientKind::OpenWpm => "m1",
        ClientKind::OpenWpmSpoofed => "m2",
    };
    let machine = Machine {
        config,
        client,
        runtime,
        ctx: SimContext::new(config.seed).fork(label, 0),
    };
    let (slots, workers) = run_sharded(
        config.instances,
        source,
        &|| driver.worker(config),
        &|worker, k, sites| {
            let rows = sites
                .iter()
                .map(|site| driver.visit_site(&machine, site, worker))
                .collect();
            fold(k, rows)
        },
    );
    let folded = slots
        .into_iter()
        .enumerate()
        .map(|(k, slot)| {
            slot.unwrap_or_else(|| {
                source.with_shard(k, |sites| {
                    fold(k, sites.iter().map(|site| driver.degraded(site)).collect())
                })
            })
        })
        .collect();
    (folded, workers)
}

/// [`machine_pass`] with the shards concatenated: every site's row in
/// population order.
pub(crate) fn crawl_machine<D: VisitDriver>(
    config: &CampaignConfig,
    runtime: &DetectorRuntime,
    client: ClientKind,
    source: &SiteSource<'_>,
    driver: &D,
) -> (Vec<D::Row>, Vec<D::Worker>) {
    let (shards, workers) = machine_pass(config, runtime, client, source, driver, &|_, rows| rows);
    (shards.into_iter().flatten().collect(), workers)
}

/// A two-machine campaign: generates the population, builds one detector
/// runtime for both machines, crawls machine (1) then machine (2) with
/// `driver`, and shapes each machine's rows and worker states with
/// `finish`.
pub(crate) fn run_two_machines<D: VisitDriver, M>(
    config: &CampaignConfig,
    driver: &D,
    finish: impl Fn(ClientKind, Vec<D::Row>, Vec<D::Worker>) -> M,
) -> (Vec<Site>, M, M) {
    let sites = generate_population(&config.population);
    let runtime = new_runtime(config);
    let source = SiteSource::Slice {
        sites: &sites,
        shard_size: DEFAULT_SHARD_SIZE,
    };
    let [m1, m2] = [ClientKind::OpenWpm, ClientKind::OpenWpmSpoofed].map(|client| {
        let (rows, workers) = crawl_machine(config, &runtime, client, &source, driver);
        finish(client, rows, workers)
    });
    (sites, m1, m2)
}

/// The shard-claiming worker engine behind [`machine_pass`]. Spawns
/// `min(instances, shards)` workers which repeatedly claim the next shard
/// index off one atomic cursor and run `process` over its sites with a
/// worker-local state (`init` per worker), writing each shard's product
/// into a write-once slot.
///
/// Returns the per-shard products in shard order (`None` for a shard
/// whose worker died before writing) and the worker states in
/// worker-index order. The claiming order is scheduling-dependent;
/// nothing processed is: `process` receives only the shard's identity and
/// sites, so any claim order yields the same slot contents, and
/// worker-state *totals* are partition-independent.
fn run_sharded<S, W>(
    instances: usize,
    source: &SiteSource<'_>,
    init: &(impl Fn() -> W + Sync),
    process: &(impl Fn(&mut W, usize, &[Site]) -> S + Sync),
) -> (Vec<Option<S>>, Vec<W>)
where
    S: Send + Sync,
    W: Send,
{
    let n_shards = source.n_shards();
    let workers = instances.max(1).min(n_shards.max(1));
    let slots: Vec<OnceLock<S>> = (0..n_shards).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);

    let states = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let slots = &slots;
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut state = init();
                    loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= n_shards {
                            break;
                        }
                        let product = source.with_shard(k, |sites| process(&mut state, k, sites));
                        // Each shard index is claimed by exactly one
                        // worker, so the set can only succeed; if the
                        // cursor invariant ever broke, the first write
                        // wins and the campaign still completes.
                        let _ = slots[k].set(product);
                    }
                    state
                })
            })
            .collect();
        // Join in worker-index order so the returned states are
        // positionally stable; a worker that died yields a fresh state.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| init()))
            .collect::<Vec<_>>()
    });

    (
        slots.into_iter().map(OnceLock::into_inner).collect(),
        states,
    )
}

/// The plain crawl's driver: one attempt per visit, planned when
/// `config.plan_interactions` is set.
pub(crate) struct Plain;

/// The plain driver's worker state: the scenario drive's persistent
/// agent plus, in planner mode, the batch interaction planner and its
/// running totals. Every scratch buffer reaches its high-water capacity
/// once and is then reused visit after visit; nothing in it can
/// influence a draw, so any worker produces the same result.
pub(crate) struct VisitWorker {
    scenario: ScenarioScratch,
    planner: Option<(HumanParams, VisitPlanner)>,
    plan_totals: PlanStats,
}

impl VisitWorker {
    fn new(plan_interactions: bool) -> Self {
        Self {
            scenario: ScenarioScratch::new(),
            planner: plan_interactions
                .then(|| (HumanParams::paper_baseline(), VisitPlanner::new())),
            plan_totals: PlanStats::default(),
        }
    }

    /// Visit `v` to `site`: one attempt (planned in planner mode — the
    /// plan is laid into the worker's arena from the visit's `"plan"`
    /// fork, so the `"visit"` stream and the outcome are untouched), then
    /// the scenario drive. Returns the outcome and the visit context the
    /// attempt drew from.
    pub(crate) fn visit(
        &mut self,
        machine: &Machine<'_>,
        site: &Site,
        v: u64,
    ) -> (VisitOutcome, SimContext) {
        let mut ctx = machine.visit_ctx(site, v);
        let (client, runtime) = (machine.client, machine.runtime);
        let mut outcome = match &mut self.planner {
            Some((params, planner)) => {
                let (outcome, stats) =
                    simulate_visit_planned(site, client, runtime, &mut ctx, params, planner);
                self.plan_totals.absorb(stats);
                outcome
            }
            None => simulate_visit(site, client, runtime, &mut ctx),
        };
        machine.drive_scenario(site, &mut outcome, &mut ctx, &mut self.scenario);
        (outcome, ctx)
    }
}

impl VisitDriver for Plain {
    type Worker = VisitWorker;
    type Row = SiteResult;

    fn worker(&self, config: &CampaignConfig) -> VisitWorker {
        VisitWorker::new(config.plan_interactions)
    }

    fn visit_site(
        &self,
        machine: &Machine<'_>,
        site: &Site,
        worker: &mut VisitWorker,
    ) -> SiteResult {
        let outcomes = (0..machine.config.visits_per_site as u64)
            .map(|v| worker.visit(machine, site, v).0)
            .collect();
        SiteResult::new(site, outcomes)
    }

    fn degraded(&self, site: &Site) -> SiteResult {
        SiteResult::new(site, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn campaign_covers_all_sites_for_both_machines() {
        let c = run_campaign(&small_config());
        assert_eq!(c.openwpm.sites.len(), 60);
        assert_eq!(c.spoofed.sites.len(), 60);
        assert!(c.openwpm.sites.iter().all(|s| s.outcomes.len() == 4));
        // Result order matches population order despite parallelism.
        for (site, result) in c.sites.iter().zip(&c.openwpm.sites) {
            assert_eq!(site.domain, result.domain);
        }
    }

    #[test]
    fn campaign_is_deterministic_across_runs_and_thread_counts() {
        let base = small_config();
        let mut serial = base.clone();
        serial.instances = 1;
        let a = run_campaign(&base);
        let b = run_campaign(&serial);
        assert_eq!(a, b, "parallel schedule must not affect results");
    }

    #[test]
    fn snapshot_stamped_campaign_is_bit_identical_to_fresh_built() {
        let cached = small_config();
        let mut fresh = cached.clone();
        fresh.world_cache = false;
        let a = run_campaign(&cached);
        let b = run_campaign(&fresh);
        assert_eq!(a, b, "world snapshot cache must not change any outcome");
    }

    /// The batch planner drives real campaign visits without changing a
    /// single outcome, and its totals are invariant to worker count and
    /// claiming order.
    #[test]
    fn planned_campaign_is_bit_identical_with_thread_invariant_totals() {
        let config = small_config();
        let sites = generate_population(&config.population);
        for client in [ClientKind::OpenWpm, ClientKind::OpenWpmSpoofed] {
            let baseline = run_machine(&config, &sites, client);
            let (planned, totals) = run_machine_planned(&config, &sites, client);
            assert_eq!(planned, baseline, "{client:?}: planning changed outcomes");
            assert!(totals.actions > 0, "{client:?}: planner saw no visits");
            assert!(totals.samples > totals.actions, "{client:?}: empty plans");
            // Totals are sums over visits: any partition of the shard
            // stream over workers lands on the same numbers.
            for instances in [1usize, 3, 8] {
                let mut cfg = config.clone();
                cfg.instances = instances;
                let (run, t) = run_machine_planned(&cfg, &sites, client);
                assert_eq!(run, baseline, "{client:?}/{instances} workers diverged");
                assert_eq!(t, totals, "{client:?}/{instances} totals diverged");
            }
        }
    }

    #[test]
    fn unreachable_sites_never_reached() {
        let c = run_campaign(&small_config());
        for (site, result) in c.sites.iter().zip(&c.openwpm.sites) {
            if site.unreachable {
                assert!(!result.reached());
                assert_eq!(result.successful_visits(), 0);
            }
        }
    }

    /// The plain driver, except that its worker wedges (panics) on one
    /// site — the failure the machine pass must absorb.
    struct Wedged {
        domain: String,
    }

    impl VisitDriver for Wedged {
        type Worker = VisitWorker;
        type Row = SiteResult;

        fn worker(&self, config: &CampaignConfig) -> VisitWorker {
            Plain.worker(config)
        }

        fn visit_site(
            &self,
            machine: &Machine<'_>,
            site: &Site,
            worker: &mut VisitWorker,
        ) -> SiteResult {
            assert_ne!(site.domain, self.domain, "browser instance wedged");
            Plain.visit_site(machine, site, worker)
        }

        fn degraded(&self, site: &Site) -> SiteResult {
            Plain.degraded(site)
        }
    }

    #[test]
    fn poisoned_shard_degrades_to_zero_outcome_rows_instead_of_aborting() {
        let config = small_config();
        let sites = generate_population(&config.population);
        let source = SiteSource::Slice {
            sites: &sites,
            shard_size: 10,
        };
        // A worker wedges on the first site of shard 1 and dies: that
        // shard's slot never gets written. The other workers carry on.
        let wedged = Wedged {
            domain: sites[10].domain.clone(),
        };
        let (collected, _) = crawl_machine(
            &config,
            &new_runtime(&config),
            ClientKind::OpenWpm,
            &source,
            &wedged,
        );
        // The machine run still covers the full population, in order…
        assert_eq!(collected.len(), sites.len());
        for (i, (site, result)) in sites.iter().zip(&collected).enumerate() {
            assert_eq!(site.domain, result.domain);
            assert_eq!(site.rank, result.rank);
            if !(10..20).contains(&i) {
                assert_eq!(result.outcomes.len(), config.visits_per_site);
            }
        }
        // …and the poisoned shard's sites read as unvisited, keeping
        // Table 2's denominators intact rather than crashing the campaign.
        for result in &collected[10..20] {
            assert!(result.outcomes.is_empty());
            assert!(!result.reached());
            assert_eq!(result.successful_visits(), 0);
        }
    }

    #[test]
    fn sharded_and_lazy_runs_match_the_default_engine_bit_for_bit() {
        let config = small_config();
        let sites = generate_population(&config.population);
        let baseline = run_machine(&config, &sites, ClientKind::OpenWpm);
        let runtime = new_runtime(&config);
        // Any explicit shard size — including one that leaves a ragged
        // tail or degenerates to one site per shard — yields the same run,
        // from the eager slice and from the lazy shard layer alike.
        for shard_size in [1usize, 7, 10, 60, 1_000] {
            let source = SiteSource::Slice {
                sites: &sites,
                shard_size,
            };
            let (sharded, _) =
                crawl_machine(&config, &runtime, ClientKind::OpenWpm, &source, &Plain);
            assert_eq!(sharded, baseline.sites, "shard_size {shard_size}");

            let shards = PopulationShards::with_shard_size(&config.population, shard_size);
            let lazy =
                run_machine_shard_summaries(&config, &shards, ClientKind::OpenWpm, &|_, rows| rows);
            assert_eq!(
                lazy.concat(),
                baseline.sites,
                "lazy shard_size {shard_size}"
            );
            // Laziness held: never more shards live than workers.
            assert!(shards.peak_resident_shards() <= config.instances.max(1));
            assert!(shards.peak_resident_shards() >= 1);
            assert_eq!(shards.resident_shards(), 0);
        }
    }

    #[test]
    fn persistent_shard_summaries_journal_every_shard_and_replay_after_a_crash() {
        let config = small_config();
        let shards = PopulationShards::with_shard_size(&config.population, 9);
        let summarise = |k: usize, results: Vec<SiteResult>| {
            let successes: usize = results.iter().map(SiteResult::successful_visits).sum();
            (k, successes)
        };
        let to_json = |(k, successes): &(usize, usize)| {
            format!("{{\"shard\": {k}, \"successes\": {successes}}}")
        };

        let in_memory =
            run_machine_shard_summaries(&config, &shards, ClientKind::OpenWpm, &summarise);
        let path = crate::sink::scratch_path("campaign");
        let sink = crate::sink::ShardSummarySink::create(&path).unwrap();
        let persisted = run_machine_shard_summaries_persistent(
            &config,
            &shards,
            ClientKind::OpenWpm,
            &summarise,
            &to_json,
            &sink,
        )
        .unwrap();
        assert_eq!(persisted, in_memory, "the journal must not change results");

        // Every shard is durably on disk, replayable in shard order with
        // the exact rendered payloads.
        let records = crate::sink::ShardSummarySink::replay(&path).unwrap();
        assert_eq!(records.len(), shards.n_shards());
        for (record, summary) in records.iter().zip(&in_memory) {
            assert_eq!(record.shard, summary.0);
            assert_eq!(record.summary, to_json(summary));
        }

        // Crash replay: a torn trailing append does not poison the
        // durable prefix.
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(b"{\"shard\": 999, \"su")
            .unwrap();
        let after_crash = crate::sink::ShardSummarySink::replay(&path).unwrap();
        assert_eq!(after_crash, records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shard_summaries_stream_in_shard_order_with_identical_contents() {
        let config = small_config();
        let shards = PopulationShards::with_shard_size(&config.population, 9);
        let baseline = run_machine(
            &config,
            &generate_population(&config.population),
            ClientKind::OpenWpmSpoofed,
        );
        let summaries = run_machine_shard_summaries(
            &config,
            &shards,
            ClientKind::OpenWpmSpoofed,
            &|k, results| {
                let successes: usize = results.iter().map(SiteResult::successful_visits).sum();
                (k, results.len(), successes)
            },
        );
        assert_eq!(summaries.len(), shards.n_shards());
        for (pos, (k, len, successes)) in summaries.iter().enumerate() {
            assert_eq!(pos, *k, "summaries must arrive in shard order");
            let range = shards.shard_range(*k);
            assert_eq!(*len, range.len());
            let expect: usize = baseline.sites[range]
                .iter()
                .map(SiteResult::successful_visits)
                .sum();
            assert_eq!(*successes, expect, "shard {k} summary diverged");
        }
    }

    #[test]
    fn openwpm_gets_detected_more_than_spoofed() {
        let c = run_campaign(&small_config());
        let detections = |run: &MachineRun| -> usize {
            run.sites
                .iter()
                .flat_map(|s| &s.outcomes)
                .filter(|o| o.detected)
                .count()
        };
        let d1 = detections(&c.openwpm);
        let d2 = detections(&c.spoofed);
        assert!(d1 > d2 * 2, "openwpm {d1} vs spoofed {d2}");
        assert!(d1 > 0);
    }
}
