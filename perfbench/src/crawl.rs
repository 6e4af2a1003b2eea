//! The crawl workloads (`crawl_100k`, `planned_crawl`) and the shard
//! replay shared with `instrument_faults`.
//!
//! The timed op is one shard of the engine's own
//! `run_machine_shard_summaries`, timed from its summarise closure. The
//! replay re-runs the same visits through the public layer calls in the
//! engine's order (`fork_visit`, `simulate_visit_attempt`, the `"plan"`
//! fork plus `VisitPlanner::plan_site_visit`, `apply_scenario_drive_with`)
//! with spans around each call; its shard digests must equal the
//! engine's, so the replay cannot drift from the program it attributes.

use crate::digest::{self, check_shards, Ledger, ShardSummary};
use crate::report::Metrics;
use crate::stats::median;
use crate::trace::{Layer, LayerTotals, Tracer, NO_PARENT};
use crate::{cpu, keep_measuring, Opts, Rates, SetupSampler, SetupTimes, WorkloadRun, WORKERS};
use hlisa_crawler::scenario::apply_scenario_drive_with;
use hlisa_crawler::{run_machine_planned, run_machine_shard_summaries};
use hlisa_crawler::{CampaignConfig, ScenarioScratch, SiteResult};
use hlisa_human::{HumanParams, VisitPlanner};
use hlisa_sim::SimContext;
use hlisa_stats::rngutil::derive_seed;
use hlisa_web::visit::{site_content_hash, DetectorRuntime};
use hlisa_web::{
    generate_population, simulate_visit_attempt, ClientKind, PopulationConfig, PopulationShards,
    ScenarioMix, Site, VisitTimeline, DEFAULT_VISIT_DEADLINE_MS,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The paper's two machines, in campaign order.
pub const CLIENTS: [ClientKind; 2] = [ClientKind::OpenWpm, ClientKind::OpenWpmSpoofed];

/// One crawl workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct CrawlSpec {
    /// Workload name (also the seed-derivation label).
    pub name: &'static str,
    /// Sites in the population.
    pub n_sites: usize,
    /// Visits per site per machine.
    pub visits_per_site: usize,
    /// Sites per shard: the unit of one timed op.
    pub shard_size: usize,
    /// The engine's worker threads (`CampaignConfig::instances`).
    pub workers: usize,
    /// Whether the engine plans interactions for successful visits.
    pub plan: bool,
    /// Sites of each `ScenarioMix` kind per 100 sites.
    pub scenario_sites_per_100: usize,
}

/// 100K lazily sharded sites, planner off, no scenarios: the visit core
/// and the shard engine do nearly all the work.
pub const CRAWL_100K: CrawlSpec = CrawlSpec {
    name: "crawl_100k",
    n_sites: 100_000,
    visits_per_site: 1,
    shard_size: 2_000,
    workers: WORKERS,
    plan: false,
    scenario_sites_per_100: 0,
};

/// 20K sites with the interaction planner on and 1% of sites of each
/// scenario kind: planning and scenario drives dominate.
pub const PLANNED_CRAWL: CrawlSpec = CrawlSpec {
    name: "planned_crawl",
    n_sites: 20_000,
    visits_per_site: 1,
    shard_size: 250,
    workers: WORKERS,
    plan: true,
    scenario_sites_per_100: 1,
};

/// Scales a paper (per-1,000-site) count to `n_sites`.
fn per_mille(count: usize, n_sites: usize) -> usize {
    count * n_sites / 1_000
}

/// The paper's population mix at `n_sites` sites: every role count keeps
/// its per-1,000 share, so each size keeps the paper's visit mix.
pub fn population(seed: u64, n_sites: usize, scenario_sites_per_100: usize) -> PopulationConfig {
    let paper = PopulationConfig::default();
    let s = |c: usize| per_mille(c, n_sites);
    let (wb, wc, wn, wv) = paper.webdriver_visible;
    let (tb, tn, tl) = paper.template_visible;
    let (h403, h503) = paper.silent_http;
    let scenario = scenario_sites_per_100 * n_sites / 100;
    PopulationConfig {
        seed,
        n_sites,
        unreachable_sites: s(paper.unreachable_sites),
        webdriver_visible: (s(wb), s(wc), s(wn), s(wv)),
        template_visible: (s(tb), s(tn), s(tl)),
        silent_http: (s(h403), s(h503)),
        breakage_sites: s(paper.breakage_sites),
        mean_flakiness: paper.mean_flakiness,
        scenarios: ScenarioMix {
            cookie_banner: scenario,
            lazy_content: scenario,
            spa_mutation: scenario,
        },
    }
}

/// The campaign config for `spec`, every seed derived from `seed`.
pub fn campaign(spec: &CrawlSpec, seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed: derive_seed(seed, spec.name, 1),
        population: population(
            derive_seed(seed, spec.name, 0),
            spec.n_sites,
            spec.scenario_sites_per_100,
        ),
        visits_per_site: spec.visits_per_site,
        instances: spec.workers,
        world_cache: true,
        plan_interactions: spec.plan,
    }
}

/// The machine context every visit fork derives from — the engine's
/// contract: `SimContext::new(seed).fork("m1" | "m2", 0)`. A mismatch
/// shows up as a digest failure.
fn machine_context(config: &CampaignConfig, client: ClientKind) -> SimContext {
    let label = match client {
        ClientKind::OpenWpm => "m1",
        ClientKind::OpenWpmSpoofed => "m2",
    };
    SimContext::new(config.seed).fork(label, 0)
}

/// Per-worker reusable state for the replay, as the engine keeps one per
/// worker thread.
pub struct VisitScratch {
    params: HumanParams,
    planner: VisitPlanner,
    scenario: ScenarioScratch,
}

impl VisitScratch {
    fn new() -> Self {
        Self {
            params: HumanParams::paper_baseline(),
            planner: VisitPlanner::new(),
            scenario: ScenarioScratch::new(),
        }
    }
}

/// The one-time set-up the engine consumes before its first op: the
/// campaign config and the lazy shard layer (the skeleton pass over every
/// site plus the role deal). The engine builds its detector runtime and
/// worker arenas itself on every machine run, inside
/// `run_machine_shard_summaries`, so their cost lands in the first shard
/// ops; the public API offers no way to build them ahead.
pub fn setup(spec: &CrawlSpec, seed: u64) -> ((CampaignConfig, PopulationShards), SetupTimes) {
    let t0 = Instant::now();
    let config = campaign(spec, seed);
    let shards = PopulationShards::with_shard_size(&config.population, spec.shard_size);
    let total = t0.elapsed();
    let times = SetupTimes {
        total_s: total.as_secs_f64(),
        shards_ms: ms(total),
        ..SetupTimes::default()
    };
    ((config, shards), times)
}

/// What the replay runs on: the shard layer the engine ran, one detector
/// runtime, and one planner/scenario scratch per replay worker. Built
/// after the timed ops and untimed: only the replay uses it.
pub struct Stage {
    /// The lazily sharded population.
    pub shards: PopulationShards,
    /// The shared detector runtime.
    pub runtime: DetectorRuntime,
    /// One scratch per replay worker.
    pub workers: Vec<VisitScratch>,
}

impl Stage {
    /// The replay's stage over `shards`.
    pub fn new(shards: PopulationShards) -> Self {
        Self {
            shards,
            runtime: DetectorRuntime::new(),
            workers: (0..WORKERS).map(|_| VisitScratch::new()).collect(),
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

thread_local! {
    /// When this worker thread last finished an op.
    static LAST_OP_END: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Wall time since this thread's previous op ended, or since `run_start`
/// for its first op: the engine spawns fresh workers per machine run, so
/// a worker's first op also carries its start-up and the engine's runtime
/// construction. Called at the end of the summarise closure, it times one
/// shard — materialisation, visits and fold — on the engine's worker.
fn op_wall(run_start: Instant) -> Duration {
    let now = Instant::now();
    now - LAST_OP_END
        .with(|c| c.replace(Some(now)))
        .unwrap_or(run_start)
}

/// One engine pass over one machine: shard summaries in shard order and
/// the per-shard op times (ms).
fn engine_machine(
    config: &CampaignConfig,
    shards: &PopulationShards,
    client: ClientKind,
) -> (Vec<ShardSummary>, Vec<f64>) {
    let run_start = Instant::now();
    let out =
        run_machine_shard_summaries(config, shards, client, &|k, results: Vec<SiteResult>| {
            let summary = digest::fold(k, &results);
            (summary, op_wall(run_start))
        });
    out.into_iter().map(|(s, d)| (s, ms(d))).unzip()
}

/// Totals the replay counts while it visits.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayTotals {
    /// Visits made.
    pub visits: u64,
    /// Successful visits.
    pub successes: u64,
    /// Trajectory samples planned.
    pub samples: u64,
    /// Key strokes planned.
    pub keys: u64,
    /// Wheel ticks planned.
    pub ticks: u64,
    /// Scenario drive calls.
    pub drives: u64,
}

impl ReplayTotals {
    fn absorb(&mut self, o: &ReplayTotals) {
        self.visits += o.visits;
        self.successes += o.successes;
        self.samples += o.samples;
        self.keys += o.keys;
        self.ticks += o.ticks;
        self.drives += o.drives;
    }
}

/// Every visit of one site, through the public layer calls in the
/// engine's order.
#[allow(clippy::too_many_arguments)]
fn replay_site(
    config: &CampaignConfig,
    site: &Site,
    client: ClientKind,
    runtime: &DetectorRuntime,
    machine_ctx: &SimContext,
    scratch: &mut VisitScratch,
    tr: &mut Tracer,
    op: u32,
    totals: &mut ReplayTotals,
) -> SiteResult {
    let mut outcomes = Vec::with_capacity(config.visits_per_site);
    for v in 0..config.visits_per_site {
        let span = tr.open(Layer::WebVisit, op);
        let mut ctx = machine_ctx.fork_visit(&site.domain, v as u64);
        let mut outcome = simulate_visit_attempt(
            site,
            client,
            runtime,
            &mut ctx,
            None,
            DEFAULT_VISIT_DEADLINE_MS,
        )
        .unwrap_or_else(|e| e.to_outcome());
        tr.close(span);
        totals.visits += 1;
        totals.successes += u64::from(outcome.successful);
        if config.plan_interactions && outcome.successful {
            let span = tr.open(Layer::HumanPlan, op);
            let steps = VisitTimeline::for_site(site).steps_planned as usize;
            let mut plan_ctx = ctx.fork("plan", 0);
            let plan = scratch.planner.plan_site_visit(
                &scratch.params,
                &mut plan_ctx,
                site_content_hash(site),
                steps,
            );
            let counts = (plan.samples().len(), plan.keys().len(), plan.ticks().len());
            tr.close(span);
            totals.samples += counts.0 as u64;
            totals.keys += counts.1 as u64;
            totals.ticks += counts.2 as u64;
        }
        if let Some(kind) = site.scenario {
            let span = tr.open(Layer::CrawlerScenario, op);
            apply_scenario_drive_with(
                config.seed,
                site,
                kind,
                client,
                &mut outcome,
                &mut ctx,
                &mut scratch.scenario,
            );
            tr.close(span);
            totals.drives += 1;
        }
        outcomes.push(outcome);
    }
    SiteResult {
        domain: site.domain.clone(),
        rank: site.rank,
        outcomes,
    }
}

/// One replay of one machine: one thread per stage scratch claims shards off one
/// cursor, as the engine's workers do. Returns the shard summaries in
/// shard order, one tracer per worker and the summed totals.
pub fn replay_machine(
    config: &CampaignConfig,
    stage: &mut Stage,
    client: ClientKind,
    epoch: Instant,
    traced: bool,
) -> (Vec<ShardSummary>, Vec<Tracer>, ReplayTotals) {
    let shards = &stage.shards;
    let runtime = &stage.runtime;
    let n_shards = shards.n_shards();
    let slots: Vec<OnceLock<ShardSummary>> = (0..n_shards).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    let machine_ctx = machine_context(config, client);

    let per_worker: Vec<(Tracer, ReplayTotals)> = std::thread::scope(|scope| {
        let handles: Vec<_> = stage
            .workers
            .iter_mut()
            .map(|scratch| {
                let (slots, cursor, machine_ctx) = (&slots, &cursor, &machine_ctx);
                scope.spawn(move || {
                    let mut tr = Tracer::new(epoch, traced);
                    let mut totals = ReplayTotals::default();
                    loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= n_shards {
                            break;
                        }
                        let op = tr.open(Layer::OpShard, NO_PARENT);
                        let gen = tr.open(Layer::WebShards, op);
                        let summary = shards.with_shard(k, |_, sites| {
                            tr.close(gen);
                            let results: Vec<SiteResult> = sites
                                .iter()
                                .map(|site| {
                                    replay_site(
                                        config,
                                        site,
                                        client,
                                        runtime,
                                        machine_ctx,
                                        scratch,
                                        &mut tr,
                                        op,
                                        &mut totals,
                                    )
                                })
                                .collect();
                            tr.span(Layer::CrawlerFold, op, || digest::fold(k, &results))
                        });
                        tr.close(op);
                        let _ = slots[k].set(summary);
                    }
                    (tr, totals)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });

    let summaries = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap_or_default())
        .collect();
    let mut totals = ReplayTotals::default();
    let mut tracers = Vec::with_capacity(per_worker.len());
    for (tr, t) in per_worker {
        totals.absorb(&t);
        tracers.push(tr);
    }
    (summaries, tracers, totals)
}

/// A replay of both machines.
pub struct ReplayPass {
    /// Shard summaries per machine (campaign order).
    pub summaries: Vec<Vec<ShardSummary>>,
    /// Tracers of both machines' workers.
    pub tracers: Vec<Tracer>,
    /// Totals over both machines.
    pub totals: ReplayTotals,
    /// Wall time of the pass.
    pub wall: Duration,
    /// Process CPU time over the replay worker count.
    pub cpu: Duration,
}

/// Replays both machines.
pub fn replay_pass(
    config: &CampaignConfig,
    stage: &mut Stage,
    epoch: Instant,
    traced: bool,
) -> ReplayPass {
    let (t0, c0) = (Instant::now(), cpu::process());
    let mut pass = ReplayPass {
        summaries: Vec::new(),
        tracers: Vec::new(),
        totals: ReplayTotals::default(),
        wall: Duration::ZERO,
        cpu: Duration::ZERO,
    };
    for client in CLIENTS {
        let (s, tr, t) = replay_machine(config, stage, client, epoch, traced);
        pass.summaries.push(s);
        pass.tracers.extend(tr);
        pass.totals.absorb(&t);
    }
    pass.wall = t0.elapsed();
    pass.cpu = (cpu::process() - c0) / stage.workers.len() as u32;
    pass
}

/// Replay passes folded as they finish, so memory holds one pass's spans.
#[derive(Default)]
pub struct TracedPasses {
    /// Passes folded.
    pub passes: usize,
    /// Layer totals over every pass.
    pub layers: LayerTotals,
    /// Replay totals over every pass.
    pub totals: ReplayTotals,
    /// The last pass's totals.
    pub last_totals: ReplayTotals,
    /// Visits per second of each traced pass.
    pub rates: Rates,
    /// Visits per second of each untraced replay pass run beside them:
    /// the same code path, so the base of the tracing overhead.
    pub base_rates: Rates,
    /// Replay worker time over every pass (wall x workers), ns.
    pub worker_ns: f64,
    /// The last pass's tracers, written out at the end.
    pub last_tracers: Vec<Tracer>,
    /// Untraced passes recorded as bases.
    pub base_passes: usize,
    /// Passes (traced or not) that did not reproduce the reference.
    pub mismatched: usize,
}

impl TracedPasses {
    /// Folds one pass in, counting it as mismatched unless it reproduces
    /// `reference` shard for shard.
    pub fn absorb(&mut self, pass: ReplayPass, reference: &[Vec<ShardSummary>]) {
        self.mismatched += usize::from(pass.summaries != reference);
        self.passes += 1;
        for tr in &pass.tracers {
            self.layers.absorb(tr);
        }
        self.totals.absorb(&pass.totals);
        self.last_totals = pass.totals;
        self.rates.push(pass.totals.visits, pass.cpu, pass.wall);
        self.worker_ns += pass.wall.as_nanos() as f64 * WORKERS as f64;
        self.last_tracers = pass.tracers;
    }

    /// Records one untraced pass as a base of the tracing overhead,
    /// counting it as mismatched unless it reproduces `reference`.
    pub fn absorb_base(&mut self, pass: ReplayPass, reference: &[Vec<ShardSummary>]) {
        self.mismatched += usize::from(pass.summaries != reference);
        self.base_passes += 1;
        self.base_rates
            .push(pass.totals.visits, pass.cpu, pass.wall);
    }

    /// The run-level check that every pass matched.
    pub fn check(&self, ledger: &mut Ledger) {
        ledger.check(
            format!(
                "all {} traced and {} untraced replay passes reproduce the reference digests",
                self.passes, self.base_passes
            ),
            self.mismatched == 0,
        );
    }
}

/// Blocked-site totals per machine from shard summaries.
pub fn blocked_sites(summaries: &[Vec<ShardSummary>]) -> Vec<u64> {
    summaries
        .iter()
        .map(|m| m.iter().map(|s| s.blocked_sites).sum())
        .collect()
}

/// Layer metrics common to every traced replay: group calls, self time
/// and share per pass, plus the visit-core, plan, scenario and fold
/// figures.
pub fn replay_layer_metrics(
    m: &mut Metrics,
    layers: &LayerTotals,
    totals: &ReplayTotals,
    passes: f64,
) {
    let per = |x: u64| x as f64 / passes;
    let per_call = |layer: Layer, scale: f64| {
        let calls = layers.calls_of(layer);
        if calls == 0 {
            0.0
        } else {
            layers.self_ns_of(layer) as f64 / calls as f64 / scale
        }
    };
    m.set("web.shards.gen_us", per_call(Layer::WebShards, 1e3));
    m.set("web.visit.ns_per_visit", per_call(Layer::WebVisit, 1.0));
    m.set("web.visit.visits", per(totals.visits));
    m.set(
        "web.visit.success_ratio",
        totals.successes as f64 / totals.visits.max(1) as f64,
    );
    m.set("human.plan.ns_per_visit", per_call(Layer::HumanPlan, 1.0));
    m.set(
        "human.plan.ns_per_sample",
        layers.self_ns_of(Layer::HumanPlan) as f64 / totals.samples.max(1) as f64,
    );
    m.set("human.plan.samples", per(totals.samples));
    m.set("human.plan.keys", per(totals.keys));
    m.set("human.plan.ticks", per(totals.ticks));
    m.set(
        "crawler.scenario.us_per_drive",
        per_call(Layer::CrawlerScenario, 1e3),
    );
    m.set("crawler.scenario.drives", per(totals.drives));
    m.set(
        "crawler.campaign.fold_ns_per_shard",
        per_call(Layer::CrawlerFold, 1.0),
    );
}

/// Runs a crawl workload.
pub fn run(spec: &CrawlSpec, opts: &Opts) -> Result<WorkloadRun, String> {
    let mut sampler = SetupSampler::new(|| setup(spec, opts.seed));
    let (config, shards) = sampler.initial();
    let mut ledger = Ledger::default();

    // Untraced: the engine, timed per shard op and per rep.
    let budget = opts.untraced_budget();
    let mut timed = Duration::ZERO;
    let mut reps: Vec<Vec<Vec<ShardSummary>>> = Vec::new();
    let mut op_ms: Vec<Vec<f64>> = Vec::new();
    let mut n_ops = 0;
    let mut rates = Rates::default();
    let mut rep_walls = Vec::new();
    while keep_measuring(timed, budget, n_ops) {
        let (t0, c0) = (Instant::now(), cpu::process());
        let mut rep = Vec::with_capacity(CLIENTS.len());
        let mut rep_ops = Vec::new();
        for client in CLIENTS {
            let (summaries, ops) = engine_machine(&config, &shards, client);
            rep_ops.extend(ops);
            rep.push(summaries);
        }
        n_ops += rep_ops.len();
        op_ms.push(rep_ops);
        let (wall, rep_cpu) = (t0.elapsed(), cpu::process() - c0);
        timed += wall;
        let visits: u64 = rep.iter().flatten().map(|s| s.visits).sum();
        rates.push(visits, rep_cpu / spec.workers as u32, wall);
        rep_walls.push(wall);
        reps.push(rep);
        sampler.between_reps(timed);
    }
    let setup = sampler.finish();
    let peak_rss = crate::report::peak_rss_mib();

    // The replay: one untraced pass gives the reference digests. A traced
    // run then alternates untraced and traced passes for its budget: the
    // traced ones fold into the layer totals (only the last pass's spans
    // are kept), the untraced ones are the base of the tracing overhead.
    let mut stage = Stage::new(shards);
    let epoch = Instant::now();
    let reference = replay_pass(&config, &mut stage, epoch, false).summaries;
    let mut traced = TracedPasses::default();
    if opts.trace {
        let start = Instant::now();
        while traced.passes == 0 || start.elapsed() < opts.traced_budget() {
            traced.absorb_base(replay_pass(&config, &mut stage, epoch, false), &reference);
            traced.absorb(replay_pass(&config, &mut stage, epoch, true), &reference);
        }
        traced.check(&mut ledger);
    }

    for rep in &reps {
        for (machine, want) in rep.iter().zip(&reference) {
            check_shards(&mut ledger, want, machine);
        }
    }
    let blocked = blocked_sites(&reference);
    ledger.check(
        format!(
            "spoofed machine blocked on fewer sites than stock ({} < {})",
            blocked[1], blocked[0]
        ),
        blocked[1] < blocked[0],
    );
    ledger.check(
        "shard layer kept at most one shard per worker resident",
        stage.shards.peak_resident_shards() <= WORKERS,
    );

    let mut run = WorkloadRun::new(ledger, setup, "visits");
    run.facts.push(("workers", spec.workers.to_string()));
    run.facts.push(("shard_size", spec.shard_size.to_string()));
    run.facts.push(("sites", spec.n_sites.to_string()));
    run.facts.push(("reps", reps.len().to_string()));
    run.facts.push((
        "outcome_digest",
        format!("\"{:016x}\"", digest::combine(&reference.concat())),
    ));
    run.end_to_end(&rates, &op_ms, peak_rss);

    if opts.trace {
        if spec.plan {
            // The replay's plan counts must be the engine's own PlanStats.
            let sites = generate_population(&config.population);
            let mut engine = (0u64, 0u64, 0u64);
            for client in CLIENTS {
                let (_, stats) = run_machine_planned(&config, &sites, client);
                engine.0 += stats.samples;
                engine.1 += stats.keys;
                engine.2 += stats.ticks;
            }
            let t = traced.last_totals;
            run.ledger.check(
                "replayed plan totals equal the engine's PlanStats",
                (t.samples, t.keys, t.ticks) == engine,
            );
        }
        let n = traced.passes as f64;
        let m = &mut run.metrics;
        crate::group_metrics(m, &traced.layers, n, traced.worker_ns);
        replay_layer_metrics(m, &traced.layers, &traced.totals, n);
        m.set(
            "web.shards.peak_resident",
            stage.shards.peak_resident_shards() as f64,
        );
        m.set(
            "web.shards.bookkeeping_bytes",
            stage.shards.bookkeeping_bytes() as f64,
        );
        let untraced_worker_ms =
            median(&rep_walls.iter().map(|d| ms(*d)).collect::<Vec<_>>()) * spec.workers as f64;
        let layer_ms = traced.layers.attributed_ns() as f64 / n / 1e6;
        m.set("crawler.campaign.untraced_worker_ms", untraced_worker_ms);
        m.set("crawler.campaign.layer_ms", layer_ms);
        m.set(
            "crawler.campaign.unattributed_share",
            1.0 - layer_ms / untraced_worker_ms,
        );
        crate::trace_overhead(m, traced.rates.wall(), traced.base_rates.wall());
        run.facts
            .push(("engine_work_per_s", crate::report::num(rates.wall())));
        run.write_spans(spec.name, &traced.last_tracers)?;
    }
    Ok(run)
}
