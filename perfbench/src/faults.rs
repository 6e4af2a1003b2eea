//! `instrument_faults`: the reliability study and the chaos campaign at
//! paper scale. One op is one rep: `run_reliability_study` under a 20%
//! loss plan plus `run_chaos_campaign` at a 5% fault rate.
//!
//! Capture loss, injected faults, retries and naive-capture drift are
//! results here, not failures. A rep fails only when its outputs break an
//! invariant: pristine capture must equal the ground-truth replay,
//! strengthened capture must equal pristine with zero drift, and every rep
//! must reproduce the first one.

use crate::crawl::{self, blocked_sites, CrawlSpec, TracedPasses};
use crate::digest::{self, Digest, Ledger, ShardSummary};
use crate::report::Metrics;
use crate::trace::{Layer, LayerTotals, Tracer, NO_PARENT};
use crate::{cpu, keep_measuring, Opts, Rates, SetupSampler, SetupTimes, WorkloadRun};
use hlisa_crawler::{
    drift_report, run_captured_campaign, run_chaos_campaign, run_reliability_study, Campaign,
    CampaignConfig, CaptureMode, ChaosCampaign, ChaosConfig, ReliabilityStudy,
};
use hlisa_sim::LossPlan;
use hlisa_web::{generate_population, PopulationShards, DEFAULT_SHARD_SIZE};
use std::time::{Duration, Instant};

/// Paper scale: 1,000 sites, 8 visits per site per machine.
pub const SPEC: CrawlSpec = CrawlSpec {
    name: "instrument_faults",
    n_sites: 1_000,
    visits_per_site: 8,
    shard_size: DEFAULT_SHARD_SIZE,
    // One engine worker: the study's campaigns run 1,000 sites in four
    // default-size shards, too few to balance across two threads, so with
    // two a single preempted core stalls every join and reps swing by 2x.
    workers: 1,
    plan: false,
    scenario_sites_per_100: 0,
};

/// Per-visit capture-loss rate of the reliability study.
const LOSS_RATE: f64 = 0.2;
/// Per-visit fault rate of the chaos campaign.
const CHAOS_RATE: f64 = 0.05;

/// A campaign's machines folded in replay-sized shards, so they compare
/// shard for shard with the ground-truth replay.
fn campaign_shards(c: &Campaign) -> Vec<Vec<ShardSummary>> {
    [&c.openwpm, &c.spoofed]
        .iter()
        .map(|m| {
            m.sites
                .chunks(SPEC.shard_size)
                .enumerate()
                .map(|(k, sites)| digest::fold(k, sites))
                .collect()
        })
        .collect()
}

fn campaign_digest(c: &Campaign) -> u64 {
    digest::combine(&campaign_shards(c).concat())
}

/// Digest of a chaos campaign: outcomes, per-visit recovery and counters.
fn chaos_digest(c: &ChaosCampaign) -> u64 {
    let mut h = Digest::default();
    h.u64(campaign_digest(&c.campaign));
    for m in [&c.openwpm_recovery, &c.spoofed_recovery] {
        for s in &m.sites {
            h.bytes(s.domain.as_bytes());
            h.u64(u64::from(s.breaker_open));
            for v in &s.visits {
                h.u64(u64::from(v.attempts));
                h.u64(v.faults.len() as u64);
                h.u64(v.backoff_ms.to_bits());
                h.u64(u64::from(v.skipped_by_breaker));
            }
        }
    }
    for (name, n) in c.counters().entries() {
        h.bytes(name.as_bytes());
        h.u64(*n);
    }
    h.finish()
}

/// The generated inputs of one rep.
struct Inputs {
    config: CampaignConfig,
    loss: LossPlan,
    chaos: ChaosConfig,
}

/// The one-time set-up before the first rep: the generated configs and
/// the population they describe. The study and the chaos campaign take
/// only the configs and generate the population again inside every rep,
/// which is all the set-up the program itself has.
fn setup(seed: u64) -> (Inputs, SetupTimes) {
    let t0 = Instant::now();
    let inputs = Inputs {
        config: crawl::campaign(&SPEC, seed),
        loss: LossPlan::uniform(LOSS_RATE),
        chaos: ChaosConfig::uniform(CHAOS_RATE),
    };
    let population = generate_population(&inputs.config.population);
    let total = t0.elapsed();
    drop(population);
    let times = SetupTimes {
        total_s: total.as_secs_f64(),
        shards_ms: total.as_secs_f64() * 1e3,
        ..SetupTimes::default()
    };
    (inputs, times)
}

/// What one rep produced, reduced to what the checks and metrics need.
struct RepDigest {
    pristine: Vec<Vec<ShardSummary>>,
    strengthened_matches: bool,
    drift_zero: bool,
    naive: u64,
    chaos: u64,
    visits: u64,
}

fn digest_rep(study: &ReliabilityStudy, chaos: &ChaosCampaign) -> RepDigest {
    let visits = [
        &study.pristine.campaign,
        &study.naive.campaign,
        &study.strengthened.campaign,
        &chaos.campaign,
    ]
    .iter()
    .flat_map(|c| [&c.openwpm, &c.spoofed])
    .flat_map(|m| &m.sites)
    .map(|s| s.outcomes.len() as u64)
    .sum();
    RepDigest {
        pristine: campaign_shards(&study.pristine.campaign),
        strengthened_matches: study.strengthened.campaign == study.pristine.campaign,
        drift_zero: study.strengthened_drift.is_zero(),
        naive: campaign_digest(&study.naive.campaign),
        chaos: chaos_digest(chaos),
        visits,
    }
}

/// One untraced rep, its rate recorded in `rates`; returns its digest and
/// wall time.
fn untraced_rep(
    config: &CampaignConfig,
    loss: &LossPlan,
    chaos: &ChaosConfig,
    rates: &mut Rates,
) -> (RepDigest, Duration) {
    let (t0, c0) = (Instant::now(), cpu::process());
    let study = run_reliability_study(config, loss);
    let campaign = run_chaos_campaign(config, chaos);
    let (wall, op_cpu) = (t0.elapsed(), cpu::process() - c0);
    let rep = digest_rep(&study, &campaign);
    // The rep runs on the engine's worker thread while this one waits,
    // so its CPU time is the process's.
    rates.push(rep.visits, op_cpu, wall);
    (rep, wall)
}

/// One traced rep: the study's three captured campaigns and its drift
/// reports as `run_reliability_study` composes them, then the chaos
/// campaign, each inside its own span.
fn traced_rep(
    config: &CampaignConfig,
    loss: &LossPlan,
    chaos: &ChaosConfig,
    tr: &mut Tracer,
) -> (ReliabilityStudy, ChaosCampaign) {
    let op = tr.open(Layer::OpRep, NO_PARENT);
    let pristine = tr.span(Layer::ReliabilityPristine, op, || {
        run_captured_campaign(config, loss, CaptureMode::Pristine)
    });
    let naive = tr.span(Layer::ReliabilityNaive, op, || {
        run_captured_campaign(config, loss, CaptureMode::NaiveLossy)
    });
    let strengthened = tr.span(Layer::ReliabilityStrengthened, op, || {
        run_captured_campaign(config, loss, CaptureMode::Strengthened)
    });
    let (naive_drift, strengthened_drift) = tr.span(Layer::ReliabilityDrift, op, || {
        (
            drift_report(&pristine, &naive),
            drift_report(&pristine, &strengthened),
        )
    });
    let chaos = tr.span(Layer::Chaos, op, || run_chaos_campaign(config, chaos));
    tr.close(op);
    (
        ReliabilityStudy {
            pristine,
            naive,
            strengthened,
            naive_drift,
            strengthened_drift,
        },
        chaos,
    )
}

/// Runs `instrument_faults`.
pub fn run(opts: &Opts) -> Result<WorkloadRun, String> {
    let mut sampler = SetupSampler::new(|| setup(opts.seed));
    let Inputs {
        config,
        loss,
        chaos,
    } = sampler.initial();

    let budget = opts.untraced_budget();
    let mut timed = Duration::ZERO;
    let mut reps = Vec::new();
    let mut op_ms = Vec::new();
    let mut rates = Rates::default();
    while keep_measuring(timed, budget, op_ms.len()) {
        let (rep, wall) = untraced_rep(&config, &loss, &chaos, &mut rates);
        timed += wall;
        op_ms.push(vec![wall.as_secs_f64() * 1e3]);
        reps.push(rep);
        sampler.between_reps(timed);
    }
    let setup = sampler.finish();
    let peak_rss = crate::report::peak_rss_mib();

    // Ground truth: the replay of the plain campaign through the public
    // visit calls (its stage is built untimed: only the replay uses it).
    let shards = PopulationShards::with_shard_size(&config.population, SPEC.shard_size);
    let mut stage = crawl::Stage::new(shards);
    let epoch = Instant::now();
    let mut ledger = Ledger::default();
    let reference = crawl::replay_pass(&config, &mut stage, epoch, false).summaries;
    let mut replays = TracedPasses::default();

    // Traced passes (traced run only): an untraced rep (the base of the
    // tracing overhead, measured beside the traced ones), a traced rep,
    // then a traced replay.
    let mut traced_layers = LayerTotals::default();
    let mut base_rates = Rates::default();
    let mut traced_rates = Rates::default();
    let mut traced_reps = 0usize;
    let mut traced_rep_ns = 0.0;
    let mut last_rep = None;
    let mut last_tracer = None;
    if opts.trace {
        let start = Instant::now();
        while traced_reps == 0 || start.elapsed() < opts.traced_budget() {
            reps.push(untraced_rep(&config, &loss, &chaos, &mut base_rates).0);
            let mut tr = Tracer::new(epoch, true);
            let (t0, c0) = (Instant::now(), cpu::process());
            let (study, campaign) = traced_rep(&config, &loss, &chaos, &mut tr);
            let (wall, op_cpu) = (t0.elapsed(), cpu::process() - c0);
            let rep = digest_rep(&study, &campaign);
            traced_rates.push(rep.visits, op_cpu, wall);
            traced_reps += 1;
            traced_rep_ns += wall.as_nanos() as f64;
            traced_layers.absorb(&tr);
            reps.push(rep);
            last_rep = Some((study, campaign));
            last_tracer = Some(tr);
            let pass = crawl::replay_pass(&config, &mut stage, epoch, true);
            replays.absorb(pass, &reference);
        }
        replays.check(&mut ledger);
    }

    let first_rep = &reps[0];
    for rep in &reps {
        ledger.op(rep.pristine == reference
            && rep.strengthened_matches
            && rep.drift_zero
            && rep.naive == first_rep.naive
            && rep.chaos == first_rep.chaos);
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
        "strengthened capture drift is zero in every rep",
        reps.iter().all(|r| r.drift_zero && r.strengthened_matches),
    );

    let mut run = WorkloadRun::new(ledger, setup, "visits");
    run.facts.push(("workers", SPEC.workers.to_string()));
    run.facts.push(("shard_size", SPEC.shard_size.to_string()));
    run.facts.push(("sites", SPEC.n_sites.to_string()));
    run.facts.push(("reps", reps.len().to_string()));
    run.facts.push((
        "outcome_digest",
        format!("\"{:016x}\"", digest::combine(&reference.concat())),
    ));
    run.end_to_end(&rates, &op_ms, peak_rss);

    if let (Some((study, campaign)), Some(tr)) = (last_rep, last_tracer) {
        let passes = traced_reps as f64;
        let mut layers = replays.layers.clone();
        layers.add(&traced_layers);
        // Shares are of the time the benchmark's span-holding threads ran:
        // the rep thread plus the replay's workers.
        let worker_ns = traced_rep_ns + replays.worker_ns;
        let m = &mut run.metrics;
        crate::group_metrics(m, &layers, passes, worker_ns);
        crawl::replay_layer_metrics(m, &layers, &replays.totals, passes);
        m.set(
            "web.shards.peak_resident",
            stage.shards.peak_resident_shards() as f64,
        );
        m.set(
            "web.shards.bookkeeping_bytes",
            stage.shards.bookkeeping_bytes() as f64,
        );
        study_metrics(m, &traced_layers, &study, &campaign);
        crate::trace_overhead(m, traced_rates.wall(), base_rates.wall());
        let mut tracers = vec![tr];
        tracers.extend(replays.last_tracers);
        run.write_spans(SPEC.name, &tracers)?;
    }
    Ok(run)
}

fn per_call_ms(layers: &LayerTotals, layer: Layer) -> f64 {
    layers.self_ns_of(layer) as f64 / layers.calls_of(layer).max(1) as f64 / 1e6
}

/// The reliability and chaos figures of the traced reps.
fn study_metrics(
    m: &mut Metrics,
    layers: &LayerTotals,
    study: &ReliabilityStudy,
    chaos: &ChaosCampaign,
) {
    let pristine_ms = per_call_ms(layers, Layer::ReliabilityPristine);
    let strengthened_ms = per_call_ms(layers, Layer::ReliabilityStrengthened);
    m.set("crawler.reliability.pristine_ms", pristine_ms);
    m.set(
        "crawler.reliability.naive_ms",
        per_call_ms(layers, Layer::ReliabilityNaive),
    );
    m.set("crawler.reliability.strengthened_ms", strengthened_ms);
    m.set(
        "crawler.reliability.strengthened_overhead",
        strengthened_ms / pristine_ms,
    );
    let count = |c: &hlisa_sim::CounterSet, name: &str| c.get(name).unwrap_or(0) as f64;
    m.set(
        "crawler.reliability.events_offered",
        count(&study.naive.analytics, "loss.offered"),
    );
    m.set(
        "crawler.reliability.events_dropped",
        count(&study.naive.analytics, "loss.dropped"),
    );
    m.set(
        "crawler.reliability.events_replayed",
        count(&study.strengthened.analytics, "capture.replayed"),
    );
    let counters = chaos.counters();
    let attempts: u64 = [&chaos.openwpm_recovery, &chaos.spoofed_recovery]
        .iter()
        .flat_map(|m| &m.sites)
        .map(|s| u64::from(s.total_attempts()))
        .sum();
    let recovered = count(&counters, "retry.recovered");
    let gave_up = count(&counters, "retry.gave_up");
    m.set("crawler.chaos.ms", per_call_ms(layers, Layer::Chaos));
    m.set("crawler.chaos.attempts", attempts as f64);
    m.set(
        "crawler.chaos.faults_injected",
        count(&counters, "fault.injected"),
    );
    m.set("crawler.chaos.retries", count(&counters, "retry.scheduled"));
    m.set(
        "crawler.chaos.recovered_ratio",
        recovered / (recovered + gave_up).max(1.0),
    );
}
