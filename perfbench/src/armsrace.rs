//! `arms_race`: the Fig. 3 simulator x detector tournament rebuilt from
//! its public parts, four tournaments per rep with more sessions per
//! simulator than the default. One op is one session:
//! `Simulator::run_session` plus its four
//! `InteractionDetector::judge_features` calls.
//!
//! Each rep's detection matrices must equal `run_tournament` for the same
//! configs, and every session's verdicts must repeat across reps.

use crate::digest::{Digest, Ledger};
use crate::report::Metrics;
use crate::trace::{Layer, LayerTotals, Tracer, NO_PARENT};
use crate::{cpu, keep_measuring, Opts, Rates, SetupSampler, SetupTimes, WorkloadRun};
use hlisa_armsrace::tournament::pick_identifiable_individual;
use hlisa_armsrace::{run_tournament, MatrixCell, Simulator, TournamentConfig};
use hlisa_detect::interaction::{InteractionVerdict, UserProfile};
use hlisa_detect::reference::run_human_session_with;
use hlisa_detect::{HumanReference, InteractionDetector};
use hlisa_stats::rngutil::derive_seed;
use std::time::{Duration, Instant};

/// Tournaments per run, each with its own seed derived from the
/// benchmark seed. Their enrolled individuals and reference corpora differ,
/// and so does what a session costs to play and judge; a rep plays all of
/// them, so one seed's draw cannot set the figures.
const TOURNAMENTS: u64 = 4;

/// Sessions per simulator and tournament (the default is 8). A rep then
/// holds 448 sessions, enough for a p90 tail of its own, and lasts about
/// half a second, so a run holds a couple of dozen reps with a set-up
/// sample between most of them, and the set-up median sees the same host
/// as the timed ops.
const SESSIONS_PER_AGENT: usize = 16;

/// The tournament configs, their seeds derived from the benchmark seed.
/// The reference and enrolment corpora keep their default sizes: the
/// judges scan the corpus on every call, and with a corpus four times the
/// default they became memory-bound, so their speed followed other
/// tenants' memory traffic on a shared host (about a quarter between runs).
fn tournament_configs(seed: u64) -> Vec<TournamentConfig> {
    (0..TOURNAMENTS)
        .map(|k| TournamentConfig {
            seed: derive_seed(seed, "arms_race", k),
            sessions_per_agent: SESSIONS_PER_AGENT,
            ..TournamentConfig::default()
        })
        .collect()
}

/// The detectors and simulators a tournament plays.
struct Field {
    detectors: [InteractionDetector; 4],
    simulators: Vec<Simulator>,
}

/// Set-up: every tournament's field, its timings summed.
fn fields(configs: &[TournamentConfig]) -> (Vec<Field>, SetupTimes) {
    let mut total = SetupTimes::default();
    let fields = configs
        .iter()
        .map(|c| {
            let (f, t) = field(c);
            total.total_s += t.total_s;
            total.runtime_ms += t.runtime_ms;
            total.reference_ms += t.reference_ms;
            f
        })
        .collect();
    (fields, total)
}

/// One tournament's field: the enrolled individual, the level-2/3
/// reference corpus, the level-4 enrolment and the four detectors, as
/// `run_tournament` builds them.
fn field(config: &TournamentConfig) -> (Field, SetupTimes) {
    let t0 = Instant::now();
    let enrolled = pick_identifiable_individual(config.seed);
    let reference = HumanReference::generate(
        derive_seed(config.seed, "reference", 0),
        config.reference_sessions,
    );
    let mut corpus = HumanReference::default();
    for i in 0..config.enrollment_sessions {
        let f = run_human_session_with(
            enrolled.clone(),
            derive_seed(config.seed, "enroll", i as u64),
        );
        corpus.key_dwell_ms.extend(f.key_dwells_ms);
        corpus.click_dwell_ms.extend(f.click_dwells_ms);
        corpus.click_offset_frac.extend(f.click_offsets_frac);
        corpus.scroll_gap_ms.extend(f.scroll_gaps_ms);
    }
    let profile = UserProfile::enroll(&corpus);
    let t1 = Instant::now();
    let detectors = [
        InteractionDetector::level1(),
        InteractionDetector::level2(reference.clone()),
        InteractionDetector::level3(reference.clone()),
        InteractionDetector::level4(reference, profile),
    ];
    let simulators = vec![
        Simulator::Selenium,
        Simulator::Naive,
        Simulator::Hlisa,
        Simulator::ConsistentHlisa,
        Simulator::ProfileFitted(enrolled.clone()),
        Simulator::Human,
        Simulator::EnrolledHuman(enrolled),
    ];
    let t2 = Instant::now();
    let times = SetupTimes {
        total_s: (t2 - t0).as_secs_f64(),
        shards_ms: 0.0,
        runtime_ms: (t2 - t1).as_secs_f64() * 1e3,
        reference_ms: (t1 - t0).as_secs_f64() * 1e3,
    };
    (
        Field {
            detectors,
            simulators,
        },
        times,
    )
}

/// The span layer a simulator's sessions are timed under.
fn session_layer(sim: &Simulator) -> Layer {
    match sim {
        Simulator::Selenium => Layer::SessionSelenium,
        Simulator::Naive => Layer::SessionNaive,
        Simulator::Hlisa | Simulator::ConsistentHlisa | Simulator::ProfileFitted(_) => {
            Layer::SessionHlisa
        }
        Simulator::Human | Simulator::EnrolledHuman(_) => Layer::SessionHuman,
    }
}

fn verdict_digest(verdicts: &[InteractionVerdict]) -> u64 {
    let mut h = Digest::default();
    for v in verdicts {
        h.u64(u64::from(v.is_bot));
        for s in &v.signals {
            h.bytes(s.name.as_bytes());
            h.bytes(s.detail.as_bytes());
        }
    }
    h.finish()
}

/// One tournament played once: every simulator's sessions, each judged
/// by every detector.
struct Rep {
    cells: Vec<MatrixCell>,
    session_digests: Vec<u64>,
    op_ms: Vec<f64>,
    flagged: u64,
    judged: u64,
}

/// Plays one tournament, timing each session op; `tr` adds spans around
/// the session and each judgement.
fn play(config: &TournamentConfig, field: &Field, tr: &mut Tracer) -> Rep {
    let mut rep = Rep {
        cells: Vec::new(),
        session_digests: Vec::new(),
        op_ms: Vec::new(),
        flagged: 0,
        judged: 0,
    };
    for sim in &field.simulators {
        // Per detector: flagged sessions and signal tallies, tallied the
        // way `run_tournament` tallies them.
        let mut flagged = [0usize; 4];
        let mut signals: [Vec<(String, usize)>; 4] = Default::default();
        for i in 0..config.sessions_per_agent {
            let t0 = Instant::now();
            let op = tr.open(Layer::OpSession, NO_PARENT);
            let features = tr.span(session_layer(sim), op, || {
                sim.run_session(derive_seed(config.seed, sim.label(), i as u64))
            });
            let verdicts: Vec<InteractionVerdict> = field
                .detectors
                .iter()
                .map(|d| tr.span(Layer::DetectJudge, op, || d.judge_features(&features)))
                .collect();
            tr.close(op);
            rep.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);

            rep.session_digests.push(verdict_digest(&verdicts));
            for (d, v) in verdicts.into_iter().enumerate() {
                rep.judged += 1;
                if v.is_bot {
                    rep.flagged += 1;
                    flagged[d] += 1;
                    for s in v.signals {
                        match signals[d].iter_mut().find(|(n, _)| *n == s.name) {
                            Some((_, c)) => *c += 1,
                            None => signals[d].push((s.name.to_string(), 1)),
                        }
                    }
                }
            }
        }
        for (d, det) in field.detectors.iter().enumerate() {
            let counts = &mut signals[d];
            counts.sort_by_key(|c| std::cmp::Reverse(c.1));
            rep.cells.push(MatrixCell {
                simulator: sim.label().to_string(),
                level: det.level(),
                detection_rate: flagged[d] as f64 / config.sessions_per_agent as f64,
                dominant_signal: counts.first().map(|(n, _)| n.clone()),
            });
        }
    }
    rep
}

/// One rep: every tournament played once, the rep's rate recorded in
/// `rates`.
fn play_all(
    configs: &[TournamentConfig],
    fields: &[Field],
    tr: &mut Tracer,
    rates: &mut Rates,
) -> Vec<Rep> {
    let (t0, c0) = (Instant::now(), cpu::process());
    let reps: Vec<Rep> = configs
        .iter()
        .zip(fields)
        .map(|(c, f)| play(c, f, tr))
        .collect();
    let sessions = reps.iter().map(|r| r.session_digests.len() as u64).sum();
    rates.push(sessions, cpu::process() - c0, t0.elapsed());
    reps
}

/// Runs `arms_race`.
pub fn run(opts: &Opts) -> Result<WorkloadRun, String> {
    let configs = tournament_configs(opts.seed);
    let mut sampler = SetupSampler::new(|| fields(&configs));
    let fields = sampler.initial();
    let epoch = Instant::now();

    let budget = opts.untraced_budget();
    let mut timed = Duration::ZERO;
    let mut reps: Vec<Vec<Rep>> = Vec::new();
    let mut n_ops = 0;
    let mut rates = Rates::default();
    let mut untraced = Tracer::new(epoch, false);
    while keep_measuring(timed, budget, n_ops) {
        let t0 = Instant::now();
        let rep = play_all(&configs, &fields, &mut untraced, &mut rates);
        timed += t0.elapsed();
        n_ops += rep.iter().map(|r| r.op_ms.len()).sum::<usize>();
        reps.push(rep);
        sampler.between_reps(timed);
    }
    let setup = sampler.finish();
    let peak_rss = crate::report::peak_rss_mib();
    let op_ms: Vec<Vec<f64>> = reps
        .iter()
        .map(|rep| rep.iter().flat_map(|r| r.op_ms.iter().copied()).collect())
        .collect();

    // Traced run: untraced and traced reps alternate, so the base of the
    // tracing overhead is measured beside the traced reps.
    let mut layers = LayerTotals::default();
    let mut base_rates = Rates::default();
    let mut traced_rates = Rates::default();
    let mut traced_reps = 0usize;
    let mut traced_ns = 0.0;
    let mut traced_verdicts = (0, 0);
    let mut last_tracer = None;
    if opts.trace {
        let start = Instant::now();
        while traced_reps == 0 || start.elapsed() < opts.traced_budget() {
            reps.push(play_all(&configs, &fields, &mut untraced, &mut base_rates));
            let mut tr = Tracer::new(epoch, true);
            let t0 = Instant::now();
            let rep = play_all(&configs, &fields, &mut tr, &mut traced_rates);
            traced_reps += 1;
            traced_ns += t0.elapsed().as_nanos() as f64;
            for r in &rep {
                traced_verdicts.0 += r.flagged;
                traced_verdicts.1 += r.judged;
            }
            layers.absorb(&tr);
            last_tracer = Some(tr);
            reps.push(rep);
        }
    }

    // The reference: the crate's own tournament for each config.
    let expected: Vec<Vec<MatrixCell>> = configs.iter().map(|c| run_tournament(c).cells).collect();
    let matrices_ok = |rep: &[Rep]| rep.iter().zip(&expected).all(|(r, e)| r.cells == *e);
    let mut ledger = Ledger::default();
    let first = &reps[0];
    for rep in &reps {
        let matrix_ok = matrices_ok(rep);
        for (r, f) in rep.iter().zip(first) {
            for (got, want) in r.session_digests.iter().zip(&f.session_digests) {
                ledger.op(matrix_ok && got == want);
            }
        }
    }
    ledger.check(
        format!("every rep's {TOURNAMENTS} detection matrices equal run_tournament"),
        reps.iter().all(|r| matrices_ok(r)),
    );

    let mut run = WorkloadRun::new(ledger, setup, "judged sessions");
    run.facts.push(("workers", "1".to_string()));
    run.facts.push(("tournaments", TOURNAMENTS.to_string()));
    run.facts
        .push(("sessions_per_agent", SESSIONS_PER_AGENT.to_string()));
    run.facts.push(("reps", reps.len().to_string()));
    run.end_to_end(&rates, &op_ms, peak_rss);

    if let Some(tr) = last_tracer {
        let passes = traced_reps as f64;
        let m = &mut run.metrics;
        crate::group_metrics(m, &layers, passes, traced_ns);
        session_metrics(m, &layers, traced_verdicts);
        crate::trace_overhead(m, traced_rates.wall(), base_rates.wall());
        run.write_spans("arms_race", &[tr])?;
    }
    Ok(run)
}

/// The session and judging figures of the traced reps; `verdicts` is
/// their (flagged, judged) count.
fn session_metrics(m: &mut Metrics, layers: &LayerTotals, verdicts: (u64, u64)) {
    let per_call = |layer: Layer, scale: f64| {
        layers.self_ns_of(layer) as f64 / layers.calls_of(layer).max(1) as f64 / scale
    };
    m.set(
        "armsrace.session_ms.selenium",
        per_call(Layer::SessionSelenium, 1e6),
    );
    m.set(
        "armsrace.session_ms.naive",
        per_call(Layer::SessionNaive, 1e6),
    );
    m.set(
        "armsrace.session_ms.hlisa",
        per_call(Layer::SessionHlisa, 1e6),
    );
    m.set(
        "armsrace.session_ms.human",
        per_call(Layer::SessionHuman, 1e6),
    );
    m.set("detect.judge_us", per_call(Layer::DetectJudge, 1e3));
    let (flagged, judged) = verdicts;
    m.set(
        "detect.flagged_ratio",
        flagged as f64 / judged.max(1) as f64,
    );
}
