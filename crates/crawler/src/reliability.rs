//! The reliability study: paired campaigns with pristine, lossy, and
//! strengthened capture — the Krumnow et al. reproduction.
//!
//! Krumnow et al. ("Analysing and strengthening OpenWPM's reliability",
//! PAPERS.md) show that real crawls silently lose data: instrumentation
//! attaches late, observers drop events, and partial captures masquerade
//! as clean records. This module reproduces that study on our own stack
//! in one two-machine pass with the *captured* visit driver over the
//! campaign module's machine pass (see [`crate::campaign`]). Each visit's
//! ground truth is the plain driver's visit, scenario drive included; a
//! `hlisa_sim::LossSchedule` is drawn once afterwards from the visit's
//! `"fault"` stream, the truth is flattened once into capture events
//! (`hlisa_web::capture`), and the same event slice is fed to one to
//! three capture pipelines, one per requested [`CaptureMode`]. The
//! pipelines' observers live as long as their worker and are reset per
//! visit, so their counters are materialised once per worker.
//! [`run_captured_campaign`] is that pass with one mode;
//! [`run_reliability_study`] is the same pass with all three, diffing the
//! resulting Table 2 rows and recorder analytics into a [`DriftReport`]
//! (per-metric relative error and conclusion flips).
//!
//! Invariants pinned by `tests/reliability_loss.rs`:
//!
//! * a **pristine** captured campaign is bit-identical to
//!   [`run_campaign`](crate::campaign::run_campaign) — capture emission
//!   and reconstruction are draw-free and exactly inverse;
//! * a **rate-0** lossy campaign is bit-identical too — a no-op
//!   [`LossPlan`] consumes zero RNG draws;
//! * a **strengthened** campaign (write-ahead capture + attach barrier)
//!   is bit-identical to pristine *for any seed and loss rate*, while
//!   naive-lossy campaigns drift at any positive rate.

use crate::campaign::{
    run_two_machines, Campaign, CampaignConfig, Machine, MachineRun, Plain, SiteResult,
    VisitDriver, VisitWorker,
};
use crate::screenshot::screenshot_table;
use hlisa_sim::{CounterSet, LossPlan, LossSchedule, LossyObserver, Observer, WriteAheadObserver};
use hlisa_web::{
    emit_capture_events, CaptureEvent, CaptureRecorder, ClientKind, Site, VisitOutcome,
    DEFAULT_VISIT_DEADLINE_MS,
};

/// How a campaign's capture pipeline handles the loss plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureMode {
    /// Perfect instrumentation: every emitted event is recorded. The
    /// reference the other modes are diffed against.
    Pristine,
    /// The naive pipeline: the observer channel silently loses whatever
    /// the per-visit [`LossSchedule`] says — late attach, dropout
    /// windows, partial capture — and the record looks clean anyway.
    NaiveLossy,
    /// The strengthened pipeline: write-ahead event capture (events
    /// buffered at emission, upstream of the lossy channel) plus an
    /// attach barrier (buffered events replayed into the observer when
    /// instrumentation acks). Provably recovers the pristine record.
    Strengthened,
}

impl CaptureMode {
    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CaptureMode::Pristine => "pristine",
            CaptureMode::NaiveLossy => "naive_lossy",
            CaptureMode::Strengthened => "strengthened",
        }
    }
}

/// A campaign as its instrument recorded it, plus the capture pipeline's
/// own telemetry (`loss.*` / `capture.*` / `recorder.*` counters, merged
/// over every visit of both machines, in canonical sorted order).
#[derive(Debug, Clone, PartialEq)]
pub struct CapturedCampaign {
    /// The mode the pipeline ran in.
    pub mode: CaptureMode,
    /// The campaign as recorded — ground truth only under
    /// [`CaptureMode::Pristine`] (or a no-op plan).
    pub campaign: Campaign,
    /// Merged capture-pipeline counters.
    pub analytics: CounterSet,
}

/// One worker's capture pipeline for one [`CaptureMode`]. The observers
/// live as long as the worker: each visit resets their per-visit state
/// and keeps their plain tallies, so the pipeline's counters are
/// materialised once per worker instead of once per visit.
enum Pipeline {
    Pristine(CaptureRecorder),
    NaiveLossy(LossyObserver<CaptureRecorder>),
    Strengthened(WriteAheadObserver<CaptureEvent, CaptureRecorder>),
}

impl Pipeline {
    fn new(mode: CaptureMode) -> Self {
        match mode {
            CaptureMode::Pristine => Pipeline::Pristine(CaptureRecorder::new()),
            CaptureMode::NaiveLossy => Pipeline::NaiveLossy(LossyObserver::new(
                CaptureRecorder::new(),
                LossSchedule::pristine(),
                DEFAULT_VISIT_DEADLINE_MS,
            )),
            CaptureMode::Strengthened => {
                Pipeline::Strengthened(WriteAheadObserver::detached(CaptureRecorder::new()))
            }
        }
    }

    /// One visit's trip through the pipeline: its emitted `events` in,
    /// the recorded outcome out, the observers left ready for the next
    /// visit.
    fn record(&mut self, events: &[(f64, CaptureEvent)], schedule: LossSchedule) -> VisitOutcome {
        match self {
            Pipeline::Pristine(recorder) => {
                for (t, e) in events {
                    recorder.on_event(*t, e);
                }
                recorder.take_outcome()
            }
            Pipeline::NaiveLossy(lossy) => {
                lossy.reset(schedule);
                for (t, e) in events {
                    lossy.on_event(*t, e);
                }
                lossy.inner_mut().take_outcome()
            }
            Pipeline::Strengthened(wal) => {
                // Write-ahead capture sits at the emission site, upstream
                // of the lossy channel, so dropout and partial capture
                // cannot touch what it buffers. The attach barrier acks
                // at the first event on or after the schedule's attach
                // point; everything emitted before that replays from the
                // buffer.
                let attach_at_ms = schedule.attach_at * DEFAULT_VISIT_DEADLINE_MS;
                let split = events
                    .iter()
                    .position(|(t, _)| *t >= attach_at_ms)
                    .unwrap_or(events.len());
                for (t, e) in &events[..split] {
                    wal.on_event(*t, e);
                }
                wal.attach();
                for (t, e) in &events[split..] {
                    wal.on_event(*t, e);
                }
                let outcome = wal.inner_mut().take_outcome();
                wal.detach();
                outcome
            }
        }
    }

    fn counters(&self) -> CounterSet {
        match self {
            Pipeline::Pristine(recorder) => recorder.counters(),
            Pipeline::NaiveLossy(lossy) => lossy.counters(),
            Pipeline::Strengthened(wal) => wal.counters(),
        }
    }
}

/// The captured driver: the plain driver's truth for every visit, then
/// one capture pipeline per requested mode. Per visit the truth, the
/// loss schedule and the emitted events are computed once and every
/// pipeline records the same event slice. The schedule is drawn *after*
/// the truth from the visit context's `"fault"` stream, which the plain
/// driver never touches, and a no-op plan draws nothing at all —
/// together these make rate-0 captured campaigns bit-identical to
/// `run_campaign`.
struct Captured<'a, const N: usize> {
    plan: &'a LossPlan,
    modes: [CaptureMode; N],
}

impl<const N: usize> VisitDriver for Captured<'_, N> {
    type Worker = (VisitWorker, [Pipeline; N]);
    type Row = [SiteResult; N];

    fn worker(&self, config: &CampaignConfig) -> Self::Worker {
        (Plain.worker(config), self.modes.map(Pipeline::new))
    }

    fn visit_site(
        &self,
        machine: &Machine<'_>,
        site: &Site,
        (plain, pipelines): &mut Self::Worker,
    ) -> [SiteResult; N] {
        let visits = machine.config.visits_per_site;
        let mut outcomes = self.modes.map(|_| Vec::with_capacity(visits));
        for v in 0..visits as u64 {
            let (truth, mut ctx) = plain.visit(machine, site, v);
            let schedule = self.plan.draw(ctx.stream("fault"));
            let events = emit_capture_events(site, &truth, DEFAULT_VISIT_DEADLINE_MS);
            for (pipeline, recorded) in pipelines.iter_mut().zip(&mut outcomes) {
                recorded.push(pipeline.record(&events, schedule));
            }
        }
        outcomes.map(|o| SiteResult::new(site, o))
    }

    fn degraded(&self, site: &Site) -> [SiteResult; N] {
        self.modes.map(|_| Plain.degraded(site))
    }
}

/// The one captured two-machine pass: one population, one runtime and
/// one set of visits, recorded through a pipeline per entry of `modes`.
/// Returns one campaign per mode, in `modes` order.
fn run_captured<const N: usize>(
    config: &CampaignConfig,
    plan: &LossPlan,
    modes: [CaptureMode; N],
) -> [CapturedCampaign; N] {
    let (sites, m1, m2) = run_two_machines(
        config,
        &Captured { plan, modes },
        |client, rows, workers| {
            let mut runs = modes.map(|mode| {
                let sites = Vec::with_capacity(rows.len());
                (mode, MachineRun { client, sites }, CounterSet::new())
            });
            for row in rows {
                for ((_, run, _), site) in runs.iter_mut().zip(row) {
                    run.sites.push(site);
                }
            }
            for (_, pipelines) in &workers {
                for ((_, _, analytics), pipeline) in runs.iter_mut().zip(pipelines) {
                    analytics.merge(&pipeline.counters());
                }
            }
            runs
        },
    );
    let mut captured = m1.map(|(mode, openwpm, analytics)| CapturedCampaign {
        mode,
        campaign: Campaign {
            sites: sites.clone(),
            openwpm,
            spoofed: MachineRun {
                client: ClientKind::OpenWpmSpoofed,
                sites: Vec::new(),
            },
        },
        analytics,
    });
    // Worker-state totals are partition-independent; sorting makes the
    // merged set canonical whatever the claiming order was.
    for (c, (_, spoofed, analytics)) in captured.iter_mut().zip(m2) {
        c.campaign.spoofed = spoofed;
        c.analytics.merge(&analytics);
        c.analytics = c.analytics.sorted();
    }
    captured
}

/// Runs the standard two-machine campaign through the capture pipeline.
pub fn run_captured_campaign(
    config: &CampaignConfig,
    plan: &LossPlan,
    mode: CaptureMode,
) -> CapturedCampaign {
    let [captured] = run_captured(config, plan, [mode]);
    captured
}

/// One metric's drift between the pristine and an observed campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDrift {
    /// Metric name, e.g. `"blocking/CAPTCHAs sites m1"`.
    pub metric: String,
    /// The metric under pristine capture.
    pub pristine: f64,
    /// The metric as the degraded instrument recorded it.
    pub observed: f64,
    /// `|observed - pristine| / pristine` (1.0 when pristine is zero and
    /// the observed value is not).
    pub rel_error: f64,
}

/// How far an observed campaign's conclusions drifted from pristine.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Per-metric drift over every Table 2 cell and every comparable
    /// `recorder.*` analytic.
    pub metrics: Vec<MetricDrift>,
    /// Table 2 comparisons whose machine-1-vs-machine-2 ordering
    /// *changed sign* under loss — the conclusion-corrupting failure
    /// mode, not just noisy magnitudes.
    pub conclusion_flips: Vec<String>,
}

impl DriftReport {
    /// The largest per-metric relative error.
    pub fn max_rel_error(&self) -> f64 {
        self.metrics.iter().map(|m| m.rel_error).fold(0.0, f64::max)
    }

    /// The mean per-metric relative error.
    pub fn mean_rel_error(&self) -> f64 {
        if self.metrics.is_empty() {
            return 0.0;
        }
        self.metrics.iter().map(|m| m.rel_error).sum::<f64>() / self.metrics.len() as f64
    }

    /// True when nothing drifted: every metric exact, no flips.
    pub fn is_zero(&self) -> bool {
        self.conclusion_flips.is_empty() && self.metrics.iter().all(|m| m.rel_error == 0.0)
    }
}

fn rel_error(pristine: f64, observed: f64) -> f64 {
    if pristine == 0.0 {
        if observed == 0.0 {
            0.0
        } else {
            1.0
        }
    } else {
        (observed - pristine).abs() / pristine
    }
}

/// Diffs an observed campaign against the pristine reference: every
/// Table 2 cell, the sign of every machine-1-vs-machine-2 comparison,
/// and the comparable `recorder.*` analytics.
pub fn drift_report(pristine: &CapturedCampaign, observed: &CapturedCampaign) -> DriftReport {
    let table_p = screenshot_table(&pristine.campaign);
    let table_o = screenshot_table(&observed.campaign);
    let mut metrics = Vec::new();
    let mut conclusion_flips = Vec::new();

    for row_p in &table_p.rows {
        let Some(row_o) = table_o.row(&row_p.label) else {
            continue;
        };
        let cells = [
            ("sites m1", row_p.sites.0, row_o.sites.0),
            ("sites m2", row_p.sites.1, row_o.sites.1),
            ("visits m1", row_p.visits.0, row_o.visits.0),
            ("visits m2", row_p.visits.1, row_o.visits.1),
        ];
        for (cell, p, o) in cells {
            metrics.push(MetricDrift {
                metric: format!("{} {}", row_p.label, cell),
                pristine: p as f64,
                observed: o as f64,
                rel_error: rel_error(p as f64, o as f64),
            });
        }
        // The study's conclusions are *comparative*: machine 1 shows
        // more blocking than machine 2, etc. A flip is a sign change of
        // that difference under loss.
        let flips = |p1: usize, p2: usize, o1: usize, o2: usize| {
            (p1 as i64 - p2 as i64).signum() != (o1 as i64 - o2 as i64).signum()
        };
        if flips(row_p.sites.0, row_p.sites.1, row_o.sites.0, row_o.sites.1) {
            conclusion_flips.push(format!("{} (sites)", row_p.label));
        }
        if flips(
            row_p.visits.0,
            row_p.visits.1,
            row_o.visits.0,
            row_o.visits.1,
        ) {
            conclusion_flips.push(format!("{} (visits)", row_p.label));
        }
    }

    // Recorder analytics present under pristine capture are comparable
    // across modes (loss.* / capture.* telemetry is mode-specific and
    // excluded by the prefix filter).
    for (name, p) in pristine.analytics.entries() {
        if !name.starts_with("recorder.") {
            continue;
        }
        let o = observed.analytics.get(name).unwrap_or(0);
        metrics.push(MetricDrift {
            metric: name.clone(),
            pristine: *p as f64,
            observed: o as f64,
            rel_error: rel_error(*p as f64, o as f64),
        });
    }

    DriftReport {
        metrics,
        conclusion_flips,
    }
}

/// The full paired-campaign reliability study over one loss plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityStudy {
    /// The campaign under perfect instrumentation.
    pub pristine: CapturedCampaign,
    /// The same seeded campaign under naive lossy capture.
    pub naive: CapturedCampaign,
    /// The same seeded campaign under strengthened capture.
    pub strengthened: CapturedCampaign,
    /// Naive-vs-pristine drift.
    pub naive_drift: DriftReport,
    /// Strengthened-vs-pristine drift (all-zero by construction; the
    /// proptest pins the stronger bit-identity claim).
    pub strengthened_drift: DriftReport,
}

/// Records one seeded campaign under all three capture modes in a
/// single pass and diffs the results — the Krumnow-style reliability
/// comparison.
pub fn run_reliability_study(config: &CampaignConfig, plan: &LossPlan) -> ReliabilityStudy {
    let [pristine, naive, strengthened] = run_captured(
        config,
        plan,
        [
            CaptureMode::Pristine,
            CaptureMode::NaiveLossy,
            CaptureMode::Strengthened,
        ],
    );
    let naive_drift = drift_report(&pristine, &naive);
    let strengthened_drift = drift_report(&pristine, &strengthened);
    ReliabilityStudy {
        pristine,
        naive,
        strengthened,
        naive_drift,
        strengthened_drift,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_web::PopulationConfig;

    fn study_config() -> CampaignConfig {
        CampaignConfig {
            seed: 41,
            population: PopulationConfig {
                n_sites: 50,
                unreachable_sites: 4,
                webdriver_visible: (2, 1, 1, 1),
                template_visible: (1, 1, 1),
                silent_http: (2, 1),
                breakage_sites: 1,
                ..PopulationConfig::default()
            },
            visits_per_site: 3,
            instances: 4,
            world_cache: true,
            plan_interactions: false,
        }
    }

    #[test]
    fn pristine_capture_records_the_ground_truth() {
        let config = study_config();
        let truth = crate::campaign::run_campaign(&config);
        let captured = run_captured_campaign(&config, &LossPlan::none(), CaptureMode::Pristine);
        assert_eq!(captured.campaign, truth);
    }

    #[test]
    fn naive_lossy_campaigns_drift_and_account_for_the_loss() {
        let config = study_config();
        let study = run_reliability_study(&config, &LossPlan::uniform(0.4));
        let dropped = study.naive.analytics.get("loss.dropped").unwrap_or(0);
        assert!(dropped > 0, "a 40% loss plan must drop events");
        assert!(
            study.naive_drift.max_rel_error() > 0.0,
            "naive capture at 40% loss must drift"
        );
        assert_ne!(study.naive.campaign, study.pristine.campaign);
    }

    #[test]
    fn strengthened_capture_is_bit_identical_to_pristine() {
        let config = study_config();
        let study = run_reliability_study(&config, &LossPlan::uniform(0.5));
        assert_eq!(study.strengthened.campaign, study.pristine.campaign);
        assert!(study.strengthened_drift.is_zero());
        // The write-ahead buffer actually did work: late-attach visits
        // replayed their buffered prefixes.
        assert!(
            study
                .strengthened
                .analytics
                .get("capture.replayed")
                .unwrap_or(0)
                > 0
        );
    }

    #[test]
    fn drift_report_flags_conclusion_flips() {
        // Construct a synthetic flip: pristine says m1 > m2, observed
        // says m1 < m2 on the blocking row.
        let config = study_config();
        let pristine = run_captured_campaign(&config, &LossPlan::none(), CaptureMode::Pristine);
        let mut observed = pristine.clone();
        // Swap the two machines' records wholesale: every comparative
        // conclusion with a nonzero pristine difference must flip.
        std::mem::swap(
            &mut observed.campaign.openwpm.sites,
            &mut observed.campaign.spoofed.sites,
        );
        let report = drift_report(&pristine, &observed);
        assert!(
            !report.conclusion_flips.is_empty(),
            "swapped machines must flip at least one comparison"
        );
        assert!(!report.is_zero());
    }

    #[test]
    fn self_drift_is_zero() {
        let config = study_config();
        let pristine = run_captured_campaign(&config, &LossPlan::none(), CaptureMode::Pristine);
        let report = drift_report(&pristine, &pristine);
        assert!(report.is_zero());
        assert_eq!(report.max_rel_error(), 0.0);
        assert_eq!(report.mean_rel_error(), 0.0);
    }
}
