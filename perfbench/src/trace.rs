//! In-memory spans recorded around the calls the benchmark makes into
//! each layer's public functions.
//!
//! A span is opened just before a layer call and closed just after it,
//! from the benchmark's own code; the program itself carries no spans.
//! Spans stay in memory while the run measures and are written out once
//! at the end. A layer's *self time* is its span's duration minus the part
//! of that interval its child spans cover.

use std::io::Write;
use std::time::Instant;

/// What a span times. Root spans (`Op*`) delimit one benchmark op; every
/// other variant is a call into one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One crawl shard: materialise, visit every site, fold.
    OpShard,
    /// One `instrument_faults` rep.
    OpRep,
    /// One `arms_race` session plus its four judgements.
    OpSession,
    /// `PopulationShards::with_shard` up to the closure's first line.
    WebShards,
    /// `SimContext::fork_visit` + `simulate_visit_attempt`.
    WebVisit,
    /// `ctx.fork("plan", 0)` + `VisitPlanner::plan_site_visit`.
    HumanPlan,
    /// `apply_scenario_drive_with`.
    CrawlerScenario,
    /// The per-shard fold (the engine's summarise closure body).
    CrawlerFold,
    /// `run_captured_campaign` in pristine mode.
    ReliabilityPristine,
    /// `run_captured_campaign` in naive-lossy mode.
    ReliabilityNaive,
    /// `run_captured_campaign` in strengthened mode.
    ReliabilityStrengthened,
    /// The two `drift_report` calls.
    ReliabilityDrift,
    /// `run_chaos_campaign`.
    Chaos,
    /// `Simulator::run_session` for the Selenium rung.
    SessionSelenium,
    /// `Simulator::run_session` for the naive rung.
    SessionNaive,
    /// `Simulator::run_session` for the HLISA rungs (plain, consistent,
    /// profile-fitted).
    SessionHlisa,
    /// `Simulator::run_session` for the human reference rows.
    SessionHuman,
    /// `InteractionDetector::judge_features`.
    DetectJudge,
}

impl Layer {
    /// Every variant, in index order.
    pub const ALL: [Layer; 18] = [
        Layer::OpShard,
        Layer::OpRep,
        Layer::OpSession,
        Layer::WebShards,
        Layer::WebVisit,
        Layer::HumanPlan,
        Layer::CrawlerScenario,
        Layer::CrawlerFold,
        Layer::ReliabilityPristine,
        Layer::ReliabilityNaive,
        Layer::ReliabilityStrengthened,
        Layer::ReliabilityDrift,
        Layer::Chaos,
        Layer::SessionSelenium,
        Layer::SessionNaive,
        Layer::SessionHlisa,
        Layer::SessionHuman,
        Layer::DetectJudge,
    ];

    /// Position in [`Layer::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::OpShard => "op.shard",
            Layer::OpRep => "op.rep",
            Layer::OpSession => "op.session",
            Layer::WebShards => "web.shards",
            Layer::WebVisit => "web.visit",
            Layer::HumanPlan => "human.plan",
            Layer::CrawlerScenario => "crawler.scenario",
            Layer::CrawlerFold => "crawler.campaign.fold",
            Layer::ReliabilityPristine => "crawler.reliability.pristine",
            Layer::ReliabilityNaive => "crawler.reliability.naive",
            Layer::ReliabilityStrengthened => "crawler.reliability.strengthened",
            Layer::ReliabilityDrift => "crawler.reliability.drift",
            Layer::Chaos => "crawler.chaos",
            Layer::SessionSelenium => "armsrace.session.selenium",
            Layer::SessionNaive => "armsrace.session.naive",
            Layer::SessionHlisa => "armsrace.session.hlisa",
            Layer::SessionHuman => "armsrace.session.human",
            Layer::DetectJudge => "detect.judge",
        }
    }

    /// The layer group whose `.calls` / `.self_ms` / `.share` metrics this
    /// span counts toward; `None` for op roots, whose self time is the
    /// op's unattributed remainder.
    pub fn group(self) -> Option<&'static str> {
        match self {
            Layer::OpShard | Layer::OpRep | Layer::OpSession => None,
            Layer::WebShards => Some("web.shards"),
            Layer::WebVisit => Some("web.visit"),
            Layer::HumanPlan => Some("human.plan"),
            Layer::CrawlerScenario => Some("crawler.scenario"),
            Layer::CrawlerFold => Some("crawler.campaign"),
            Layer::ReliabilityPristine
            | Layer::ReliabilityNaive
            | Layer::ReliabilityStrengthened
            | Layer::ReliabilityDrift => Some("crawler.reliability"),
            Layer::Chaos => Some("crawler.chaos"),
            Layer::SessionSelenium
            | Layer::SessionNaive
            | Layer::SessionHlisa
            | Layer::SessionHuman => Some("armsrace.session"),
            Layer::DetectJudge => Some("detect.judge"),
        }
    }
}

/// The layer groups, in the order their metrics are reported.
pub const GROUPS: [&str; 9] = [
    "web.shards",
    "web.visit",
    "human.plan",
    "crawler.scenario",
    "crawler.campaign",
    "crawler.reliability",
    "crawler.chaos",
    "armsrace.session",
    "detect.judge",
];

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// What the span timed.
    pub layer: Layer,
    /// Index of the enclosing span in the same tracer, or [`NO_PARENT`].
    pub parent: u32,
    /// Start (ns since epoch).
    pub start_ns: u64,
    /// End (ns since epoch).
    pub end_ns: u64,
}

/// One thread's span buffer. A disabled tracer records nothing and hands
/// out [`NO_PARENT`] ids, so the same replay code runs traced or not.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer timing against `epoch`; records only when `enabled`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`; returns its id.
    pub fn open(&mut self, layer: Layer, parent: u32) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: u32) {
        if id != NO_PARENT {
            let end_ns = self.now_ns();
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span of `layer` under `parent`.
    pub fn span<T>(&mut self, layer: Layer, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(layer, parent);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Calls and self time per [`Layer`], summed over any number of tracers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans per layer.
    pub calls: [u64; Layer::ALL.len()],
    /// Self nanoseconds per layer.
    pub self_ns: [u64; Layer::ALL.len()],
}

impl LayerTotals {
    /// Adds one tracer's spans.
    pub fn absorb(&mut self, tracer: &Tracer) {
        for (span, own) in tracer.spans().iter().zip(self_times(tracer.spans())) {
            self.calls[span.layer.index()] += 1;
            self.self_ns[span.layer.index()] += own;
        }
    }

    /// Adds another set of totals.
    pub fn add(&mut self, other: &LayerTotals) {
        for i in 0..Layer::ALL.len() {
            self.calls[i] += other.calls[i];
            self.self_ns[i] += other.self_ns[i];
        }
    }

    /// Calls of one layer.
    pub fn calls_of(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// Self nanoseconds of one layer.
    pub fn self_ns_of(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    /// Calls summed over a group.
    pub fn group_calls(&self, group: &str) -> u64 {
        Layer::ALL
            .iter()
            .filter(|l| l.group() == Some(group))
            .map(|l| self.calls_of(*l))
            .sum()
    }

    /// Self nanoseconds summed over a group.
    pub fn group_self_ns(&self, group: &str) -> u64 {
        Layer::ALL
            .iter()
            .filter(|l| l.group() == Some(group))
            .map(|l| self.self_ns_of(*l))
            .sum()
    }

    /// Self nanoseconds of every span some layer group covers (op roots
    /// excluded): the attributed time.
    pub fn attributed_ns(&self) -> u64 {
        GROUPS.iter().map(|g| self.group_self_ns(g)).sum()
    }
}

/// Writes `tracers` as one tab-separated span table (one tracer per
/// worker thread).
pub fn write_spans(path: &std::path::Path, tracers: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "worker\tid\tparent\tlayer\tstart_ns\tend_ns\tself_ns")?;
    for (w, tracer) in tracers.iter().enumerate() {
        let own = self_times(tracer.spans());
        for (id, (s, self_ns)) in tracer.spans().iter().zip(own).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{w}\t{id}\t{parent}\t{}\t{}\t{}\t{self_ns}",
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            // Root 0..100 with children covering 10..30, 20..40 (overlap)
            // and 90..120 (clipped to 90..100): coverage 30 + 10 = 40.
            span(Layer::OpShard, NO_PARENT, 0, 100),
            span(Layer::WebVisit, 0, 10, 30),
            span(Layer::WebVisit, 0, 20, 40),
            span(Layer::CrawlerFold, 0, 90, 120),
            // A grandchild counts against its parent only.
            span(Layer::HumanPlan, 1, 12, 18),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![60, 14, 20, 30, 6]);
        for (i, s) in spans.iter().enumerate() {
            let covered: u64 = (s.end_ns - s.start_ns) - own[i];
            assert!(covered <= s.end_ns - s.start_ns);
        }
    }

    #[test]
    fn totals_group_layers_and_exclude_op_roots() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, true);
        let root = t.open(Layer::OpRep, NO_PARENT);
        t.span(Layer::ReliabilityPristine, root, || ());
        t.span(Layer::ReliabilityNaive, root, || ());
        t.close(root);
        let mut totals = LayerTotals::default();
        totals.absorb(&t);
        assert_eq!(totals.group_calls("crawler.reliability"), 2);
        assert_eq!(totals.calls_of(Layer::OpRep), 1);
        assert_eq!(
            totals.attributed_ns(),
            totals.group_self_ns("crawler.reliability")
        );
        // A disabled tracer records nothing.
        let mut off = Tracer::new(epoch, false);
        let id = off.open(Layer::WebVisit, NO_PARENT);
        off.close(id);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn layer_table_is_indexed_in_order() {
        for (i, l) in Layer::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
    }
}
