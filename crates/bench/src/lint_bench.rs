//! Lint-throughput benchmark: how fast the AST-grade determinism
//! analysis covers the workspace, and what the structure costs over the
//! retired token scanner.
//!
//! Three measurements, emitted as `BENCH_lint.json`:
//!
//! 1. **Parse** — lexing + tree building + recursive-descent parsing
//!    ([`hlisa_lint::AstAnalysis`] construction) over every file the
//!    workspace linter covers.
//! 2. **Analyze** — the rule passes ([`hlisa_lint::analyze_file`]) over
//!    pre-built analyses, with each file's real exemptions and pass
//!    configuration, so the split shows where a `hlisa-lint` run spends
//!    its time.
//! 3. **Token scanner** — the retired line/token scanner
//!    ([`hlisa_lint::analyze_source`]) as the reference point: the
//!    `ast_cost_ratio` says what the AST upgrade costs per covered line
//!    (expected well above 1 — the parse buys precision, and the
//!    differential suite keeps both sides honest).
//!
//! Timing goes through [`crate::harness`], the crate's one wall-clock
//! read.

use crate::harness::{timed, Object, Report};
use hlisa_lint::{
    analyze_file, analyze_source, exemptions_for, find_workspace_root, workspace_files,
    AstAnalysis, Exemptions, RulePasses,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

/// Benchmark sizing.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Full workspace sweeps per timed phase.
    pub iters: u32,
}

impl BenchConfig {
    /// The default run: big enough for stable rates.
    pub fn full() -> Self {
        Self { iters: 40 }
    }

    /// A seconds-scale smoke run for CI.
    pub fn smoke() -> Self {
        Self { iters: 3 }
    }
}

/// One timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Mean seconds per full workspace sweep.
    pub seconds_per_sweep: f64,
    /// Source lines covered per second.
    pub lines_per_s: f64,
}

/// The full benchmark result.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Sizing used.
    pub config: BenchConfig,
    /// Files the sweep covers.
    pub files: usize,
    /// Source lines the sweep covers.
    pub lines: u64,
    /// Findings per sweep (pre-suppression rule hits are not counted;
    /// this is the post-suppression diagnostic count, a sanity anchor
    /// that the timed work is the real analysis).
    pub findings: usize,
    /// Lex + tree building + parsing.
    pub parse: Phase,
    /// Rule passes over pre-built analyses.
    pub analyze: Phase,
    /// Parse + analyze (one `hlisa-lint` visit per file).
    pub total: Phase,
    /// The retired token scanner, for reference.
    pub scanner: Phase,
}

impl Phase {
    fn section(&self) -> Object {
        Object::new()
            .num("seconds_per_sweep", self.seconds_per_sweep)
            .num("lines_per_s", self.lines_per_s)
    }
}

impl BenchReport {
    /// AST end-to-end cost per line over the token scanner's.
    pub fn ast_cost_ratio(&self) -> f64 {
        self.total.seconds_per_sweep / self.scanner.seconds_per_sweep.max(1e-12)
    }

    /// Fraction of the AST pass spent past the parser.
    pub fn analyze_share(&self) -> f64 {
        self.analyze.seconds_per_sweep / self.total.seconds_per_sweep.max(1e-12)
    }
}

fn phase(total: Duration, iters: u32, lines: u64) -> Phase {
    let per_sweep = total.as_secs_f64() / f64::from(iters.max(1));
    Phase {
        seconds_per_sweep: per_sweep,
        lines_per_s: lines as f64 / per_sweep.max(1e-12),
    }
}

/// One loaded workspace file.
struct Loaded {
    rel: String,
    text: String,
    exempt: Exemptions,
    passes: RulePasses,
}

fn load_workspace(root: &Path) -> Vec<Loaded> {
    workspace_files(root)
        .expect("walk workspace")
        .into_iter()
        .map(|(rel, path, passes)| {
            let text = std::fs::read_to_string(&path).expect("read source");
            let exempt = exemptions_for(&rel);
            Loaded {
                rel,
                text,
                exempt,
                passes,
            }
        })
        .collect()
}

/// Runs the benchmark against the enclosing workspace.
pub fn run(config: BenchConfig) -> BenchReport {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("bench must run inside the workspace");
    let files = load_workspace(&root);
    let lines = files
        .iter()
        .map(|f| f.text.lines().count() as u64)
        .sum::<u64>();

    // Parse: AstAnalysis construction only.
    let (parse_t, analyses) = timed(|| {
        let mut last = Vec::new();
        for _ in 0..config.iters {
            last = files
                .iter()
                .map(|f| black_box(AstAnalysis::of(&f.text)))
                .collect();
        }
        last
    });

    // Analyze: rule passes over the pre-built analyses.
    let (analyze_t, findings) = timed(|| {
        let mut n = 0usize;
        for _ in 0..config.iters {
            n = files
                .iter()
                .zip(&analyses)
                .map(|(f, a)| black_box(analyze_file(&f.rel, a, f.exempt, f.passes)).len())
                .sum();
        }
        n
    });

    // Token scanner reference.
    let (scanner_t, _) = timed(|| {
        let mut n = 0usize;
        for _ in 0..config.iters {
            n = files
                .iter()
                .map(|f| black_box(analyze_source(&f.rel, &f.text, f.exempt)).len())
                .sum();
        }
        n
    });

    BenchReport {
        config,
        files: files.len(),
        lines,
        findings,
        parse: phase(parse_t, config.iters, lines),
        analyze: phase(analyze_t, config.iters, lines),
        total: phase(parse_t + analyze_t, config.iters, lines),
        scanner: phase(scanner_t, config.iters, lines),
    }
}

impl BenchReport {
    /// The report, field by field, as `BENCH_lint.json` lays it out.
    pub fn fields(&self) -> Report {
        Report::new("hlisa-lint AST analysis over the workspace")
            .object(
                "config",
                Object::new().int("iters", self.config.iters.into()),
            )
            .int("files", self.files as u64)
            .int("lines", self.lines)
            .int("findings", self.findings as u64)
            .object("parse", self.parse.section())
            .object("analyze", self.analyze.section())
            .object("total", self.total.section())
            .object("token_scanner", self.scanner.section())
            .num("ast_cost_ratio", self.ast_cost_ratio())
            .num("analyze_share", self.analyze_share())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::schema;

    #[test]
    fn smoke_report_is_well_formed() {
        let report = run(BenchConfig { iters: 1 });
        assert!(report.files > 100, "{} files", report.files);
        assert!(report.lines > 10_000, "{} lines", report.lines);
        // The workspace gate holds, so a sweep with the real exemptions
        // finds nothing.
        assert_eq!(report.findings, 0);
        schema::assert_matches_baseline(&report.fields(), "lint", &[]);
    }
}
