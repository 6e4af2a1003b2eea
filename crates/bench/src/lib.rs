//! Experiment harness: one regenerator per table and figure of the paper.
//!
//! Each `pub fn` returns a structured result *and* a formatted report; the
//! thin binaries in `src/bin/` print the reports. Mapping:
//!
//! | Paper artefact | Module | Binary |
//! |---|---|---|
//! | Table 1 (spoofing side effects) | [`table1`] | `table1` |
//! | Table 2 (screenshot evaluation) | [`fieldstudy`] | `table2` |
//! | Figure 4 / Appendix B (HTTP errors) | [`fieldstudy`] | `figure4` |
//! | Figure 1 (cursor trajectories) | [`figures`] | `figure1` |
//! | Figure 2 (click distributions) | [`figures`] | `figure2` |
//! | Figure 3 (arms race) | [`figure3`] | `figure3` |
//! | Table 3 (the HLISA API) | [`table3`] | `table3` |
//! | Table 4 / Appendix G (tool comparison) | [`table4`] | `table4` |
//! | Appendix C/D (events & granularity) | [`appendix_d`] | `appendix_d` |
//! | Design-choice ablations | [`ablations`] | `ablations` |
//!
//! The component benches share one harness ([`harness`]: the only
//! wall-clock read, the one [`harness::Comparison`], one report writer)
//! and one binary, `bench <name> [--smoke] [--out PATH]`, which writes
//! `BENCH_<name>.json` (`BENCH_<name>.smoke.json` with `--smoke`):
//!
//! | Bench | Module | Command |
//! |---|---|---|
//! | Campaign throughput (atoms/shapes/snapshots) | [`campaign_bench`] | `bench campaign` |
//! | Chaos-mode campaign (fault plane + recovery) | [`chaos_bench`] | `bench chaos` |
//! | Interaction fast path | [`interaction_bench`] | `bench interaction` |
//! | Layered page model | [`web_bench`] | `bench web` |
//! | Lint throughput | [`lint_bench`] | `bench lint` |
//! | Core scaling (lazy shards + claiming workers) | [`parallel_bench`] | `bench parallel` |
//! | Measurement-loss reliability | [`reliability_bench`] | `bench reliability` |

pub mod ablations;
pub mod appendix_d;
pub mod campaign_bench;
pub mod chaos_bench;
pub mod fieldstudy;
pub mod figure3;
pub mod figures;
pub mod harness;
pub mod interaction_bench;
pub mod lint_bench;
pub mod lintreport;
pub mod parallel_bench;
pub mod reliability_bench;
pub mod table1;
pub mod table3;
pub mod table4;
pub mod web_bench;
