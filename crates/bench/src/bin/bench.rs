//! Runs one component bench and writes its report.
//!
//! Usage: `bench <campaign|chaos|interaction|web|lint|parallel|reliability> [--smoke] [--out PATH]`
//!
//! The default sizing produces the numbers committed at the repository
//! root as `BENCH_<name>.json`, the default output path; `--smoke` runs
//! the seconds-scale CI sizing and writes `BENCH_<name>.smoke.json`.
//! The JSON document is also printed to stdout.
use hlisa_bench::harness::Report;
use hlisa_bench::{
    campaign_bench, chaos_bench, interaction_bench, lint_bench, parallel_bench, reliability_bench,
    web_bench,
};

const USAGE: &str =
    "usage: bench <campaign|chaos|interaction|web|lint|parallel|reliability> [--smoke] [--out PATH]";

fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2);
}

/// The smoke or the full sizing of one bench.
fn sized<C>(smoke: bool, smoke_sizing: fn() -> C, full_sizing: fn() -> C) -> C {
    if smoke {
        smoke_sizing()
    } else {
        full_sizing()
    }
}

/// Runs the bench called `name` at the chosen sizing; `None` if no bench
/// has that name.
fn run(name: &str, smoke: bool) -> Option<Report> {
    use campaign_bench::BenchConfig as Campaign;
    use chaos_bench::ChaosBenchConfig as Chaos;
    use interaction_bench::BenchConfig as Interaction;
    use lint_bench::BenchConfig as Lint;
    use parallel_bench::ParallelBenchConfig as Parallel;
    use reliability_bench::ReliabilityBenchConfig as Reliability;
    use web_bench::BenchConfig as Web;
    Some(match name {
        "campaign" => campaign_bench::run(sized(smoke, Campaign::smoke, Campaign::full)).fields(),
        "chaos" => chaos_bench::run(sized(smoke, Chaos::smoke, Chaos::full)).fields(),
        "interaction" => {
            interaction_bench::run(sized(smoke, Interaction::smoke, Interaction::full)).fields()
        }
        "web" => web_bench::run(sized(smoke, Web::smoke, Web::full)).fields(),
        "lint" => lint_bench::run(sized(smoke, Lint::smoke, Lint::full)).fields(),
        "parallel" => parallel_bench::run(sized(smoke, Parallel::smoke, Parallel::full)).fields(),
        "reliability" => {
            reliability_bench::run(sized(smoke, Reliability::smoke, Reliability::full)).fields()
        }
        _ => return None,
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args
        .next()
        .unwrap_or_else(|| usage_error("missing bench name"));
    let mut smoke = false;
    let mut out_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--out needs a path")),
                );
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    let out_path = out_path.unwrap_or_else(|| {
        let suffix = if smoke { ".smoke" } else { "" };
        format!("BENCH_{name}{suffix}.json")
    });
    let json = run(&name, smoke)
        .unwrap_or_else(|| usage_error(&format!("unknown bench: {name}")))
        .to_json();
    print!("{json}");
    std::fs::write(&out_path, json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out_path}");
}
