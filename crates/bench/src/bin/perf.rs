//! The agreement harnesses: each replays a fast path against its retained
//! slow oracle, writes `BENCH_<name>.json` and gates it with
//! `dls_bench::trend::check_artifact` (every `*_agree` flag, and the
//! speedup floors outside the quick preset).
//!
//! ```text
//! cargo run --release -p dls_bench --bin perf -- [sim] [lp] [scenario] [service] \
//!     [--preset quick|paper-shape|full] [--seed N] [--threads N] [--out DIR]
//! ```
//!
//! With no harness named, all four run. `--threads` sizes `lp`'s sharded
//! pin sweep. Every artifact is written before it is gated; the binary
//! exits 1 once all named harnesses ran if any gate failed. Everything in
//! an artifact except its timings is deterministic for a fixed `--seed`.

use dls_bench::{lp_perf, perf, scenario_perf, service_perf, Cli};

const HARNESSES: [&str; 4] = ["sim", "lp", "scenario", "service"];

fn main() {
    let (cli, mut names) = Cli::parse_with_positionals();
    if names.is_empty() {
        names = HARNESSES.map(String::from).to_vec();
    }
    if let Some(bad) = names.iter().find(|n| !HARNESSES.contains(&n.as_str())) {
        eprintln!("error: unknown harness {bad} (expected any of {HARNESSES:?})");
        std::process::exit(2);
    }
    let mut failed = false;
    for name in &names {
        let file = format!("BENCH_{name}.json");
        let violations = match name.as_str() {
            "sim" => cli.publish(&file, &perf::run(cli.preset, cli.seed)),
            "lp" => cli.publish(&file, &lp_perf::run(cli.preset, cli.seed, cli.threads)),
            "scenario" => match scenario_perf::run(cli.preset, cli.seed) {
                Ok(run) => cli.publish(&file, &run),
                Err(e) => {
                    eprintln!("error: scenario harness failed: {e}");
                    vec![e.to_string()]
                }
            },
            _ => cli.publish(&file, &service_perf::run(cli.preset, cli.seed)),
        };
        failed |= !violations.is_empty();
    }
    if failed {
        std::process::exit(1);
    }
}
