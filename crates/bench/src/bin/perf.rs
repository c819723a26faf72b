//! The LP agreement harness: replays the warm LPRR / B&B paths against
//! their cold references, writes `BENCH_lp.json` and gates it with
//! `dls_bench::trend::check_artifact` (every `*_agree` flag, and the
//! speedup floors outside the quick preset).
//!
//! ```text
//! cargo run --release -p dls_bench --bin perf -- \
//!     [--preset quick|paper-shape|full] [--seed N] [--threads N] [--out DIR]
//! ```
//!
//! `--threads` sizes the sharded pin sweep. The artifact is written before
//! it is gated; the binary exits 1 if the gate failed. Everything in the
//! artifact except its timings is deterministic for a fixed `--seed`.

use dls_bench::{lp_perf, Cli};

fn main() {
    let cli = Cli::parse();
    let run = lp_perf::run(cli.preset, cli.seed, cli.threads);
    if !cli.publish("BENCH_lp.json", &run).is_empty() {
        std::process::exit(1);
    }
}
