//! Gate over `BENCH_*.json` perf artifacts: fails (exit 1) when any
//! `*_agree` flag is false or a row of `dls_bench::trend::FLOORS` is not
//! met. Each row is `(schema, section, key, floor)`: every entry of that
//! schema's `section` array must carry `timing_ms.<key> ≥ floor`, unless
//! it has a `*_skipped: true` key. A missing section fails at every
//! preset; the floor values are not applied to `quick` artifacts. The
//! `perf` binary runs the same check on each artifact it writes.
//!
//! ```text
//! bench_trend [FILE ...]
//! bench_trend --diff BASELINE FRESH [--tol REL]
//! ```
//!
//! With no arguments, checks the four committed artifacts in the current
//! directory (`BENCH_sim.json`, `BENCH_lp.json`, `BENCH_scenario.json`,
//! `BENCH_service.json`).
//!
//! `--diff` compares a freshly regenerated artifact against its committed
//! baseline field by field, skipping wall-clock timing keys, and **warns**
//! (exit 0) on numeric drift beyond `--tol` (relative, default `1e-9`):
//! drift is a trend signal for the reviewer, while agreement flags and
//! speedup floors remain the hard gate. Only an unreadable or unparseable
//! artifact fails the diff mode.

use dls_bench::trend::{check_artifact, diff_artifacts};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--diff") {
        run_diff(&args[1..]);
        return;
    }
    let files: Vec<String> = if args.is_empty() {
        [
            "BENCH_sim.json",
            "BENCH_lp.json",
            "BENCH_scenario.json",
            "BENCH_service.json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    } else {
        args
    };
    let mut violations = Vec::new();
    for file in &files {
        let json = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                violations.push(format!("{file}: unreadable: {e}"));
                continue;
            }
        };
        match check_artifact(file, &json) {
            Ok(mut v) => {
                println!("{file}: {}", if v.is_empty() { "ok" } else { "FAILED" });
                violations.append(&mut v);
            }
            Err(e) => violations.push(e),
        }
    }
    if !violations.is_empty() {
        eprintln!("bench trend check failed:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}

fn run_diff(args: &[String]) {
    let mut tol = 1e-9f64;
    let mut files = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--tol" {
            i += 1;
            tol = args
                .get(i)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| die("--tol expects a relative tolerance"));
        } else {
            files.push(args[i].clone());
        }
        i += 1;
    }
    let [baseline, fresh] = files.as_slice() else {
        die("--diff expects exactly BASELINE and FRESH paths");
    };
    let old = std::fs::read_to_string(baseline)
        .unwrap_or_else(|e| die(&format!("{baseline}: unreadable: {e}")));
    let new = std::fs::read_to_string(fresh)
        .unwrap_or_else(|e| die(&format!("{fresh}: unreadable: {e}")));
    match diff_artifacts(fresh, &old, &new, tol) {
        Ok(warnings) if warnings.is_empty() => {
            println!("{fresh}: no drift vs {baseline} (tol {tol:.0e})");
        }
        Ok(warnings) => {
            println!(
                "{fresh}: {} field(s) drifted vs {baseline} (tol {tol:.0e}) — warning only:",
                warnings.len()
            );
            for w in &warnings {
                println!("  {w}");
            }
        }
        Err(e) => die(&e),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}
