//! `dls-benchmark`: one benchmark for the whole path, from an offline plan at
//! the paper's scale to a request through the multi-tenant daemon.
//!
//! ```text
//! dls-benchmark run [--workload W] [--seed S] [--seconds T] [--trace 0|1]
//!                   [--smoke] [--repeat N] [--out FILE]
//! dls-benchmark bless
//! dls-benchmark compare A.json B.json
//! dls-benchmark manifest
//! ```
//!
//! With `--workload`, `run` measures that workload in this process and prints
//! one `workload name unit value` line per metric, then one JSON object as
//! the last line. Without it, every workload runs in a child process of its
//! own (so `peak_rss_mb` is per workload) and the results are collected into
//! one file for `compare`. See `benchmark/README.md`.

mod compare;
mod harness;
mod inputs;
mod json;
mod metrics;
mod online;
mod plan;
mod serve;
mod sim;
mod trace;

use harness::{drive, manifest_dir, RunArgs, RunResult, Workload, BLESSED_SEED};
use serde::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const DEFAULT_SECONDS: f64 = 15.0;

type Runner = fn(&RunArgs) -> RunResult;

/// Every workload: name, why it exists, and how to run it.
pub fn workloads() -> Vec<(&'static str, &'static str, Runner)> {
    fn entry<W: Workload>() -> (&'static str, &'static str, Runner) {
        (W::NAME, W::WHY, drive::<W>)
    }
    vec![
        entry::<plan::PlanPaper>(),
        entry::<plan::PlanIsland>(),
        entry::<sim::SimPeriodic>(),
        entry::<online::OnlineDrift>(),
        entry::<serve::Serve<false>>(),
        entry::<serve::Serve<true>>(),
    ]
}

struct Cli {
    workload: Option<String>,
    args: RunArgs,
    repeat: usize,
    out: PathBuf,
}

fn parse_run(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        args: RunArgs {
            seed: BLESSED_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            bless: false,
        },
        repeat: 1,
        out: manifest_dir().join("out").join("results.json"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                cli.args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.args.seconds = v.parse().map_err(|_| bad(&v))?;
                if !(cli.args.seconds.is_finite() && cli.args.seconds > 0.0) {
                    return Err(bad(&v));
                }
            }
            "--trace" => {
                let v = value()?;
                cli.args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--repeat" => {
                let v = value()?;
                cli.repeat = v.parse().map_err(|_| bad(&v))?;
            }
            "--out" => cli.out = PathBuf::from(value()?),
            "--smoke" => cli.args.smoke = true,
            "--bless" => cli.args.bless = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(cli)
}

/// Runs one workload in this process; the result goes to standard output.
fn run_one(name: &str, args: &RunArgs) -> Result<bool, String> {
    let (_, _, runner) = workloads()
        .into_iter()
        .find(|(n, _, _)| *n == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let result = runner(args);
    result.print();
    Ok(result.correct())
}

/// Runs `name` in a child process, echoes its metric lines, and returns the
/// result object it printed last.
fn run_child(name: &str, args: &RunArgs) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.bless {
        cmd.arg("--bless");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("the child printed nothing")?;
    for line in lines {
        println!("{line}");
    }
    serde_json::from_str_value(last).map_err(|e| format!("bad result line from {name}: {e}"))
}

/// Runs every workload, each in its own process, `repeat` times; with
/// `--trace 1` each untraced run is followed by a traced one.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let mut runs = Vec::new();
    let mut all_correct = true;
    for set in 0..cli.repeat {
        for (name, _, _) in workloads() {
            for trace in [false, true] {
                if trace && !cli.args.trace {
                    continue;
                }
                let args = RunArgs {
                    trace,
                    ..cli.args.clone()
                };
                let mut result = run_child(name, &args)?;
                all_correct &= matches!(result.get("correct"), Some(Value::Bool(true)));
                if let Value::Object(fields) = &mut result {
                    fields.insert(0, ("workload".into(), Value::String(name.into())));
                    fields.insert(1, ("seed".into(), json::int(args.seed)));
                    fields.insert(2, ("set".into(), json::int(set as u64)));
                    fields.insert(3, ("trace".into(), json::int(trace as u64)));
                }
                runs.push(result);
            }
        }
    }
    let doc = Value::Object(vec![("runs".into(), Value::Array(runs))]);
    if let Some(dir) = cli.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&cli.out, json::pretty(&doc)).map_err(|e| e.to_string())?;
    eprintln!("results written to {}", cli.out.display());
    Ok(all_correct)
}

/// `BENCHMARK.json` as the registry in `metrics.rs` and the workload list
/// define it; the committed file is this output (a unit test compares them).
fn manifest() -> Value {
    let text = |s: &str| Value::String(s.into());
    let list = |items: &[&str]| Value::Array(items.iter().map(|s| text(s)).collect());
    let metric = |m: &metrics::MetricSpec| {
        let mut fields = vec![
            ("name".to_string(), text(m.name)),
            ("unit".to_string(), text(m.unit)),
            ("better".to_string(), text(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound".to_string(), json::float(bound)));
        }
        Value::Object(fields)
    };
    Value::Object(vec![
        (
            "command".into(),
            list(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths".into(), list(&["benchmark"])),
        ("run_seconds".into(), json::int(DEFAULT_SECONDS as u64)),
        (
            "workloads".into(),
            Value::Array(
                workloads()
                    .iter()
                    .map(|(name, why, _)| {
                        Value::Object(vec![("name".into(), text(name)), ("why".into(), text(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Array(metrics::END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer".into(),
            Value::Array(metrics::PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

fn usage() -> String {
    let names: Vec<&str> = workloads().iter().map(|w| w.0).collect();
    format!(
        "usage: dls-benchmark run [--workload W] [--seed S] [--seconds T] [--trace 0|1] \
         [--smoke] [--repeat N] [--out FILE]\n       dls-benchmark bless\n       \
         dls-benchmark compare A.json B.json\n       dls-benchmark manifest\nworkloads: {}",
        names.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => parse_run(&argv[1..]).and_then(|cli| match &cli.workload {
            Some(name) => run_one(name, &cli.args),
            None => run_all(&cli),
        }),
        // Rewrites `expected/` from a full-size run at the blessed seed.
        Some("bless") if argv.len() == 1 => {
            parse_run(&["--bless".to_string()]).and_then(|cli| run_all(&cli))
        }
        Some("compare") if argv.len() == 3 => compare::compare_files(&argv[1], &argv[2]),
        Some("manifest") if argv.len() == 1 => {
            print!("{}", json::pretty(&manifest()));
            Ok(true)
        }
        _ => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{END_TO_END, PER_LAYER};

    /// `BENCHMARK.json` is `dls-benchmark manifest`, byte for byte in every
    /// field: workloads, metric names, units, directions, bounds, run length.
    #[test]
    fn benchmark_json_declares_exactly_the_registry() {
        let path = manifest_dir().join("..").join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let committed = serde_json::from_str_value(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `dls-benchmark manifest > BENCHMARK.json`"
        );
        for (name, why, _) in workloads() {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        }
    }

    /// Every workload at `--smoke` size, checks on, untraced and traced: the
    /// names a run prints are the names `BENCHMARK.json` declares, no check
    /// fails, and the traced run fills the layers its workload exercises.
    #[test]
    fn smoke_runs_print_the_declared_names_and_pass_their_checks() {
        for (name, _, runner) in workloads() {
            for trace in [false, true] {
                let result = runner(&RunArgs {
                    seed: BLESSED_SEED,
                    seconds: DEFAULT_SECONDS,
                    trace,
                    smoke: true,
                    bless: false,
                });
                assert!(
                    result.correct(),
                    "{name} trace={trace}: {:?}",
                    result.checks.notes()
                );
                let specs = if trace { PER_LAYER } else { END_TO_END };
                let printed: Vec<&str> = result.metrics.iter().map(|m| m.0).collect();
                let declared: Vec<&str> = specs.iter().map(|m| m.name).collect();
                assert_eq!(printed, declared, "{name} trace={trace}");
                let value = |metric: &str| result.metrics.iter().find(|m| m.0 == metric).unwrap().2;
                if trace {
                    assert!(value("trace.spans") > 0.0, "{name}: no spans");
                    assert!(value("e2e.op_samples") > 0.0, "{name}");
                } else {
                    for m in END_TO_END {
                        assert!(value(m.name) > 0.0, "{name}: {} is 0", m.name);
                    }
                }
            }
        }
    }

    #[test]
    fn cli_parses_the_driver_flags() {
        let argv: Vec<String> = "--workload sim_periodic --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse_run(&argv).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("sim_periodic"));
        assert_eq!(
            (cli.args.seed, cli.args.seconds, cli.args.trace),
            (7, 3.0, true)
        );
        assert!(parse_run(&["--trace".into(), "yes".into()]).is_err());
        assert!(parse_run(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse_run(&["--bogus".into()]).is_err());
    }
}
