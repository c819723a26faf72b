#![warn(missing_docs)]

//! The LP agreement harness behind `perf`, and the CLI plumbing shared
//! with the figure/table regeneration binaries.
//!
//! Every binary accepts:
//!
//! ```text
//! --preset quick|paper-shape|full   (default: paper-shape)
//! --seed <u64>                      (default: 42)
//! --threads <n>                     (default: 0 = all cores)
//! --out <dir>                       (default: results/)
//! --ablation                        (fig6 only: add LPRR-EQ)
//! ```
//!
//! A harness run is a `#[derive(Serialize)]` struct whose fields open with
//! one envelope — `schema`, `preset`, `seed`, `entries` — followed by the
//! harness's own sections. [`Cli::publish`] renders it, writes it and
//! gates it with [`trend::check_artifact`].

use dls_experiments::Preset;
use serde::Serialize;
use std::io;
use std::path::PathBuf;

pub mod lp_perf;
pub mod trend;

/// The `preset` value every BENCH artifact records.
pub(crate) fn preset_name(preset: Preset) -> &'static str {
    match preset {
        Preset::Quick => "quick",
        Preset::PaperShape => "paper-shape",
        Preset::Full => "full",
    }
}

/// `num / den`, infinite when `den` timed at zero.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::INFINITY
    }
}

/// Runs `f` once; returns its result and the wall-clock in milliseconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Experiment scale.
    pub preset: Preset,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Output directory for CSV artifacts.
    pub out: PathBuf,
    /// Enable ablation variants where supported.
    pub ablation: bool,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            preset: Preset::PaperShape,
            seed: 42,
            threads: 0,
            out: PathBuf::from("results"),
            ablation: false,
        }
    }
}

impl Cli {
    /// Parses `std::env::args`, exiting with a usage message on errors.
    pub fn parse() -> Cli {
        let mut cli = Cli::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--preset" => {
                    i += 1;
                    cli.preset = args
                        .get(i)
                        .and_then(|s| Preset::parse(s))
                        .unwrap_or_else(|| usage("--preset expects quick|paper-shape|full"));
                }
                "--seed" => {
                    i += 1;
                    cli.seed = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--seed expects an integer"));
                }
                "--threads" => {
                    i += 1;
                    cli.threads = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--threads expects an integer"));
                }
                "--out" => {
                    i += 1;
                    cli.out = args
                        .get(i)
                        .map(PathBuf::from)
                        .unwrap_or_else(|| usage("--out expects a directory"));
                }
                "--ablation" => cli.ablation = true,
                "--help" | "-h" => usage(""),
                arg => usage(&format!("unknown argument {arg}")),
            }
            i += 1;
        }
        cli
    }

    /// Writes a CSV artifact under the output directory. Failures are
    /// returned, not swallowed — binaries must exit non-zero instead of
    /// silently dropping artifacts.
    pub fn write_csv(&self, name: &str, csv: &str) -> io::Result<()> {
        self.write_artifact(name, csv)
    }

    /// Renders `artifact` as pretty JSON, writes it as `name` under the
    /// output directory, then gates the written text with
    /// [`trend::check_artifact`]: the artifact is on disk even when it
    /// fails, so the failing numbers can be inspected. Returns the
    /// violations (empty = passed); an unwritable file is one too.
    pub fn publish(&self, name: &str, artifact: &impl Serialize) -> Vec<String> {
        let json = serde_json::to_string_pretty(artifact).expect("artifacts serialize") + "\n";
        let violations = match self.write_artifact(name, &json) {
            Ok(()) => trend::check_artifact(name, &json).unwrap_or_else(|e| vec![e]),
            Err(e) => vec![format!(
                "{name}: cannot write under {}: {e}",
                self.out.display()
            )],
        };
        if violations.is_empty() {
            eprintln!("{name}: ok");
        }
        for v in &violations {
            eprintln!("error: {v}");
        }
        violations
    }

    fn write_artifact(&self, name: &str, contents: &str) -> io::Result<()> {
        std::fs::create_dir_all(&self.out)?;
        let path = self.out.join(name);
        std::fs::write(&path, contents)?;
        eprintln!("wrote {}", path.display());
        Ok(())
    }

    /// Unwraps an artifact-write result, exiting the process with status 1
    /// on failure (shared by the figure/perf binaries).
    pub fn require_written(&self, name: &str, result: io::Result<()>) {
        if let Err(e) = result {
            eprintln!(
                "error: cannot write {} under {}: {e}",
                name,
                self.out.display()
            );
            std::process::exit(1);
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: <bin> [--preset quick|paper-shape|full] [--seed N] \
         [--threads N] [--out DIR] [--ablation]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use serde_json::Value;

    /// The envelope every artifact opens with, in order.
    pub(crate) const ENVELOPE: [&str; 4] = ["schema", "preset", "seed", "entries"];

    /// Asserts that `json` parses and its first four keys are [`ENVELOPE`].
    pub(crate) fn assert_envelope(name: &str, json: &str) {
        let v = serde_json::from_str_value(json).unwrap_or_else(|e| panic!("{name}: {e}"));
        let Value::Object(fields) = v else {
            panic!("{name}: not an object");
        };
        let keys: Vec<&str> = fields.iter().take(4).map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ENVELOPE, "{name}");
    }

    /// Two same-seed quick runs: both render under the envelope and differ
    /// in timings only.
    pub(crate) fn assert_same_artifact(a: &impl Serialize, b: &impl Serialize) {
        let (a, b) = (
            serde_json::to_string_pretty(a).unwrap(),
            serde_json::to_string_pretty(b).unwrap(),
        );
        assert_envelope("a", &a);
        assert_envelope("b", &b);
        let drift = trend::diff_artifacts("run", &a, &b, 0.0).unwrap();
        assert!(drift.is_empty(), "{drift:?}");
    }

    /// The smallest artifact the gate reads: the envelope and one flag.
    #[derive(Serialize)]
    struct Flagged {
        schema: &'static str,
        preset: &'static str,
        seed: u64,
        entries: Vec<Entry>,
    }

    #[derive(Serialize)]
    struct Entry {
        objectives_agree: bool,
    }

    #[test]
    fn publish_writes_the_artifact_before_gating_it() {
        let out = std::env::temp_dir().join(format!("dls-bench-publish-{}", std::process::id()));
        let cli = Cli {
            out: out.clone(),
            preset: Preset::Quick,
            ..Cli::default()
        };
        let mut doctored = Flagged {
            schema: "dls-bench/test/v1",
            preset: "quick",
            seed: 3,
            entries: vec![Entry {
                objectives_agree: true,
            }],
        };
        assert!(cli.publish("BENCH_test.json", &doctored).is_empty());
        doctored.entries[0].objectives_agree = false;
        let violations = cli.publish("BENCH_test.json", &doctored);
        let written = std::fs::read_to_string(out.join("BENCH_test.json")).unwrap();
        let _ = std::fs::remove_dir_all(&out);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("entries[0]/objectives_agree"),
            "{violations:?}"
        );
        assert!(written.contains("\"objectives_agree\": false"), "{written}");
        assert_envelope("BENCH_test.json", &written);

        // An output path that cannot be a directory is a violation too.
        let blocked = Cli {
            out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"),
            ..cli
        };
        let v = blocked.publish("BENCH_test.json", &doctored);
        assert!(v[0].contains("cannot write"), "{v:?}");
    }
}
