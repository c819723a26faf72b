#![warn(missing_docs)]

//! Shared CLI plumbing for the figure/table regeneration binaries.
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

use dls_experiments::Preset;
use std::io;
use std::path::PathBuf;

pub mod lp_perf;
pub mod perf;
pub mod scenario_perf;
pub mod service_perf;
pub mod trend;

/// The `preset` value every BENCH artifact records.
pub(crate) fn preset_name(preset: Preset) -> &'static str {
    match preset {
        Preset::Quick => "quick",
        Preset::PaperShape => "paper-shape",
        Preset::Full => "full",
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
                other => usage(&format!("unknown argument {other}")),
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

    /// Writes a JSON artifact under the output directory.
    pub fn write_json(&self, name: &str, json: &str) -> io::Result<()> {
        self.write_artifact(name, json)
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

/// Fixed platform fixtures shared by the criterion benches.
pub mod fixtures {
    use dls_core::{Objective, ProblemInstance};
    use dls_platform::{PlatformConfig, PlatformGenerator};

    /// A deterministic instance with `k` clusters, moderate connectivity.
    pub fn instance(k: usize, objective: Objective) -> ProblemInstance {
        let cfg = PlatformConfig {
            num_clusters: k,
            connectivity: 0.4,
            heterogeneity: 0.4,
            mean_local_bw: 250.0,
            mean_backbone_bw: 30.0,
            mean_max_connections: 15.0,
            speed: 100.0,
            relay_routers: 0,
        };
        ProblemInstance::uniform(PlatformGenerator::new(7).generate(&cfg), objective)
    }
}
