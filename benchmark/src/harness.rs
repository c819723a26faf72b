//! What every workload shares: the phase driver (set-up → timed run → traced
//! run → verify → probes), the check counter, the expected-value files, and
//! the result line the benchmark contract asks for.

use crate::json;
use crate::metrics::{
    median, peak_rss_mb, percentile, process_cpu_s, supported_tails, Values, END_TO_END, PER_LAYER,
};
use crate::trace::{chrome_trace_json, coverage, ms_since, Tracer};
use serde::Value;
use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

/// Times set-up is repeated per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Divisor applied to the unit count by `--smoke` (checks stay on).
pub const SMOKE_DIVISOR: usize = 20;

/// The seed the committed `expected/` files were blessed at.
pub const BLESSED_SEED: u64 = 42;

/// Operations and output checks attempted and failed. An operation that
/// errors and an output that fails its check both count as failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Checks {
    /// Counts one operation or check; `what` names it when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Folds in the checks another thread counted.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(20);
    }
}

/// Per-instance reference values for the blessed seed, stored as one JSON
/// object of number arrays per workload under `benchmark/expected/`.
/// Instance `i` of a run is compared with entry `i`, so a shorter (smoke)
/// run checks a prefix. Other seeds carry no expectations: they run the
/// invariant checks only.
pub struct Expected {
    path: PathBuf,
    bless: bool,
    active: bool,
    doc: Vec<(String, Vec<f64>)>,
    dirty: bool,
}

impl Expected {
    pub fn load(workload: &str, seed: u64, bless: bool) -> Expected {
        let path = manifest_dir()
            .join("expected")
            .join(format!("{workload}.json"));
        let mut doc = Vec::new();
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Ok(Value::Object(entries)) = serde_json::from_str_value(&text) {
                for (k, v) in entries {
                    if let Value::Array(items) = v {
                        let xs = items
                            .iter()
                            .map(|x| json::as_f64(x).unwrap_or(f64::NAN))
                            .collect();
                        doc.push((k, xs));
                    }
                }
            }
        }
        Expected {
            path,
            bless,
            active: seed == BLESSED_SEED,
            doc,
            dirty: false,
        }
    }

    /// Compares `actual` with the stored array `key` entry by entry within
    /// `tol` relative (`0.0` = exact); when blessing, stores it instead.
    pub fn compare(&mut self, key: &str, actual: &[f64], tol: f64, checks: &mut Checks) {
        if !self.active {
            return;
        }
        if self.bless {
            self.doc.retain(|(k, _)| k != key);
            self.doc.push((key.to_string(), actual.to_vec()));
            self.dirty = true;
            return;
        }
        let stored = self.doc.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        checks.check(stored.is_some(), || {
            format!("{}: no `{key}` entry (run `bless`)", self.path.display())
        });
        let Some(stored) = stored else { return };
        for (i, (&a, &e)) in actual.iter().zip(stored).enumerate() {
            let ok = (a - e).abs() <= tol * (1.0 + a.abs().max(e.abs()));
            checks.check(ok, || {
                format!("{key}[{i}] = {a:?}, expected {e:?} (tol {tol:e})")
            });
        }
    }

    /// Writes the blessed values back (no-op unless blessing changed them).
    pub fn save(&self) -> std::io::Result<()> {
        if !self.dirty {
            return Ok(());
        }
        let doc = Value::Object(
            self.doc
                .iter()
                .map(|(k, xs)| {
                    let items = xs.iter().map(|&x| json::float(x)).collect();
                    (k.clone(), Value::Array(items))
                })
                .collect(),
        );
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&self.path, json::pretty(&doc))
    }
}

/// `benchmark/`, wherever the checkout lives.
pub fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// One named workload. A *unit* is the piece of input a run is sized in (an
/// instance, a session, a tenant script); a unit yields one or more timed
/// *operations*.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// One line: why the workload exists.
    const WHY: &'static str;
    /// Units that fit in one second on the 2-core reference box; `--seconds`
    /// times this is the run's unit count, so the work is fixed per seed.
    const UNITS_PER_SECOND: f64;

    /// Generates `units` inputs from `seed`, builds whatever the operations
    /// need (policies, a daemon) and runs one warm-up operation. Timed as
    /// `setup_s`. Set-up may leave per-layer values it measured in `layer`.
    fn setup(seed: u64, units: usize, layer: &mut Values) -> Self;

    /// Runs the operations of input units `units`, returning each
    /// operation's latency in milliseconds. `round` is 0 for an untraced run
    /// and 1 for the traced run of the same inputs (a daemon needs fresh
    /// tenant names then). Cheap output checks run here; oracle work does
    /// not.
    fn run(
        &mut self,
        units: Range<usize>,
        round: u32,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Vec<f64>;

    /// Units per timed block: the grain at which machine speed is sampled,
    /// and at which the traced run pairs an untraced with a traced reading.
    const BLOCK: usize = 1;

    /// Rebuilds per-unit state a run consumed, before the units run again.
    fn rearm(&mut self, _units: Range<usize>) {}

    /// Untimed: oracle runs and checks of the outputs the runs retained.
    fn verify(&mut self, expected: &mut Expected, checks: &mut Checks);

    /// Traced run only: stage-by-stage re-execution that fills the per-layer
    /// values the operation spans cannot give.
    fn probe(&mut self, tracer: &mut Tracer, layer: &mut Values, checks: &mut Checks);

    /// Stops whatever set-up started (threads, sockets).
    fn teardown(self) {}
}

/// Runs `op` on every unit of `units`, returning each call's duration in
/// milliseconds — the `run` of a workload whose unit is one operation.
pub fn time_each(units: Range<usize>, mut op: impl FnMut(usize)) -> Vec<f64> {
    units
        .map(|i| {
            let t0 = Instant::now();
            op(i);
            ms_since(t0)
        })
        .collect()
}

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub bless: bool,
}

/// What one workload run produced.
#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub checks: Checks,
    /// Every declared metric of the run's kind (end-to-end or per-layer).
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// `name unit value` lines an untraced run prints beside its metrics:
    /// the sample count, the tail percentiles it supports, the machine's
    /// slowness, and the timings as measured, before it was divided out.
    pub also: Vec<(&'static str, &'static str, Option<f64>)>,
}

/// The machine-speed reference: one streaming pass over a 16 MB array.
///
/// The reference box is a small VM whose neighbours contend for cache and
/// memory bandwidth, in bursts and in phases that outlast a run: the same
/// operation on the same input reads up to a third slower from one run to the
/// next while an ALU-only loop barely moves (see `README.md`, "The noise
/// floor"). A run cannot average that away, so one pass of this kernel is
/// timed after every block of operations, and the run's timings are divided
/// by how slow the median pass was. The kernel lives here, outside the
/// product, so a change to the product cannot move it.
pub struct MachineSpeed {
    buf: Vec<f64>,
}

/// Milliseconds one [`MachineSpeed`] pass takes on the quiet reference box
/// when the buffer has to come from memory: the unit slowness is measured in.
const REFERENCE_PASS_MS: f64 = 3.2;

impl MachineSpeed {
    pub fn new() -> MachineSpeed {
        MachineSpeed {
            buf: vec![0.3; 2 * 1024 * 1024],
        }
    }

    /// One pass, as a ratio of the reference pass. Taken right after a block
    /// of operations, when the operations have pushed the buffer out of cache.
    fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0.0;
        for v in self.buf.iter_mut() {
            *v = *v * 1.000_000_1 + 0.5;
            acc += *v;
        }
        std::hint::black_box(acc);
        ms_since(t0) / REFERENCE_PASS_MS
    }
}

/// Timings of a stretch of operations, as measured.
#[derive(Default)]
struct Phase {
    /// Every operation's latency.
    lat_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    /// One machine-speed sample per block.
    speed: Vec<f64>,
}

impl Phase {
    fn op_time_ms(&self) -> f64 {
        self.lat_ms.iter().sum()
    }

    fn append(&mut self, other: Phase) {
        self.lat_ms.extend(other.lat_ms);
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        self.speed.extend(other.speed);
    }
}

/// Runs one block of units, then samples the machine speed.
fn timed_block<W: Workload>(
    w: &mut W,
    units: Range<usize>,
    round: u32,
    tracer: &mut Tracer,
    checks: &mut Checks,
    speed: &mut MachineSpeed,
) -> Phase {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let lat_ms = w.run(units, round, tracer, checks);
    Phase {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
        lat_ms,
        speed: vec![speed.sample()],
    }
}

/// Block `b` of `0..units`, `W::BLOCK` units long.
fn blocks<W: Workload>(units: usize) -> impl Iterator<Item = Range<usize>> {
    (0..units)
        .step_by(W::BLOCK)
        .map(move |start| start..(start + W::BLOCK).min(units))
}

/// The end-to-end run: every unit once, tracing off, block by block.
fn untraced_phase<W: Workload>(
    w: &mut W,
    units: usize,
    checks: &mut Checks,
    speed: &mut MachineSpeed,
) -> Phase {
    let mut phase = Phase::default();
    for block in blocks::<W>(units) {
        phase.append(timed_block(w, block, 0, &mut Tracer::off(), checks, speed));
    }
    phase
}

/// The traced run: the first half of the units, each block of them run twice
/// back to back — once with spans off, once with spans on, alternating which
/// goes first — so the two readings of a block see the same machine. Returns
/// the untraced readings; leaves `trace.overhead_frac`, the median over
/// blocks of traced over untraced operation time, minus one.
fn paired_phases<W: Workload>(
    w: &mut W,
    units: usize,
    tracer: &mut Tracer,
    layer: &mut Values,
    checks: &mut Checks,
    speed: &mut MachineSpeed,
) -> Phase {
    let mut untraced = Phase::default();
    let mut ratios = Vec::new();
    for (b, block) in blocks::<W>((units / 2).max(1)).enumerate() {
        let traced_first = b % 2 == 1;
        let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
        for pass in [0, 1] {
            if pass == 1 {
                w.rearm(block.clone());
            }
            if (pass == 0) == traced_first {
                traced_ms = timed_block(w, block.clone(), 1, tracer, checks, speed).op_time_ms();
            } else {
                let plain = timed_block(w, block.clone(), 0, &mut Tracer::off(), checks, speed);
                plain_ms = plain.op_time_ms();
                untraced.append(plain);
            }
        }
        if plain_ms > 0.0 {
            ratios.push(traced_ms / plain_ms);
        }
    }
    layer.insert("trace.overhead_frac", median(&ratios) - 1.0);
    untraced
}

/// Cost of one empty span, from a tight loop of them.
fn span_cost_ns() -> f64 {
    const N: u32 = 100_000;
    let mut t = Tracer::new(true, Instant::now(), 0);
    let t0 = Instant::now();
    for _ in 0..N {
        t.span("x", |_| std::hint::black_box(()));
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

/// Drives one workload through its phases.
pub fn drive<W: Workload>(args: &RunArgs) -> RunResult {
    let mut units = (W::UNITS_PER_SECOND * args.seconds).round().max(1.0) as usize;
    if args.smoke {
        units = (units / SMOKE_DIVISOR).max(2);
    }
    let mut checks = Checks::default();
    let mut layer = Values::new();
    let mut speed = MachineSpeed::new();

    // Set-up, several times over; the last instance is the one that runs.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_speed = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = state.take() {
            W::teardown(prev);
        }
        let t0 = Instant::now();
        state = Some(W::setup(args.seed, units, &mut layer));
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_speed.push(speed.sample());
    }
    let mut w = state.expect("SETUP_REPS > 0");

    // End-to-end numbers come from a run with tracing off; the traced run
    // does the same amount of work as untraced/traced pairs.
    let mut tracer = Tracer::new(args.trace, Instant::now(), 0);
    let base = if args.trace {
        paired_phases(
            &mut w,
            units,
            &mut tracer,
            &mut layer,
            &mut checks,
            &mut speed,
        )
    } else {
        untraced_phase(&mut w, units, &mut checks, &mut speed)
    };
    let rss_mb = peak_rss_mb();
    let ops = base.lat_ms.len().max(1) as f64;

    let mut expected = Expected::load(W::NAME, args.seed, args.bless);
    w.verify(&mut expected, &mut checks);
    if let Err(e) = expected.save() {
        checks.check(false, || format!("writing expected values: {e}"));
    }

    if args.trace {
        w.probe(&mut tracer, &mut layer, &mut checks);
        layer.insert("trace.spans", tracer.spans().len() as f64);
        layer.insert("trace.span_ns", span_cost_ns());
        if let Some(c) = coverage(tracer.spans()) {
            layer.insert("trace.coverage", c);
        }
        let out = manifest_dir().join("out");
        let path = out.join(format!("trace-{}.json", W::NAME));
        let written = std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&path, chrome_trace_json(W::NAME, tracer.spans())));
        if let Err(e) = written {
            checks.check(false, || format!("writing {}: {e}", path.display()));
        }
    }
    w.teardown();

    // Timings are as measured, divided by how slow the machine was: the
    // median machine-speed sample of the stretch (rates are multiplied).
    let slow = median(&base.speed);
    let (has_p90, has_p99) = supported_tails(base.lat_ms.len());
    let p90_ms = has_p90.then(|| percentile(&base.lat_ms, 0.90) / slow);
    let p99_ms = has_p99.then(|| percentile(&base.lat_ms, 0.99) / slow);
    let (specs, values) = if args.trace {
        layer.insert("e2e.op_samples", ops);
        layer.insert("e2e.op_p90_ms", p90_ms.unwrap_or(0.0));
        layer.insert("e2e.op_p99_ms", p99_ms.unwrap_or(0.0));
        layer.insert("e2e.checks", checks.attempted as f64);
        (PER_LAYER, layer)
    } else {
        let end_to_end = Values::from([
            ("setup_s", median(&setup_s) / median(&setup_speed)),
            ("ops_per_s", ops / base.wall_s * slow),
            ("op_p50_ms", median(&base.lat_ms) / slow),
            ("cpu_ms_per_op", base.cpu_s * 1e3 / ops / slow),
            ("peak_rss_mb", rss_mb),
        ]);
        (END_TO_END, end_to_end)
    };
    // A per-layer metric its workload never filled reads 0: not on the path.
    let metrics = specs
        .iter()
        .map(|m| (m.name, m.unit, values.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    let also = if args.trace {
        Vec::new()
    } else {
        vec![
            ("op_samples", "count", Some(ops)),
            ("op_p90_ms", "ms", p90_ms),
            ("op_p99_ms", "ms", p99_ms),
            ("machine_slowness", "ratio", Some(slow)),
            ("raw_ops_per_s", "1/s", Some(ops / base.wall_s)),
            ("raw_op_p50_ms", "ms", Some(median(&base.lat_ms))),
        ]
    };
    RunResult {
        workload: W::NAME,
        checks,
        metrics,
        also,
    }
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// The result as a JSON value: the contract's four keys.
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, unit, value)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), json::float(value)),
                        ("unit".into(), Value::String(unit.into())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), json::int(self.checks.attempted.max(1))),
            ("failed".into(), json::int(self.checks.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }

    /// Prints one `workload name unit value` line per metric, then the
    /// result object as the last line of standard output.
    pub fn print(&self) {
        for (name, unit, value) in &self.metrics {
            println!("{} {name} {unit} {value}", self.workload);
        }
        for (name, unit, value) in &self.also {
            match value {
                Some(v) => println!("{} {name} {unit} {v}", self.workload),
                None => println!("{} {name} {unit} null", self.workload),
            }
        }
        for note in self.checks.notes() {
            println!("{} FAILED {note}", self.workload);
        }
        println!("{}", json::compact(&self.to_value()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_and_keep_the_first_notes() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        c.check(false, || "boom".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.notes(), ["boom".to_string()]);
    }

    #[test]
    fn expected_compares_a_prefix_and_only_at_the_blessed_seed() {
        let mut e = Expected {
            path: PathBuf::from("unused.json"),
            bless: false,
            active: true,
            doc: vec![("k".into(), vec![1.0, 2.0, 3.0])],
            dirty: false,
        };
        let mut c = Checks::default();
        e.compare("k", &[1.0, 2.0], 0.0, &mut c);
        assert_eq!((c.attempted, c.failed), (3, 0));
        e.compare("k", &[1.0, 2.5], 1e-9, &mut c);
        assert_eq!(c.failed, 1);
        e.compare("missing", &[1.0], 0.0, &mut c);
        assert_eq!(c.failed, 2);
        e.active = false;
        let before = c.attempted;
        e.compare("k", &[9.0], 0.0, &mut c);
        assert_eq!(c.attempted, before);
    }
}
