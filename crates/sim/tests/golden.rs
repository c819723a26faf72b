//! Bit-level goldens for both simulators under both engine cores.
//!
//! `tests/golden/*.txt` pin whole [`SimReport`]s and one scripted
//! [`LiveSim`] event log, floats as `to_bits()` hex, so a refactor of the
//! fluid cores shows up as a diff of exactly the rows it moved. A mismatch
//! fails with a table of the moved fields: per hex-float field the rows it
//! moved in and its worst relative move, and any other field (`events`,
//! `peak`, the row labels) named with its lines. Regenerate with
//! `GOLDEN_BLESS=1 cargo test -p dls_sim --test golden -- --nocapture`,
//! which prints the same table, and review the diff: a row may only change
//! when the PR says why.

use dls_core::heuristics::{Greedy, Heuristic, Lprg};
use dls_core::schedule::ScheduleBuilder;
use dls_core::{Objective, ProblemInstance};
use dls_platform::{ClusterId, PlatformConfig, PlatformGenerator};
use dls_sim::{
    AllocStats, BandwidthModel, ChunkPart, LiveConfig, LiveFlowSpec, LiveSim, SimConfig, SimEngine,
    SimReport, Simulator,
};
use std::fmt::Write as _;
use std::path::PathBuf;

const MODELS: [BandwidthModel; 2] = [BandwidthModel::MaxMinFair, BandwidthModel::EqualSplit];
const ENGINES: [SimEngine; 2] = [SimEngine::Incremental, SimEngine::FullRecompute];

fn bits(xs: &[f64]) -> String {
    let hex: Vec<String> = xs.iter().map(|x| format!("{:016x}", x.to_bits())).collect();
    format!("[{}]", hex.join(" "))
}

/// Compares `actual` with `tests/golden/{name}`. A mismatch fails with the
/// table of moved fields (see [`moved_fields`]); under `GOLDEN_BLESS=1` the
/// same table is printed and the file rewritten.
fn check(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected = std::fs::read_to_string(&path);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        if let Some(table) = expected.ok().and_then(|e| moved_fields(&e, actual)) {
            eprintln!("{name}: re-blessed\n{table}");
        }
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected =
        expected.unwrap_or_else(|e| panic!("{}: {e} (run with GOLDEN_BLESS=1)", path.display()));
    if let Some(table) = moved_fields(&expected, actual) {
        panic!("{name} moved\n{table}");
    }
}

/// Splits a golden row into `(field, value)` pairs: a `field=value` token
/// is one pair, the bare tokens (the row's labels) together form the
/// `label` pair, and a bracketed list (`[a b]`, `[1, 2]`) stays whole.
fn fields(line: &str) -> Vec<(&str, String)> {
    let (mut tokens, mut depth, mut start) = (Vec::new(), 0i32, 0);
    for (i, ch) in line.char_indices() {
        match ch {
            '[' => depth += 1,
            ']' => depth -= 1,
            ' ' if depth == 0 => {
                tokens.push(&line[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    tokens.push(&line[start..]);
    let mut labels = Vec::new();
    let mut out = Vec::new();
    for tok in tokens.into_iter().filter(|t| !t.is_empty()) {
        match tok.split_once('=') {
            Some((field, value)) => out.push((field, value.to_string())),
            None => labels.push(tok),
        }
    }
    out.insert(0, ("label", labels.join(" ")));
    out
}

/// Decodes a value written by `{:016x}` of `to_bits()` or by [`bits`].
fn hex_floats(value: &str) -> Option<Vec<f64>> {
    let one = |h: &str| {
        (h.len() == 16)
            .then(|| u64::from_str_radix(h, 16).ok())
            .flatten()
            .map(f64::from_bits)
    };
    match value.strip_prefix('[').and_then(|v| v.strip_suffix(']')) {
        Some(list) => list.split_whitespace().map(one).collect(),
        None => one(value).map(|x| vec![x]),
    }
}

/// Largest relative move between two equally long float lists.
fn worst_relative_move(want: &[f64], got: &[f64]) -> f64 {
    want.iter()
        .zip(got)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .map(|(a, b)| {
            let scale = a.abs().max(b.abs());
            if scale > 0.0 && scale.is_finite() {
                (a - b).abs() / scale
            } else {
                f64::INFINITY
            }
        })
        .fold(0.0, f64::max)
}

/// The per-field table of how `actual` differs from `expected`, or `None`
/// when they are identical. A hex-float field (scalar or list) that moved
/// reports how many rows it moved in and its worst relative move; any
/// other moved field (`events`, `peak`, the labels, a float list whose
/// length changed) is named outright with its line numbers, and so is a
/// change in the number of rows.
fn moved_fields(expected: &str, actual: &str) -> Option<String> {
    // (field, rows moved, worst relative move, lines of non-float moves)
    let mut moves: Vec<(String, usize, f64, Vec<usize>)> = Vec::new();
    let mut note = |field: &str, line: usize, rel: Option<f64>| {
        let i = moves.iter().position(|m| m.0 == field).unwrap_or_else(|| {
            moves.push((field.to_string(), 0, 0.0, Vec::new()));
            moves.len() - 1
        });
        let m = &mut moves[i];
        m.1 += 1;
        match rel {
            Some(r) => m.2 = m.2.max(r),
            None => m.3.push(line),
        }
    };
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        if want == got {
            continue;
        }
        let (want, got) = (fields(want), fields(got));
        let value = |row: &[(&str, String)], field: &str| {
            row.iter()
                .find(|(f, _)| *f == field)
                .map(|(_, v)| v.clone())
        };
        let mut names: Vec<&str> = Vec::new();
        for &(field, _) in want.iter().chain(&got) {
            if !names.contains(&field) {
                names.push(field);
            }
        }
        for field in names {
            let (a, b) = (value(&want, field), value(&got, field));
            if a == b {
                continue;
            }
            let rel = a
                .as_deref()
                .and_then(hex_floats)
                .zip(b.as_deref().and_then(hex_floats))
                .filter(|(x, y)| x.len() == y.len())
                .map(|(x, y)| worst_relative_move(&x, &y));
            note(field, i + 1, rel);
        }
    }
    let (n_want, n_got) = (expected.lines().count(), actual.lines().count());
    if n_want != n_got {
        note(
            &format!("rows {n_want} -> {n_got}"),
            n_want.min(n_got) + 1,
            None,
        );
    }
    if moves.is_empty() {
        return None;
    }
    let mut table = String::from("  field        rows moved  worst relative move\n");
    for (field, rows, rel, lines) in &moves {
        if lines.is_empty() {
            writeln!(table, "  {field:<12} {rows:>10}  {rel:.1e}").unwrap();
        } else {
            writeln!(
                table,
                "  {field:<12} {rows:>10}  not a float: lines {lines:?}"
            )
            .unwrap();
        }
    }
    Some(table)
}

#[test]
fn moved_fields_names_each_field_and_its_worst_move() {
    let row = |events: u32, eff: f64, measured: [f64; 2]| {
        format!(
            "k=8 seed=1 MaxMinFair Incremental events={events} peak=[1, 2] \
             efficiency={:016x} measured={}",
            eff.to_bits(),
            bits(&measured)
        )
    };
    let entry = |table: &str, field: &str| {
        table
            .lines()
            .find(|l| l.trim_start().starts_with(field))
            .map(str::to_string)
    };
    let before = [row(10, 0.5, [1.0, 2.0]), row(12, 0.75, [3.0, 4.0])].join("\n");
    assert_eq!(moved_fields(&before, &before), None);

    let nudged = [
        row(10, 0.5 + f64::EPSILON, [1.0, 2.0]),
        row(12, 0.75, [3.0, 4.0 + 4e-12]),
    ]
    .join("\n");
    let table = moved_fields(&before, &nudged).unwrap();
    assert!(
        entry(&table, "efficiency")
            .unwrap()
            .ends_with(" 1  4.4e-16"),
        "{table}"
    );
    assert!(
        entry(&table, "measured").unwrap().ends_with(" 1  1.0e-12"),
        "{table}"
    );
    assert_eq!(entry(&table, "events"), None, "{table}");

    let recounted = [row(10, 0.5, [1.0, 2.0]), row(13, 0.75, [3.0, 4.0])].join("\n");
    let table = moved_fields(&before, &recounted).unwrap();
    assert!(
        entry(&table, "events")
            .unwrap()
            .ends_with("not a float: lines [2]"),
        "{table}"
    );
    let relabelled = before.replace("Incremental", "FullRecompute");
    let table = moved_fields(&before, &relabelled).unwrap();
    assert!(
        entry(&table, "label").unwrap().ends_with("lines [1, 2]"),
        "{table}"
    );
    let table = moved_fields(&before, &row(10, 0.5, [1.0, 2.0])).unwrap();
    assert!(entry(&table, "rows 2 -> 1").is_some(), "{table}");
}

/// The paper-shape platform (`dls_scenario::catalog::paper_shape_instance`,
/// restated here because `dls_scenario` depends on this crate).
fn paper_shape(k: usize, seed: u64) -> ProblemInstance {
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
    ProblemInstance::with_spread_payoffs(
        PlatformGenerator::new(seed).generate(&cfg),
        Objective::MaxMin,
        0.5,
        seed ^ 0x9e37_79b9_7f4a_7c15,
    )
}

fn report_row(r: &SimReport) -> String {
    format!(
        "events={} peak={:?} efficiency={:016x} lateness={:016x} backlog={:016x} \
         measured={} utilization={}",
        r.events,
        r.peak_connections,
        r.efficiency.to_bits(),
        r.max_transfer_lateness.to_bits(),
        r.max_compute_backlog.to_bits(),
        bits(&r.measured),
        bits(&r.local_link_utilization),
    )
}

#[test]
fn periodic_reports_are_pinned() {
    let mut out = String::new();
    for (k, seed) in [(8usize, 1u64), (10, 2), (12, 3)] {
        let inst = paper_shape(k, seed);
        let alloc = Lprg::default().solve(&inst).unwrap();
        let schedule = ScheduleBuilder::default().build(&inst, &alloc).unwrap();
        assert!(
            !schedule.transfers.is_empty(),
            "seed {seed}: no network use"
        );
        for model in MODELS {
            for engine in ENGINES {
                let report = Simulator::new(&inst).run(
                    &schedule,
                    &SimConfig {
                        periods: 12,
                        bandwidth_model: model,
                        engine,
                        ..SimConfig::default()
                    },
                );
                writeln!(
                    out,
                    "k={k} seed={seed} {model:?} {engine:?} {}",
                    report_row(&report)
                )
                .unwrap();
            }
        }
    }
    check("periodic.txt", &out);
}

/// Long periodic runs: hundreds of boundaries that re-pose the same
/// batch-spawn bandwidth subproblem, plus one deliberately late run whose
/// stragglers cross boundaries, so the boundary solve sees repeats,
/// variants and one-off states in a single file.
#[test]
fn long_periodic_reports_are_pinned() {
    const PERIODS: usize = 300;
    let run = |inst: &ProblemInstance, on: &ProblemInstance, engine| {
        let alloc = Greedy::default().solve(inst).unwrap();
        let schedule = ScheduleBuilder::default().build(inst, &alloc).unwrap();
        assert!(!schedule.transfers.is_empty(), "no network use");
        Simulator::new(on).run(
            &schedule,
            &SimConfig {
                periods: PERIODS,
                engine,
                ..SimConfig::default()
            },
        )
    };
    let mut out = String::new();
    for (k, seed, engines) in [(20usize, 4u64, &ENGINES[..]), (40, 5, &ENGINES[..1])] {
        let inst = paper_shape(k, seed);
        for &engine in engines {
            let report = run(&inst, &inst, engine);
            writeln!(
                out,
                "k={k} seed={seed} MaxMinFair {engine:?} {}",
                report_row(&report)
            )
            .unwrap();
        }
    }
    // The K = 20 schedule on a platform whose local links lost half, then
    // 60 %, of their capacity (the busiest link is reserved to 50 %, so a
    // milder cut still runs on time): the reservations no longer fit,
    // transfers finish late and are still live when the next boundary
    // spawns its batch — a bounded straggler set at × 0.5, a growing one at
    // × 0.4.
    let inst = paper_shape(20, 4);
    for factor in [0.5, 0.4] {
        let mut slow = inst.clone();
        for c in &mut slow.platform.clusters {
            c.local_bw *= factor;
        }
        let report = run(&inst, &slow, SimEngine::Incremental);
        assert!(
            report.max_transfer_lateness > 0.0,
            "the throttled run was meant to be late"
        );
        writeln!(
            out,
            "k=20 seed=4 local_bw*{factor} MaxMinFair Incremental {}",
            report_row(&report)
        )
        .unwrap();
    }
    check("periodic_long.txt", &out);
}

/// The counters behind the K = 40 row above: its boundaries re-pose one
/// subproblem, so all but the first are answered from the allocator's memo.
#[test]
fn long_periodic_boundaries_are_answered_from_the_memo() {
    let inst = paper_shape(40, 5);
    let alloc = Greedy::default().solve(&inst).unwrap();
    let schedule = ScheduleBuilder::default().build(&inst, &alloc).unwrap();
    let periods = 300;
    let cfg = SimConfig {
        periods,
        ..SimConfig::default()
    };
    let (report, stats) = Simulator::new(&inst).run_counted(&schedule, &cfg);
    assert_eq!(report.events, 14701);
    let boundary_solves = stats.memo_hits + stats.memo_misses;
    assert!(boundary_solves >= periods as u64, "{stats:?}");
    assert!(stats.memo_hits * 10 >= boundary_solves * 9, "{stats:?}");
    // Unmemoised, every boundary runs about one filling round per transfer.
    let unmemoised = (periods * schedule.transfers.len()) as u64;
    assert!(stats.filling_rounds * 100 < unmemoised * 15, "{stats:?}");
    // On this on-time schedule no completion dirties a flow: the boundaries
    // are the only subproblems.
    assert_eq!(stats.subproblems, boundary_solves, "{stats:?}");
    assert!(stats.updates > stats.subproblems, "{stats:?}");

    // The reference core has no allocator to count.
    let slow = SimConfig {
        periods: 3,
        engine: SimEngine::FullRecompute,
        ..SimConfig::default()
    };
    let (_, none) = Simulator::new(&inst).run_counted(&schedule, &slow);
    assert_eq!(none, AllocStats::default());
}

fn flow(src: u32, dst: u32, cap: f64, demand: f64, parts: &[(u32, f64)]) -> LiveFlowSpec {
    LiveFlowSpec {
        src: ClusterId(src),
        dst: ClusterId(dst),
        cap,
        demand,
        parts: parts
            .iter()
            .map(|&(job, amount)| ChunkPart { job, amount })
            .collect(),
    }
}

/// One scripted timeline touching every mutation: batched adds with
/// reservations and caps, a retire mid-transfer, capacity and speed drift
/// down to an outage, a stall/heal through `set_flow_constraints`, a queue
/// purge, slot reuse, and advances that stop between events.
fn live_script(model: BandwidthModel, engine: SimEngine) -> String {
    let mut out = String::new();
    let mut sim = LiveSim::new(
        &[20.0, 15.0, 30.0, 25.0],
        &[4.0, 3.0, 5.0, 2.0],
        LiveConfig {
            bandwidth_model: model,
            engine,
            oracle_check: false,
            record_events: true,
        },
    );
    let a = sim.add_flows(vec![
        flow(0, 1, 9.0, 2.0, &[(0, 7.5), (1, 3.25)]),
        flow(0, 2, f64::INFINITY, 0.0, &[(2, 21.0)]),
        flow(3, 1, 6.0, 1.5, &[(3, 11.0)]),
        flow(2, 3, 12.0, 4.0, &[(4, 5.0), (5, 9.5)]),
    ]);
    sim.enqueue_compute(ClusterId(0), 90, 6.0);
    sim.advance_to(0.4);
    sim.update_link_capacity(ClusterId(0), 11.0);
    sim.advance_to(0.9);
    let b = sim.add_flows(vec![
        flow(1, 0, 7.0, 0.5, &[(6, 4.0)]),
        flow(1, 3, 3.0, 3.0, &[(7, 8.0)]),
    ]);
    sim.set_flow_constraints(a[2], 0.0, 0.0);
    sim.advance_to(1.3);
    for r in sim.retire_flows(&[a[1], b[1]]) {
        writeln!(out, "retired shipped={:016x}", r.shipped.to_bits()).unwrap();
    }
    sim.update_speed(ClusterId(1), 0.75);
    sim.advance_to(2.05);
    sim.update_link_capacity(ClusterId(1), 0.0);
    sim.advance_to(2.6);
    sim.set_flow_constraints(a[2], 6.0, 1.5);
    sim.update_link_capacity(ClusterId(1), 18.0);
    sim.add_flows(vec![
        flow(2, 0, f64::INFINITY, 0.0, &[(8, 13.0)]),
        flow(3, 0, 5.0, 0.0, &[]),
        flow(0, 3, 8.0, 2.0, &[(9, 2.0), (10, 2.0), (11, 2.0)]),
    ]);
    sim.advance_to(3.1);
    for p in sim.purge_queue(ClusterId(3)) {
        writeln!(
            out,
            "purged job={} remaining={:016x}",
            p.job,
            p.remaining.to_bits()
        )
        .unwrap();
    }
    sim.update_link_capacity(ClusterId(2), 7.5);
    sim.advance_to(4.45);
    sim.add_flows(vec![flow(1, 2, 10.0, 1.0, &[(12, 6.0)])]);
    sim.advance_to(200.0);
    assert!(sim.idle(), "{engine:?} left work behind");
    writeln!(out, "processed={}", sim.events_processed()).unwrap();
    for e in sim.event_log() {
        writeln!(
            out,
            "{:?} t={:016x} cluster={} job={} amount={:016x}",
            e.kind,
            e.time.to_bits(),
            e.cluster,
            e.job,
            e.amount.to_bits()
        )
        .unwrap();
    }
    out
}

#[test]
fn live_event_logs_are_pinned() {
    for model in MODELS {
        for engine in ENGINES {
            check(
                &format!("live_{model:?}_{engine:?}.txt"),
                &live_script(model, engine),
            );
        }
    }
}
