//! Pivot-sequence fingerprints of the LP path.
//!
//! `tests/golden/lp_fingerprint/*.txt` pin what the benchmark's 1e-9 plan
//! comparison cannot: pivot counts, the final basis column by column,
//! objective bits and factor sizes of a cold solve, the counters after a
//! scripted 12-pin warm replay, and a whole 24-probe pin sweep — under both
//! objectives, on the context's own basis representation and on a forced
//! sparse LU. A kernel change that claims "same pivots, bit for bit" must
//! leave every line untouched. Regenerate with
//! `GOLDEN_BLESS=1 cargo test --release -p dls_core --test lp_fingerprint`
//! and review the diff: a line may only move when the PR says why. Debug and
//! release builds produce the same bits; CI runs the file in both.

use dls_core::formulation::LpFormulation;
use dls_core::heuristics::Lprr;
use dls_core::{paper_shape_instance, Objective, ProblemInstance};
use dls_lp::{BasisRepr, RevisedSimplex, Solution, Status, WarmSimplex};
use dls_platform::{ClusterId, PlatformBuilder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::path::PathBuf;

const OBJECTIVES: [Objective; 2] = [Objective::Sum, Objective::MaxMin];
const REPLAY_PINS: usize = 12;
const SWEEP_PROBES: usize = 24;

fn check(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/lp_fingerprint")
        .join(name);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with GOLDEN_BLESS=1)", path.display()));
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "{name}: line {} moved", i + 1);
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "{name}: line count moved"
    );
}

/// Fully-meshed islands of 8 clusters with no inter-island links — the
/// block-diagonal shape of the benchmark's `plan_island` inputs.
fn island(k: usize, seed: u64) -> ProblemInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x51a9_d05e_c0de_0001);
    let mut b = PlatformBuilder::new();
    let clusters: Vec<ClusterId> = (0..k)
        .map(|_| b.add_cluster(100.0, rng.gen_range(150.0..350.0)))
        .collect();
    for island in clusters.chunks(8) {
        for (i, &a) in island.iter().enumerate() {
            for &c in &island[i + 1..] {
                let bw = rng.gen_range(10.0..50.0);
                let conn: u32 = rng.gen_range(5..25);
                b.connect_clusters(a, c, bw, conn);
            }
        }
    }
    ProblemInstance::with_spread_payoffs(
        b.build().expect("island platform is valid"),
        Objective::MaxMin,
        0.5,
        seed ^ 0x9e37_79b9_7f4a_7c15,
    )
}

fn bits(xs: impl IntoIterator<Item = f64>) -> String {
    let hex: Vec<String> = xs
        .into_iter()
        .map(|x| format!("{:016x}", x.to_bits()))
        .collect();
    format!("[{}]", hex.join(" "))
}

fn optimal(sol: Solution) -> Solution {
    assert_eq!(sol.status, Status::Optimal);
    sol
}

/// FNV-1a over the basis columns: the replayed basis is pinned by hash, the
/// cold one column by column.
fn basis_hash(cols: &[usize]) -> u64 {
    cols.iter().fold(0xcbf2_9ce4_8422_2325, |h, &c| {
        (h ^ c as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Cold solve of the warm relaxation, then a deterministic 12-pin replay
/// (`pin_beta` + `solve`) over every third candidate with β̃ > 0: even steps
/// round β̃ to the nearest integer (clamped to the route's remaining
/// connections), odd steps close the route (β = 0), which forces real dual
/// and primal repair work.
fn cold_and_replay(inst: &ProblemInstance, repr: BasisRepr, out: &mut String) {
    let p = &inst.platform;
    let k = p.num_clusters();
    let mut f = LpFormulation::relaxation_warm(inst).unwrap();
    let params = RevisedSimplex { basis_repr: repr };
    let mut w = WarmSimplex::new(f.model.clone(), params).unwrap();
    let mut sol = optimal(w.solve().unwrap());
    let stats = w.factor_stats().expect("factorised after a solve");
    writeln!(
        out,
        "cold iterations={} objective={:016x} factor_nnz={} refactorisations={}",
        sol.iterations,
        sol.objective.to_bits(),
        stats.factor_nnz,
        stats.refactorisations,
    )
    .unwrap();
    writeln!(out, "cold basis={:?}", w.basis().unwrap().cols()).unwrap();

    let mut unfixed: Vec<(ClusterId, ClusterId)> = p
        .routed_pairs()
        .into_iter()
        .filter(|&(from, to)| {
            p.route_bottleneck_bw(from, to)
                .is_some_and(|bw| bw.is_finite())
        })
        .collect();
    let mut link_budget: Vec<i64> = p.links.iter().map(|l| l.max_connections as i64).collect();
    let mut objectives = Vec::new();
    for step in 0..REPLAY_PINS.min(unfixed.len()) {
        let frac = f.extract_fractional(&sol);
        let beta = |&(from, to): &(ClusterId, ClusterId)| frac.beta[from.index() * k + to.index()];
        let nonzero: Vec<usize> = (0..unfixed.len())
            .filter(|&i| beta(&unfixed[i]) > 1e-9)
            .collect();
        let pick = if nonzero.is_empty() {
            (3 * step) % unfixed.len()
        } else {
            nonzero[(3 * step) % nonzero.len()]
        };
        let (from, to) = unfixed.remove(pick);
        let route = p.route(from, to).expect("routed pair has a route");
        let budget = route
            .iter()
            .map(|l| link_budget[l.index()])
            .min()
            .unwrap_or(i64::MAX);
        let v = if step % 2 == 0 {
            ((beta(&(from, to)) + 0.5).floor() as i64).clamp(0, budget)
        } else {
            0
        };
        for l in route {
            link_budget[l.index()] -= v;
        }
        let delta = f.pin_beta(inst, from, to, v as u32).unwrap();
        w.set_var_bounds(delta.var, delta.lo, delta.up).unwrap();
        for &(con, var) in &delta.coef_zeroed {
            w.set_coefficient(con, var, 0.0).unwrap();
        }
        for &(con, rhs) in &delta.rhs {
            w.set_rhs(con, rhs).unwrap();
        }
        sol = optimal(w.solve().unwrap());
        objectives.push(sol.objective);
    }
    writeln!(out, "replay objectives={}", bits(objectives)).unwrap();
    writeln!(out, "replay stats={:?}", w.stats()).unwrap();
    let basis = w.basis().unwrap();
    writeln!(
        out,
        "replay factor_nnz={} basis_hash={:016x}",
        w.factor_stats().unwrap().factor_nnz,
        basis_hash(basis.cols())
    )
    .unwrap();
}

fn sweep(inst: &ProblemInstance, out: &mut String) {
    let report = Lprr::new(7).pin_sweep(inst, SWEEP_PROBES).unwrap();
    for p in &report.probes {
        writeln!(
            out,
            "probe {}->{} v={} objective={:016x}",
            p.from.index(),
            p.to.index(),
            p.v,
            p.objective.to_bits()
        )
        .unwrap();
    }
    writeln!(
        out,
        "sweep best={:?} base={:016x} best_objective={:016x}",
        report.best,
        report.base_objective.to_bits(),
        report.best_objective.to_bits()
    )
    .unwrap();
    writeln!(
        out,
        "sweep stage2_values={}",
        bits(report.stage2_values.iter().copied())
    )
    .unwrap();
}

fn fingerprint(name: &str, base: &ProblemInstance) {
    let mut out = String::new();
    for objective in OBJECTIVES {
        let inst = base.with_objective(objective);
        for repr in [BasisRepr::Auto, BasisRepr::SparseLu] {
            writeln!(out, "== {objective:?} {repr:?}").unwrap();
            cold_and_replay(&inst, repr, &mut out);
        }
        writeln!(out, "== {objective:?} pin_sweep").unwrap();
        sweep(&inst, &mut out);
    }
    check(name, &out);
}

#[test]
fn paper_k12() {
    fingerprint("paper_k12.txt", &paper_shape_instance(12, 3));
}

#[test]
fn paper_k20() {
    fingerprint("paper_k20.txt", &paper_shape_instance(20, 5));
}

/// The warm model at K = 44 is past `SPARSE_MIN_ROWS`: `Auto` is the sparse
/// LU here, as in `plan_paper` and `online_drift`.
#[test]
fn paper_k44() {
    fingerprint("paper_k44.txt", &paper_shape_instance(44, 11));
}

#[test]
fn island_k64() {
    fingerprint("island_k64.txt", &island(64, 42));
}
