//! Bit-identity and cross-engine tests for the parallel pin sweep and the
//! sparse-vs-dense LPRR replay (ISSUE 9 satellite coverage).

use dls_core::heuristics::{Heuristic, Lprr};
use dls_core::{LpFormulation, Objective, ProblemInstance};
use dls_lp::{resolve_engine, Engine};
use dls_platform::{PlatformConfig, PlatformGenerator};
use proptest::prelude::*;

fn instance(seed: u64, k: usize, connectivity: f64, objective: Objective) -> ProblemInstance {
    let cfg = PlatformConfig {
        num_clusters: k,
        connectivity,
        ..PlatformConfig::default()
    };
    let p = PlatformGenerator::new(seed).generate(&cfg);
    ProblemInstance::uniform(p, objective)
}

/// `a` and `b` must be the same f64 bit for bit (NaN-safe).
fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole invariant: the sharded sweep is bit-identical to the
    /// sequential sweep — probe objectives, winner, and the canonical
    /// stage-2 vertex — for any thread count and probe cap.
    #[test]
    fn sharded_sweep_bit_identical_to_sequential(
        seed in 0u64..64,
        k in 4usize..7,
        threads in 2usize..5,
        max_probes in prop_oneof![Just(0usize), Just(5usize), Just(64usize)],
        maxmin in proptest::bool::ANY,
    ) {
        let objective = if maxmin { Objective::MaxMin } else { Objective::Sum };
        let inst = instance(seed, k, 0.6, objective);
        let sequential = Lprr { threads: 1, ..Lprr::new(seed) }
            .pin_sweep(&inst, max_probes)
            .unwrap();
        let sharded = Lprr { threads, ..Lprr::new(seed) }
            .pin_sweep(&inst, max_probes)
            .unwrap();

        prop_assert_eq!(sequential.probes.len(), sharded.probes.len());
        for (s, p) in sequential.probes.iter().zip(&sharded.probes) {
            prop_assert_eq!(s.from, p.from);
            prop_assert_eq!(s.to, p.to);
            prop_assert_eq!(s.v, p.v);
            prop_assert!(
                bits_eq(s.objective, p.objective),
                "probe ({:?}→{:?}): {} vs {}", s.from, s.to, s.objective, p.objective
            );
        }
        prop_assert_eq!(sequential.best, sharded.best);
        prop_assert!(bits_eq(sequential.base_objective, sharded.base_objective));
        prop_assert!(bits_eq(sequential.best_objective, sharded.best_objective));
        prop_assert_eq!(sequential.stage2_values.len(), sharded.stage2_values.len());
        for (i, (a, b)) in sequential
            .stage2_values
            .iter()
            .zip(&sharded.stage2_values)
            .enumerate()
        {
            prop_assert!(bits_eq(*a, *b), "stage-2 value {i}: {a} vs {b}");
        }
    }

    /// Satellite invariant: replaying LPRR with the warm pipeline over the
    /// sparse-capable solver agrees with the cold dense-engine reference on
    /// both objectives — same seed, same rounding draws, same allocation
    /// objective (the LP optima agree, so the pinned sequences coincide).
    /// The cold path resolves its engine from the relaxation's size, and at
    /// K = 5 that is the dense tableau.
    #[test]
    fn warm_sparse_replay_matches_cold_dense(seed in 0u64..24, maxmin in proptest::bool::ANY) {
        let objective = if maxmin { Objective::MaxMin } else { Objective::Sum };
        let inst = instance(seed, 5, 0.6, objective);
        let warm = Lprr { oracle_check: true, ..Lprr::new(seed) }
            .solve(&inst)
            .unwrap();
        let relaxation = LpFormulation::relaxation(&inst).unwrap().model;
        prop_assert_eq!(resolve_engine(&relaxation), Engine::Dense);
        let cold_dense = Lprr::cold(seed).solve(&inst).unwrap();
        prop_assert!(warm.validate(&inst).is_ok());
        prop_assert!(cold_dense.validate(&inst).is_ok());
        let (a, b) = (warm.objective_value(&inst), cold_dense.objective_value(&inst));
        prop_assert!(
            (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
            "warm {a} vs cold dense {b}"
        );
    }
}

/// The sweep runs (and stays deterministic) when `threads` exceeds both the
/// core count and the probe count, and `resolved_threads` honours the knob.
#[test]
fn sweep_thread_resolution_and_oversubscription() {
    let lprr = Lprr::new(7);
    assert!(lprr.resolved_threads() >= 1);
    assert_eq!(
        Lprr {
            threads: 3,
            ..Lprr::new(7)
        }
        .resolved_threads(),
        3
    );

    let inst = instance(7, 4, 0.7, Objective::MaxMin);
    let few = Lprr {
        threads: 1,
        ..Lprr::new(7)
    }
    .pin_sweep(&inst, 3)
    .unwrap();
    let many = Lprr {
        threads: 16,
        ..Lprr::new(7)
    }
    .pin_sweep(&inst, 3)
    .unwrap();
    assert_eq!(few.probes.len(), many.probes.len());
    assert!(few.probes.len() <= 3);
    assert_eq!(few.best, many.best);
    for (a, b) in few.probes.iter().zip(&many.probes) {
        assert!(bits_eq(a.objective, b.objective));
    }
}
