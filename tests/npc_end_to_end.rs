//! Cross-crate integration: the §4 NP-completeness reduction against the
//! exact solver, the LP bound and the heuristics.

use dls::core::heuristics::{ExactMilp, Greedy, Heuristic, Lprg, UpperBound};
use dls::npc::{
    greedy_independent_set, independent_set_from_allocation, is_independent_set,
    max_independent_set, reduce, Graph,
};

#[test]
fn reduction_theorem_on_random_graphs() {
    for seed in 0..10 {
        let n = 4 + (seed as usize % 5);
        let g = Graph::random(n, 0.4, 7000 + seed);
        let red = reduce(&g);
        red.verify_lemma1().unwrap();
        let inst = red.instance();

        let mis = max_independent_set(&g);
        // Forward direction: the independent set's allocation is valid and
        // achieves |V'|.
        let alloc = red.allocation_for_set(&mis);
        alloc.validate(&inst).unwrap();
        assert_eq!(alloc.objective_value(&inst), mis.len() as f64);

        // Exact optimum equals α(G) and maps back to an independent set.
        let exact = ExactMilp.solve(&inst).unwrap();
        assert!((exact.objective_value(&inst) - mis.len() as f64).abs() < 1e-6);
        let recovered = independent_set_from_allocation(&red, &exact);
        assert!(is_independent_set(&g, &recovered));
        assert_eq!(recovered.len(), mis.len());
    }
}

#[test]
fn heuristics_bounded_by_alpha_g() {
    // Polynomial heuristics cannot beat the exact optimum α(G) (they may
    // fall short — that is the NP-hardness bite).
    for seed in 0..6 {
        let g = Graph::random(6, 0.5, 9000 + seed);
        let red = reduce(&g);
        let inst = red.instance();
        let alpha_g = max_independent_set(&g).len() as f64;
        for h in [&Greedy as &dyn Heuristic, &Lprg] {
            let v = h.solve(&inst).unwrap().objective_value(&inst);
            assert!(
                v <= alpha_g + 1e-6,
                "{} achieved {v} > α(G) = {alpha_g}",
                h.name()
            );
        }
        // The LP bound sits between α(G) and n (fractional relaxation of
        // independent set).
        let lp = UpperBound.bound(&inst).unwrap();
        assert!(lp >= alpha_g - 1e-6);
        assert!(lp <= g.num_vertices() as f64 + 1e-6);
    }
}

#[test]
fn greedy_mis_matches_reduction_greedy_quality_direction() {
    // Sanity link between the two greedy worlds: a graph where the greedy
    // independent set is maximum (a star) should also let the scheduling
    // heuristics reach α(G) — the star reduction has no sharing conflicts
    // among the leaves.
    let star = Graph::new(6, (1..6).map(|v| (0, v))).unwrap();
    assert_eq!(greedy_independent_set(&star).len(), 5);
    let red = reduce(&star);
    let inst = red.instance();
    let lprg = Lprg.solve(&inst).unwrap().objective_value(&inst);
    assert!(lprg >= 4.0 - 1e-6, "LPRG only reached {lprg} on the star");
}
