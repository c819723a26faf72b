//! The §4 NP-completeness reduction, executed end to end.
//!
//! Takes the Figure 3 example graph (a 4-cycle) and a random graph, builds
//! the Figure 4 platform for each, and shows that the *exact* optimal
//! steady-state throughput equals the graph's independence number — while
//! the polynomial heuristics may fall short (that is what NP-hardness
//! means in practice).
//!
//! ```text
//! cargo run --example np_hardness
//! ```

use dls::core::heuristics::{ExactMilp, Greedy, Heuristic, Lprg, UpperBound};
use dls::npc::{independent_set_from_allocation, max_independent_set, reduce, Graph};

fn analyse(name: &str, g: &Graph) {
    println!(
        "\n=== {name}: n = {}, m = {} ===",
        g.num_vertices(),
        g.edges().len()
    );
    let mis = max_independent_set(g);
    println!("  independence number α(G) = {} (set {mis:?})", mis.len());

    let red = reduce(g);
    red.verify_lemma1().expect("Lemma 1 holds by construction");
    let inst = red.instance();
    println!(
        "  reduced platform: {} clusters, {} routers, {} backbone links",
        inst.platform.num_clusters(),
        inst.platform.num_routers,
        inst.platform.links.len()
    );

    let exact = ExactMilp.solve(&inst).expect("small instance");
    let rho = exact.objective_value(&inst);
    println!("  exact MILP throughput  = {rho:.3}  (must equal α(G))");
    assert!((rho - mis.len() as f64).abs() < 1e-6);

    let recovered = independent_set_from_allocation(&red, &exact);
    println!("  recovered independent set: {recovered:?}");

    let lp = UpperBound.bound(&inst).unwrap();
    let greedy = Greedy.solve(&inst).unwrap().objective_value(&inst);
    let lprg = Lprg.solve(&inst).unwrap().objective_value(&inst);
    println!("  LP relaxation bound    = {lp:.3}");
    println!("  greedy G               = {greedy:.3}");
    println!("  LPRG                   = {lprg:.3}");
}

fn main() {
    // Figure 3 of the paper: the 4-cycle V1V2V3V4.
    let figure3 = Graph::new(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
    analyse("Figure 3 (C4)", &figure3);

    // The Petersen graph — a classic with α = 4.
    let petersen = Graph::new(
        10,
        [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0),
            (5, 7),
            (7, 9),
            (9, 6),
            (6, 8),
            (8, 5),
            (0, 5),
            (1, 6),
            (2, 7),
            (3, 8),
            (4, 9),
        ],
    )
    .unwrap();
    analyse("Petersen graph", &petersen);

    // A random instance.
    let random = Graph::random(8, 0.4, 2026);
    analyse("G(8, 0.4) seed 2026", &random);

    println!("\nall reductions verified: optimal throughput ≡ independence number");
}
