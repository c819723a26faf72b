//! LP solver benches.
//!
//! * `lp_engines` — dense tableau vs dense-inverse revised vs sparse-LU
//!   revised simplex on the paper-shape steady-state relaxation, across
//!   problem sizes: the crossover measurement `dls_lp::AUTO_DENSE_LIMIT`
//!   (and with it `Engine::Auto`'s dispatch) is derived from. Each id
//!   carries the lowered size as `rows x cells`.
//! * `lprr_pipeline` — warm-started vs cold replay of the LPRR pin
//!   sequence (§5.2.3's ~K² solves): the cold side rebuilds and
//!   two-phase-solves `relaxation_with_fixed` per pin, the warm side runs
//!   `pin_beta` deltas through one persistent `WarmSimplex`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dls_bench::lp_perf::{lp_instance, pin_sequence, replay_cold, replay_warm};
use dls_core::LpFormulation;
use dls_lp::{solve_with, tableau_size, Engine};

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_engines");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &k in &[5usize, 8, 10, 15, 20, 25, 35, 50] {
        let f = LpFormulation::relaxation(&lp_instance(k, 42)).unwrap();
        let (rows, cells) = tableau_size(&f.model);
        for (name, engine) in [
            ("dense", Engine::Dense),
            ("revised", Engine::Revised),
            ("sparse", Engine::Sparse),
        ] {
            let id = BenchmarkId::new(name, format!("K{k}/{rows}x{cells}"));
            group.bench_with_input(id, &f, |b, f| {
                b.iter(|| solve_with(&f.model, engine).unwrap())
            });
        }
    }
    group.finish();
}

fn bench_lprr_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("lprr_pipeline");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for &k in &[8usize, 12] {
        let inst = lp_instance(k, 7);
        let pins = pin_sequence(&inst, 7);
        group.bench_with_input(BenchmarkId::new("cold", k), &pins, |b, pins| {
            b.iter(|| replay_cold(&inst, pins))
        });
        group.bench_with_input(BenchmarkId::new("warm", k), &pins, |b, pins| {
            b.iter(|| replay_warm(&inst, pins, false))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_lprr_pipeline);
criterion_main!(benches);
