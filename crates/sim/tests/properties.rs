//! Property tests for the bandwidth allocator and the simulation engine.

use dls_core::approx::close;
use dls_core::heuristics::{Greedy, Heuristic, Lprg};
use dls_core::schedule::ScheduleBuilder;
use dls_core::{Objective, ProblemInstance};
use dls_platform::{ClusterId, PlatformConfig, PlatformGenerator};
use dls_sim::{
    allocate_rates, certify_max_min, BandwidthAllocator, ChunkPart, FlowId, FlowSpec, LiveConfig,
    LiveEvent, LiveFlowId, LiveFlowSpec, LiveSim, SimConfig, SimEngine, Simulator,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn arb_flows() -> impl Strategy<Value = (Vec<f64>, Vec<FlowSpec>)> {
    (2usize..6).prop_flat_map(|n_clusters| {
        let caps = proptest::collection::vec(1.0f64..50.0, n_clusters);
        let flows = proptest::collection::vec((0..n_clusters, 1..n_clusters, 0.5f64..30.0), 1..8)
            .prop_map(move |raw| {
                raw.into_iter()
                    .map(|(src, off, cap)| FlowSpec {
                        src: ClusterId(src as u32),
                        dst: ClusterId(((src + off) % n_clusters) as u32),
                        cap,
                        demand: 0.0,
                    })
                    .collect::<Vec<_>>()
            });
        (caps, flows)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rates_respect_links_and_caps((g, flows) in arb_flows()) {
        let rates = allocate_rates(&g, &flows);
        prop_assert_eq!(rates.len(), flows.len());
        let mut used = vec![0.0f64; g.len()];
        for (r, f) in rates.iter().zip(&flows) {
            prop_assert!(*r >= 0.0);
            prop_assert!(*r <= f.cap + 1e-9);
            used[f.src.index()] += r;
            used[f.dst.index()] += r;
        }
        for (u, cap) in used.iter().zip(&g) {
            prop_assert!(u <= &(cap + 1e-6), "link overdriven: {} > {}", u, cap);
        }
    }

    #[test]
    fn allocate_rates_meets_the_max_min_certificate(
        (g, flows) in arb_flows(),
        fractions in proptest::collection::vec(-0.25f64..1.25, 8),
    ) {
        // Reservations from none up to the cap, left unsqueezed so they
        // oversubscribe links now and then and phase 1 has to scale them.
        let flows: Vec<FlowSpec> = flows
            .iter()
            .enumerate()
            .map(|(i, f)| FlowSpec {
                demand: f.cap * fractions[i % fractions.len()].clamp(0.0, 1.0),
                ..*f
            })
            .collect();
        let rates = allocate_rates(&g, &flows);
        certify_max_min(&g, &flows, &rates).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn feasible_reservations_are_always_granted(
        (g, flows) in arb_flows(),
        fractions in proptest::collection::vec(0.0f64..1.0, 8),
    ) {
        // Attach reservations and scale them into per-link feasibility (the
        // situation Eq. 7b/7c certify for schedules): every flow must then
        // receive at least its reservation and links must stay within
        // capacity.
        let mut flows: Vec<FlowSpec> = flows
            .iter()
            .enumerate()
            .map(|(i, f)| FlowSpec {
                demand: f.cap.min(50.0) * fractions[i % fractions.len()],
                ..*f
            })
            .collect();
        let mut load = vec![0.0f64; g.len()];
        for f in &flows {
            load[f.src.index()] += f.demand;
            load[f.dst.index()] += f.demand;
        }
        let squeeze = load
            .iter()
            .zip(&g)
            .map(|(&l, &cap)| if l > cap { cap / l } else { 1.0 })
            .fold(1.0f64, f64::min)
            * 0.999;
        for f in &mut flows {
            f.demand *= squeeze;
        }

        let rates = allocate_rates(&g, &flows);
        certify_max_min(&g, &flows, &rates).map_err(TestCaseError::fail)?;
        let mut used = vec![0.0f64; g.len()];
        for (r, f) in rates.iter().zip(&flows) {
            prop_assert!(*r >= f.demand - 1e-9,
                "reserved {} but got {}", f.demand, r);
            prop_assert!(*r <= f.cap + 1e-9);
            used[f.src.index()] += r;
            used[f.dst.index()] += r;
        }
        for (u, cap) in used.iter().zip(&g) {
            prop_assert!(u <= &(cap + 1e-6), "link overdriven: {} > {}", u, cap);
        }
    }
}

/// One step of a random arrival/completion sequence for the incremental
/// allocator equivalence test.
#[derive(Debug, Clone)]
enum AllocEvent {
    /// `(src, dst_offset, cap_raw, demand_fraction)`; see the strategy for
    /// how the raw values are decoded into caps/demands.
    Add(usize, usize, f64, f64),
    /// Remove the live flow at `index % live.len()`.
    Remove(usize),
}

fn arb_alloc_events() -> impl Strategy<Value = (Vec<f64>, Vec<AllocEvent>)> {
    (2usize..7).prop_flat_map(|n_clusters| {
        let caps = proptest::collection::vec(1.0f64..60.0, n_clusters);
        let add = move || {
            (0..n_clusters, 1..n_clusters, -1.0f64..30.0, -0.25f64..1.25)
                .prop_map(|(s, o, c, d)| AllocEvent::Add(s, o, c, d))
        };
        let events = proptest::collection::vec(
            prop_oneof![add(), add(), (0usize..64).prop_map(AllocEvent::Remove)],
            1..50,
        );
        (caps, events)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole equivalence property: after every arrival/completion in
    /// a random sequence, the incremental allocator's rates match a full
    /// `allocate_rates` recompute within 1e-9 relative and meet the max-min
    /// certificate — including cap-saturated (`demand == cap`), zero-demand,
    /// and uncapped flows.
    #[test]
    fn incremental_allocator_matches_oracle((g, events) in arb_alloc_events()) {
        let mut alloc = BandwidthAllocator::new(&g);
        let mut live: Vec<FlowId> = Vec::new();
        for (step, ev) in events.iter().enumerate() {
            match *ev {
                AllocEvent::Add(src, off, cap_raw, demand_frac) => {
                    let dst = (src + off) % g.len();
                    // cap_raw < 0 → uncapped; demand_frac clamps into
                    // [0, cap], hitting 0 and the cap itself with
                    // positive probability (the saturated-reservation
                    // corner).
                    let cap = if cap_raw < 0.0 { f64::INFINITY } else { 0.5 + cap_raw };
                    let demand = (cap.min(30.0) * demand_frac.clamp(0.0, 1.0)).min(cap);
                    live.push(alloc.insert(FlowSpec {
                        src: ClusterId(src as u32),
                        dst: ClusterId(dst as u32),
                        cap,
                        demand,
                    }));
                }
                AllocEvent::Remove(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let i = i % live.len();
                    alloc.remove(live.swap_remove(i));
                }
            }
            let (flows, rates): (Vec<FlowSpec>, Vec<f64>) =
                alloc.live_flows().into_iter().map(|(_, f, r)| (f, r)).unzip();
            certify_max_min(&g, &flows, &rates).map_err(TestCaseError::fail)?;
            // The shared contract: panics on divergence beyond 1e-9
            // relative (same helper the engine's oracle_check uses).
            alloc.assert_matches_oracle(1e-9, &format!("step {step}"));
        }
    }
}

/// One step of a random mutation sequence for the live-engine equivalence
/// tests: arrivals, retirements, and platform updates (local-link capacity,
/// compute speed).
#[derive(Debug, Clone)]
enum LiveOp {
    /// `(src, dst_offset, cap_raw, demand_fraction, payload)`.
    Add(usize, usize, f64, f64, f64),
    /// Retire the live flow at `index % live.len()`.
    Retire(usize),
    /// `(cluster, new_g_raw)` — negative raw means an outage (`g = 0`).
    Capacity(usize, f64),
    /// `(cluster, new_speed)`.
    Speed(usize, f64),
    /// Advance simulation time by this much before the next op.
    Tick(f64),
}

fn arb_live_ops() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<LiveOp>)> {
    (2usize..6).prop_flat_map(|n| {
        let caps = proptest::collection::vec(1.0f64..50.0, n);
        let speeds = proptest::collection::vec(0.5f64..6.0, n);
        let add = move || {
            (0..n, 1..n, -1.0f64..25.0, 0.0f64..1.0, 0.5f64..20.0)
                .prop_map(|(s, o, c, d, p)| LiveOp::Add(s, o, c, d, p))
        };
        let ops = proptest::collection::vec(
            prop_oneof![
                add(),
                add(),
                (0usize..64).prop_map(LiveOp::Retire),
                ((0..n), -5.0f64..60.0).prop_map(|(l, g)| LiveOp::Capacity(l, g)),
                ((0..n), 0.0f64..8.0).prop_map(|(c, s)| LiveOp::Speed(c, s)),
                (0.05f64..3.0).prop_map(LiveOp::Tick),
            ],
            1..40,
        );
        (caps, speeds, ops)
    })
}

/// Replays `ops` on a [`LiveSim`], returning the observed event log as
/// `(kind, job, time)` triples.
fn replay_live(
    g: &[f64],
    speeds: &[f64],
    ops: &[LiveOp],
    engine: SimEngine,
) -> Vec<(u8, u32, f64)> {
    let mut sim = LiveSim::new(
        g,
        speeds,
        LiveConfig {
            engine,
            // The incremental run cross-checks every mutation/completion
            // batch against a fresh full solve on the mutated platform.
            oracle_check: engine == SimEngine::Incremental,
            ..LiveConfig::default()
        },
    );
    let mut live: Vec<LiveFlowId> = Vec::new();
    let mut log = Vec::new();
    let mut record = |events: &[LiveEvent]| {
        for e in events {
            match *e {
                LiveEvent::Computed { time, job, .. } => log.push((2u8, job, time)),
                LiveEvent::Delivered { time, job, .. } => log.push((1u8, job, time)),
                LiveEvent::FlowDone { .. } => {}
            }
        }
    };
    for (i, op) in ops.iter().enumerate() {
        match *op {
            LiveOp::Add(src, off, cap_raw, demand_frac, payload) => {
                let dst = (src + off) % g.len();
                let cap = if cap_raw < 0.0 {
                    f64::INFINITY
                } else {
                    0.5 + cap_raw
                };
                let demand = (cap.min(20.0) * demand_frac).min(cap);
                live.extend(sim.add_flows(vec![LiveFlowSpec {
                    src: ClusterId(src as u32),
                    dst: ClusterId(dst as u32),
                    cap,
                    demand,
                    parts: vec![ChunkPart {
                        job: i as u32,
                        amount: payload,
                    }],
                }]));
            }
            LiveOp::Retire(idx) => {
                live.retain(|id| sim.is_current(*id));
                if !live.is_empty() {
                    let id = live.swap_remove(idx % live.len());
                    sim.retire_flows(&[id]);
                }
            }
            LiveOp::Capacity(l, g_raw) => {
                sim.update_link_capacity(ClusterId(l as u32), g_raw.max(0.0));
            }
            LiveOp::Speed(c, s) => sim.update_speed(ClusterId(c as u32), s),
            LiveOp::Tick(dt) => {
                let t = sim.now() + dt;
                record(sim.advance_to(t));
            }
        }
    }
    // Drain: restore capacity/speed so stranded work can finish, then run
    // far enough out that everything completes.
    for cidx in 0..g.len() {
        sim.update_link_capacity(ClusterId(cidx as u32), g[cidx].max(1.0));
        sim.update_speed(ClusterId(cidx as u32), speeds[cidx].max(1.0));
    }
    record(sim.advance_to(sim.now() + 10_000.0));
    assert!(sim.idle(), "{engine:?} left work behind");
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The live-mutation equivalence property: after every step of a random
    /// sequence of capacity updates, flow arrivals, and retirements, the
    /// incremental engine's allocation matches a freshly built solve on the
    /// mutated platform (`oracle_check` asserts it inside `replay_live`),
    /// and the whole observed execution matches the retained
    /// full-recompute engine replaying the same timeline.
    #[test]
    fn live_mutations_match_fresh_engine((g, speeds, ops) in arb_live_ops()) {
        let fast = replay_live(&g, &speeds, &ops, SimEngine::Incremental);
        let slow = replay_live(&g, &speeds, &ops, SimEngine::FullRecompute);
        prop_assert_eq!(fast.len(), slow.len(), "event counts differ");
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert_eq!(a.0, b.0, "event kinds diverged");
            prop_assert_eq!(a.1, b.1, "event jobs diverged");
            prop_assert!(close(a.2, b.2, 1e-6),
                "event times diverged: {} vs {}", a.2, b.2);
        }
    }

    /// Pure capacity trajectories — including links driven to zero, held
    /// there, and restored — keep the incremental allocator equal to the
    /// oracle *rate for rate* and *saturation set for saturation set*. The
    /// saturation set is what the dirty-set machinery reasons about
    /// (influence only propagates through saturated links), so agreeing on
    /// the rates while disagreeing on which links are tight would mean the
    /// next event propagates its dirty set differently from the oracle.
    #[test]
    fn capacity_trajectories_preserve_rates_and_saturation_sets(
        (g, _speeds, seed_ops) in arb_live_ops(),
        steps in proptest::collection::vec(
            proptest::collection::vec((0usize..6, -30.0f64..60.0), 1..4),
            1..30,
        ),
    ) {
        let mut alloc = BandwidthAllocator::new(&g);
        // A fixed flow population drawn from the live-op strategy: the
        // trajectory only moves link capacities.
        for op in &seed_ops {
            if let LiveOp::Add(src, off, cap_raw, demand_frac, _) = *op {
                let dst = (src + off) % g.len();
                let cap = if cap_raw < 0.0 { f64::INFINITY } else { 0.5 + cap_raw };
                alloc.insert(FlowSpec {
                    src: ClusterId(src as u32),
                    dst: ClusterId(dst as u32),
                    cap,
                    demand: (cap.min(20.0) * demand_frac).min(cap),
                });
            }
        }
        let mut local_bw = g.clone();
        for (step, batch) in steps.iter().enumerate() {
            // Negative raw values map to an outage (`g = 0`), so
            // trajectories regularly pass *through* zero and back.
            let changes: Vec<(usize, f64)> = batch
                .iter()
                .map(|&(l, raw)| (l % g.len(), raw.max(0.0)))
                .collect();
            for &(l, cap) in &changes {
                local_bw[l] = cap;
            }
            alloc.retune(&changes);

            let live = alloc.live_flows();
            let specs: Vec<FlowSpec> = live.iter().map(|(_, s, _)| *s).collect();
            let oracle = allocate_rates(&local_bw, &specs);
            let mut used_inc = vec![0.0f64; g.len()];
            let mut used_ora = vec![0.0f64; g.len()];
            for ((_, spec, rate), want) in live.iter().zip(&oracle) {
                prop_assert!(close(*rate, *want, 1e-9),
                    "step {}: rate {} vs oracle {}", step, rate, want);
                for l in [spec.src.index(), spec.dst.index()] {
                    used_inc[l] += *rate;
                    used_ora[l] += *want;
                }
            }
            for (l, &cap) in local_bw.iter().enumerate() {
                let sat = |used: f64| used >= cap - 1e-6 * (1.0 + cap);
                prop_assert_eq!(sat(used_inc[l]), sat(used_ora[l]),
                    "step {}: saturation of link {} diverged \
                     (incremental used {}, oracle used {}, capacity {})",
                    step, l, used_inc[l], used_ora[l], cap);
            }
        }
    }

    /// Random capacity-retune sequences interleaved with arrivals and
    /// removals keep the incremental allocator on the oracle fixpoint, and
    /// on the max-min certificate for the retuned capacities.
    #[test]
    fn retune_sequences_match_oracle(
        (g, _speeds, ops) in arb_live_ops(),
    ) {
        let mut alloc = BandwidthAllocator::new(&g);
        let mut local_bw = g.clone();
        let mut live: Vec<FlowId> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                LiveOp::Add(src, off, cap_raw, demand_frac, _) => {
                    let dst = (src + off) % g.len();
                    let cap = if cap_raw < 0.0 { f64::INFINITY } else { 0.5 + cap_raw };
                    live.push(alloc.insert(FlowSpec {
                        src: ClusterId(src as u32),
                        dst: ClusterId(dst as u32),
                        cap,
                        demand: (cap.min(20.0) * demand_frac).min(cap),
                    }));
                }
                LiveOp::Retire(i) if !live.is_empty() => {
                    alloc.remove(live.swap_remove(i % live.len()));
                }
                LiveOp::Capacity(l, g_raw) => {
                    local_bw[l] = g_raw.max(0.0);
                    alloc.set_local_bw(l, local_bw[l]);
                }
                _ => continue,
            }
            let (flows, rates): (Vec<FlowSpec>, Vec<f64>) =
                alloc.live_flows().into_iter().map(|(_, f, r)| (f, r)).unzip();
            certify_max_min(&local_bw, &flows, &rates).map_err(TestCaseError::fail)?;
            alloc.assert_matches_oracle(1e-9, &format!("step {step}"));
        }
    }
}

proptest! {
    // End-to-end simulations are heavier: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn valid_schedules_execute_without_lateness(
        seed in 0u64..500,
        k in 3usize..7,
        conn in 0.2f64..0.9,
        greedy in proptest::bool::ANY,
    ) {
        let cfg = PlatformConfig {
            num_clusters: k,
            connectivity: conn,
            ..PlatformConfig::default()
        };
        let p = PlatformGenerator::new(seed).generate(&cfg);
        let inst = ProblemInstance::uniform(p, Objective::MaxMin);
        let alloc = if greedy {
            Greedy.solve(&inst).unwrap()
        } else {
            Lprg.solve(&inst).unwrap()
        };
        let schedule = ScheduleBuilder::default().build(&inst, &alloc).unwrap();
        // Every event of the incremental engine is cross-checked against
        // the full allocator (oracle_check panics on divergence).
        let report = Simulator::new(&inst).run(
            &schedule,
            &SimConfig { oracle_check: true, ..SimConfig::default() },
        );
        // Eq. 7c guarantees Σ flow volumes ≤ g·T_p on every local link, and
        // max-min sharing is work-conserving, so every period's flows finish
        // in time.
        prop_assert!(report.max_transfer_lateness <= 1e-6,
            "lateness {}", report.max_transfer_lateness);
        prop_assert!(report.connection_caps_respected);
        prop_assert!(report.achieves(0.9), "{}", report.summary());
        // And the retained slow path observes the same execution.
        let slow = Simulator::new(&inst).run(
            &schedule,
            &SimConfig { engine: SimEngine::FullRecompute, ..SimConfig::default() },
        );
        prop_assert!(close(report.efficiency, slow.efficiency, 1e-6),
            "engines disagree: {} vs {}", report.efficiency, slow.efficiency);
    }
}
