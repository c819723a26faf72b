//! The event-driven simulation engine.
//!
//! Time advances from event to event; events are period boundaries and flow
//! completions. Between events everything is fluid: flows progress at the
//! rates computed by the bandwidth allocator, clusters drain their work
//! queues at their speed.
//!
//! Neither is applied at every event. A flow's `remaining` is materialised
//! when its rate changes (`flows.rs`), and a cluster's FIFO queue when
//! something observes it: a queue drained at constant speed `s` from `t₀`
//! to `t` is one `s·(t − t₀)` drain, so an event costs the queues it
//! touches, not all K. A queue is brought up to the current time at exactly
//! four points:
//!
//! 1. before a delivery is appended to it — otherwise capacity the cluster
//!    had before the arrival (idle, if the queue ran dry) would be credited
//!    to the new chunk;
//! 2. at each period boundary, all K, to record the backlog (before the
//!    boundary's local tasks are appended);
//! 3. before the one-time warm-up snapshot of `completed`, all K;
//! 4. at the end of the run — before the final analytic drain, or when the
//!    drain horizon stops it — all K.
//!
//! Completed work therefore adds one `s·(t − t₀)` per observation instead
//! of one `s·dt` per event: reports match the per-event sweep to rounding
//! (this module's tests keep that sweep as a reference and hold the two to
//! 1e-12 on random queues and event times).
//!
//! [`Simulator::run`] is one loop over the flow core this crate also runs
//! [`crate::LiveSim`] on (`flows.rs`); [`SimEngine`] picks the core's
//! variant once, at construction:
//!
//! * [`SimEngine::Incremental`] (the default) keeps a stateful
//!   [`crate::BandwidthAllocator`] that re-solves only the dirty set of
//!   flows at each event, schedules completions in an indexed binary heap
//!   with lazy invalidation, and advances per-flow state lazily — a
//!   completion costs the flows it *affects*, not the total flow count. A
//!   period boundary is the exception: it stages the whole schedule, every
//!   staged flow is dirty and cap-limited flows freeze one per filling
//!   round, so solving it costs F flows × ≈ F rounds. [`Simulator::run`]
//!   therefore arms the allocator's batch memo (see
//!   [`crate::BandwidthAllocator`]): a boundary that re-poses a subproblem
//!   already solved — the same flows over the same residual link state, bit
//!   for bit — copies the remembered rates instead. `run` is the only
//!   caller that arms it; [`Simulator::run_counted`] returns the counters
//!   that show how often it answered;
//! * [`SimEngine::FullRecompute`] is the reference slow path: a full
//!   [`crate::allocate_rates`] solve plus linear next-completion and
//!   completion sweeps at every event. It is retained as the cross-check
//!   oracle: the tests replay schedules up to the paper's K = 95 under both
//!   cores and require the same report, event for event.
//!
//! Routes and per-transfer flow specs are compiled once per `run` into a
//! flat arena, so period boundaries re-use them instead of re-walking
//! `Platform::route` and allocating a fresh `Vec` per transfer.

use crate::bandwidth::{AllocStats, FlowSpec};
use crate::flows::FlowCore;
use crate::report::SimReport;
use dls_core::approx::close;
use dls_core::schedule::PeriodicSchedule;
use dls_core::ProblemInstance;
use std::collections::VecDeque;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Periods to simulate (the measurement window excludes `warmup`).
    pub periods: usize,
    /// Periods excluded from throughput measurement (pipeline fill).
    pub warmup: usize,
    /// Which simulation core executes the schedule.
    pub engine: SimEngine,
    /// Cross-check the incremental core against a full
    /// [`crate::allocate_rates`] solve and [`crate::certify_max_min`] after
    /// every event, panicking on divergence beyond 1e-9 relative or on a
    /// rejected allocation. Expensive (`O(F)` per event) — meant for tests;
    /// ignored by [`SimEngine::FullRecompute`].
    pub oracle_check: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            periods: 10,
            warmup: 2,
            engine: SimEngine::Incremental,
            oracle_check: false,
        }
    }
}

/// Selects the simulation core (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEngine {
    /// Dirty-set bandwidth re-allocation + completion heap (fast, default).
    Incremental,
    /// Full re-allocation and linear scans at every event (reference).
    FullRecompute,
}

/// The simulator: binds a problem instance (for platform capacities).
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    inst: &'a ProblemInstance,
}

/// One transfer of the periodic schedule, compiled for fast spawning.
#[derive(Debug, Clone)]
struct CompiledTransfer {
    spec: FlowSpec,
    amount: f64,
    connections: u32,
    /// `route_arena[start..end]` is the transfer's backbone-link index list.
    route: (u32, u32),
}

/// Per-run compilation of the schedule: routes resolved once, flow specs
/// precomputed, local tasks flattened.
#[derive(Debug)]
struct CompiledSchedule {
    transfers: Vec<CompiledTransfer>,
    route_arena: Vec<u32>,
    /// `(cluster, app, amount)` of purely local compute tasks.
    local_tasks: Vec<(usize, usize, f64)>,
}

impl CompiledSchedule {
    fn compile(inst: &ProblemInstance, schedule: &PeriodicSchedule) -> Self {
        let p = &inst.platform;
        let tp = schedule.period as f64;
        let mut transfers = Vec::with_capacity(schedule.transfers.len());
        let mut route_arena = Vec::new();
        for tr in &schedule.transfers {
            let cap = match p.route_bottleneck_bw(tr.from, tr.to) {
                Some(bw) if bw.is_finite() => tr.connections as f64 * bw,
                Some(_) => f64::INFINITY,
                None => continue, // validated schedules never hit this
            };
            let start = route_arena.len() as u32;
            if let Some(route) = p.route(tr.from, tr.to) {
                route_arena.extend(route.iter().map(|l| l.index() as u32));
            }
            let end = route_arena.len() as u32;
            transfers.push(CompiledTransfer {
                spec: FlowSpec {
                    src: tr.from,
                    dst: tr.to,
                    cap,
                    // The Eq. 7 reservation: this flow's share of its local
                    // links, budgeted by 7b/7c.
                    demand: tr.amount as f64 / tp,
                },
                amount: tr.amount as f64,
                connections: tr.connections,
                route: (start, end),
            });
        }
        let local_tasks = schedule
            .compute_tasks
            .iter()
            .filter(|task| task.app == task.cluster)
            .map(|task| (task.cluster.index(), task.app.index(), task.amount as f64))
            .collect();
        CompiledSchedule {
            transfers,
            route_arena,
            local_tasks,
        }
    }

    fn route(&self, tr: &CompiledTransfer) -> &[u32] {
        &self.route_arena[tr.route.0 as usize..tr.route.1 as usize]
    }
}

/// Mutable observation state of one run.
///
/// Cluster `c` works through `queues[c]` in FIFO order at `speeds[c]`, but
/// the queue is only drained when something observes it: `queues[c]` and
/// its share of `completed` are exact as of `drained_to[c]`, and
/// [`SimState::materialise`] brings them up to a later time in one
/// [`drain_queue`] call — the rule [`FlowCore`] follows for a flow's
/// `remaining`. Four places observe a queue (see the module docs).
struct SimState {
    queues: Vec<VecDeque<(usize, f64)>>,
    speeds: Vec<f64>,
    /// Time up to which `queues[c]` has been drained.
    drained_to: Vec<f64>,
    completed: Vec<f64>,
    completed_at_warmup: Vec<f64>,
    warmup_snapshotted: bool,
    max_lateness: f64,
    max_backlog: f64,
    conn_now: Vec<i64>,
    conn_peak: Vec<i64>,
    events: u64,
}

impl SimState {
    fn new(speeds: Vec<f64>, n_links: usize) -> Self {
        let n = speeds.len();
        SimState {
            queues: vec![VecDeque::new(); n],
            speeds,
            drained_to: vec![0.0; n],
            completed: vec![0.0; n],
            completed_at_warmup: vec![0.0; n],
            warmup_snapshotted: false,
            max_lateness: 0.0,
            max_backlog: 0.0,
            conn_now: vec![0; n_links],
            conn_peak: vec![0; n_links],
            events: 0,
        }
    }

    /// Drains `queues[c]` at its cluster's speed from `drained_to[c]` up to
    /// `t`.
    fn materialise(&mut self, c: usize, t: f64) {
        let dt = t - self.drained_to[c];
        if dt > 0.0 {
            drain_queue(
                &mut self.queues[c],
                self.speeds[c] * dt,
                &mut self.completed,
            );
            self.drained_to[c] = t;
        }
    }

    fn materialise_all(&mut self, t: f64) {
        for c in 0..self.queues.len() {
            self.materialise(c, t);
        }
    }

    /// Appends `entry` to `queues[c]` at `t`. The queue is drained up to `t`
    /// first, so capacity the cluster had before the arrival (idle, if the
    /// queue ran dry) is never credited to the new entry.
    fn enqueue(&mut self, c: usize, t: f64, entry: (usize, f64)) {
        self.materialise(c, t);
        self.queues[c].push_back(entry);
    }

    fn snapshot_warmup_if_due(&mut self, t: f64, warmup_t: f64) {
        if !self.warmup_snapshotted && t >= warmup_t {
            self.materialise_all(t);
            self.completed_at_warmup.copy_from_slice(&self.completed);
            self.warmup_snapshotted = true;
        }
    }

    fn record_backlog(&mut self, t: f64) {
        self.materialise_all(t);
        for (queue, &s) in self.queues.iter().zip(&self.speeds) {
            let pending: f64 = queue.iter().map(|(_, w)| w).sum();
            if s > 0.0 {
                self.max_backlog = self.max_backlog.max(pending / s);
            }
        }
    }

    /// Final analytic drain once no flow remains and no period will spawn.
    fn drain_to_completion(&mut self, t: f64) {
        self.materialise_all(t);
        for (queue, &s) in self.queues.iter_mut().zip(&self.speeds) {
            let pending: f64 = queue.iter().map(|(_, w)| w).sum();
            if s > 0.0 && pending > 0.0 {
                self.max_backlog = self.max_backlog.max(pending / s);
            }
            drain_queue(queue, f64::INFINITY, &mut self.completed);
        }
    }
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for `inst`'s platform.
    pub fn new(inst: &'a ProblemInstance) -> Self {
        Simulator { inst }
    }

    /// Executes `schedule` for `config.periods` periods.
    pub fn run(&self, schedule: &PeriodicSchedule, config: &SimConfig) -> SimReport {
        self.run_counted(schedule, config).0
    }

    /// [`Simulator::run`], also returning the bandwidth allocator's work
    /// counters for the run (all zero under [`SimEngine::FullRecompute`]).
    pub fn run_counted(
        &self,
        schedule: &PeriodicSchedule,
        config: &SimConfig,
    ) -> (SimReport, AllocStats) {
        let p = &self.inst.platform;
        let tp = schedule.period as f64;
        let local_bw: Vec<f64> = p.clusters.iter().map(|c| c.local_bw).collect();
        let speeds: Vec<f64> = p.clusters.iter().map(|c| c.speed).collect();
        let horizon = config.periods as f64 * tp;
        let warmup_t = (config.warmup.min(config.periods.saturating_sub(1))) as f64 * tp;
        let drain_horizon = horizon + 20.0 * tp;

        let compiled = CompiledSchedule::compile(self.inst, schedule);
        let mut state = SimState::new(speeds, p.links.len());
        // Payload: (transfer index, spawn period).
        let mut core: FlowCore<(u32, usize)> =
            FlowCore::new(&local_bw, config.engine, config.oracle_check);
        // Every boundary stages the same transfers: the one caller whose
        // batches repeat.
        core.arm_batch_memo();

        let mut t = 0.0f64;
        let mut next_period = 0usize;

        loop {
            // --- determine the next event time ---
            let boundary = if next_period <= config.periods {
                next_period as f64 * tp
            } else {
                f64::INFINITY
            };
            let t_next = boundary.min(core.next_completion(t));
            if !t_next.is_finite() || t_next > drain_horizon {
                state.materialise_all(t);
                break;
            }

            // --- advance the flows (queues drain when observed) ---
            let dt = (t_next - t).max(0.0);
            if dt > 0.0 {
                core.advance(t, dt);
            }
            t = t_next;
            state.events += 1;
            state.snapshot_warmup_if_due(t, warmup_t);

            // --- flow completions due now ---
            core.pop_due(t, |_, f| {
                let (transfer, spawn_period) = f.payload;
                let tr = &compiled.transfers[transfer as usize];
                // Deliver the full chunk (any leftover is size-relative dust).
                state.enqueue(tr.spec.dst.index(), t, (tr.spec.src.index(), f.size));
                let deadline = (spawn_period + 1) as f64 * tp;
                state.max_lateness = state.max_lateness.max(t - deadline);
                for &l in compiled.route(tr) {
                    state.conn_now[l as usize] -= tr.connections as i64;
                }
            });

            // --- period boundary ---
            if next_period <= config.periods && close(t, boundary, 1e-9) {
                state.record_backlog(t);
                if next_period < config.periods {
                    // `record_backlog` just drained every queue up to `t`.
                    for &(cluster, app, amount) in &compiled.local_tasks {
                        state.queues[cluster].push_back((app, amount));
                    }
                    for (ti, tr) in compiled.transfers.iter().enumerate() {
                        for &l in compiled.route(tr) {
                            let l = l as usize;
                            state.conn_now[l] += tr.connections as i64;
                            state.conn_peak[l] = state.conn_peak[l].max(state.conn_now[l]);
                        }
                        core.stage(tr.spec, tr.amount, (ti as u32, next_period));
                    }
                }
                next_period += 1;
            }

            // --- one rate re-allocation for this event's departures and arrivals ---
            core.commit(t);

            if core.live() == 0 && next_period > config.periods {
                state.drain_to_completion(t);
                break;
            }
        }

        // Attribute the carried traffic of flows still live at the horizon.
        core.settle(t);

        let stats = core.alloc_stats();
        let report = self.finish_report(schedule, config, state, &core, horizon, warmup_t);
        (report, stats)
    }

    fn finish_report(
        &self,
        schedule: &PeriodicSchedule,
        config: &SimConfig,
        state: SimState,
        core: &FlowCore<(u32, usize)>,
        horizon: f64,
        warmup_t: f64,
    ) -> SimReport {
        let p = &self.inst.platform;
        let predicted = schedule.throughputs();
        let window = (horizon - warmup_t).max(1e-12);
        // Measured over the window, but never counting the analytic drain
        // beyond the horizon twice: completed was last updated at ≥ horizon;
        // for simplicity the drain tail attributes to the window, which
        // keeps steady-state throughput measurable even when the final
        // period's compute spills slightly past the horizon.
        let measured: Vec<f64> = state
            .completed
            .iter()
            .zip(&state.completed_at_warmup)
            .map(|(c, w)| ((c - w) / window).max(0.0))
            .collect();
        let predicted_total: f64 = predicted.iter().sum();
        let measured_total: f64 = measured.iter().sum();
        let efficiency = if predicted_total > 0.0 {
            measured_total / predicted_total
        } else {
            1.0
        };
        let caps_ok = state
            .conn_peak
            .iter()
            .zip(&p.links)
            .all(|(&peak, link)| peak <= link.max_connections as i64);
        let local_link_utilization: Vec<f64> = core
            .carried()
            .iter()
            .zip(core.local_bw())
            .map(|(&bytes, &g)| {
                if g > 0.0 && horizon > 0.0 {
                    (bytes / (g * horizon)).min(1.0)
                } else {
                    0.0
                }
            })
            .collect();

        SimReport {
            periods: config.periods,
            period_length: schedule.period as f64,
            predicted,
            measured,
            efficiency,
            max_transfer_lateness: state.max_lateness.max(0.0),
            max_compute_backlog: state.max_backlog,
            peak_connections: state.conn_peak.iter().map(|&x| x.max(0) as u64).collect(),
            connection_caps_respected: caps_ok,
            local_link_utilization,
            events: state.events,
        }
    }
}

/// Drains up to `capacity` load units from a cluster's FIFO work queue,
/// crediting per-application completion counters.
fn drain_queue(queue: &mut VecDeque<(usize, f64)>, mut capacity: f64, completed: &mut [f64]) {
    while capacity > 0.0 {
        let Some((app, amount)) = queue.front_mut() else {
            break;
        };
        if *amount <= capacity {
            completed[*app] += *amount;
            capacity -= *amount;
            queue.pop_front();
        } else {
            *amount -= capacity;
            completed[*app] += capacity;
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_core::heuristics::{Greedy, Heuristic, Lprg};
    use dls_core::schedule::ScheduleBuilder;
    use dls_core::Objective;
    use dls_platform::{PlatformBuilder, PlatformConfig, PlatformGenerator};

    fn two_cluster() -> ProblemInstance {
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(100.0, 20.0);
        let c1 = b.add_cluster(50.0, 30.0);
        b.connect_clusters(c0, c1, 10.0, 2);
        ProblemInstance::uniform(b.build().unwrap(), Objective::MaxMin)
    }

    fn checked_config() -> SimConfig {
        SimConfig {
            oracle_check: true,
            ..SimConfig::default()
        }
    }

    #[test]
    fn local_only_schedule_achieves_full_throughput() {
        let mut b = PlatformBuilder::new();
        b.add_cluster(100.0, 10.0);
        b.add_cluster(60.0, 10.0);
        let inst = ProblemInstance::uniform(b.build().unwrap(), Objective::Sum);
        let alloc = Greedy.solve(&inst).unwrap();
        let schedule = ScheduleBuilder::default().build(&inst, &alloc).unwrap();
        let report = Simulator::new(&inst).run(&schedule, &checked_config());
        assert!(report.achieves(0.999), "{}", report.summary());
        assert_eq!(report.max_transfer_lateness, 0.0);
        assert!(report.connection_caps_respected);
    }

    #[test]
    fn transfer_schedule_executes_on_time() {
        let inst = two_cluster();
        let alloc = Lprg.solve(&inst).unwrap();
        let schedule = ScheduleBuilder::default().build(&inst, &alloc).unwrap();
        let report = Simulator::new(&inst).run(&schedule, &checked_config());
        // Valid allocations keep Σ flows ≤ g on every local link, so
        // max-min fair sharing finishes every flow within its period.
        assert!(
            report.max_transfer_lateness <= 1e-6,
            "lateness {}",
            report.max_transfer_lateness
        );
        assert!(report.achieves(0.95), "{}", report.summary());
        assert!(report.connection_caps_respected);
    }

    #[test]
    fn random_platform_schedules_execute() {
        for seed in 0..8 {
            let cfg = PlatformConfig {
                num_clusters: 5,
                connectivity: 0.6,
                ..PlatformConfig::default()
            };
            let p = PlatformGenerator::new(seed).generate(&cfg);
            let inst = ProblemInstance::uniform(p, Objective::MaxMin);
            let alloc = Lprg.solve(&inst).unwrap();
            let schedule = ScheduleBuilder::default().build(&inst, &alloc).unwrap();
            let report = Simulator::new(&inst).run(&schedule, &checked_config());
            assert!(report.achieves(0.9), "seed {seed}: {}", report.summary());
            assert!(report.connection_caps_respected, "seed {seed}");
        }
    }

    #[test]
    fn engines_agree_on_reports() {
        // Small random platforms under LPRG, then the paper-shape Greedy
        // schedules at K = 20, 50 and 95 over 12 periods (K = 20 alone in
        // debug builds).
        let small = (0..6).map(|seed| {
            let cfg = PlatformConfig {
                num_clusters: 6,
                connectivity: 0.5,
                ..PlatformConfig::default()
            };
            let p = PlatformGenerator::new(seed).generate(&cfg);
            let inst = ProblemInstance::uniform(p, Objective::MaxMin);
            let alloc = Lprg.solve(&inst).unwrap();
            (
                format!("seed {seed}"),
                inst,
                alloc,
                SimConfig::default().periods,
            )
        });
        let paper_ks: &[usize] = if cfg!(debug_assertions) {
            &[20]
        } else {
            &[20, 50, 95]
        };
        let paper = paper_ks.iter().map(|&k| {
            let inst = dls_core::paper_shape_instance(k, 42);
            let alloc = Greedy.solve(&inst).unwrap();
            (format!("paper-shape K = {k}"), inst, alloc, 12)
        });
        for (label, inst, alloc, periods) in small.chain(paper) {
            let schedule = ScheduleBuilder::default().build(&inst, &alloc).unwrap();
            let (fast, stats) = Simulator::new(&inst).run_counted(
                &schedule,
                &SimConfig {
                    periods,
                    oracle_check: true,
                    ..SimConfig::default()
                },
            );
            let slow = Simulator::new(&inst).run(
                &schedule,
                &SimConfig {
                    periods,
                    engine: SimEngine::FullRecompute,
                    ..SimConfig::default()
                },
            );
            assert!(
                close(fast.efficiency, slow.efficiency, 1e-6),
                "{label}: efficiency {} vs {}",
                fast.efficiency,
                slow.efficiency
            );
            assert!(
                close(fast.max_transfer_lateness, slow.max_transfer_lateness, 1e-6),
                "{label}: lateness {} vs {}",
                fast.max_transfer_lateness,
                slow.max_transfer_lateness
            );
            assert_eq!(fast.peak_connections, slow.peak_connections, "{label}");
            assert_eq!(fast.events, slow.events, "{label}: events");
            for (a, b) in fast.measured.iter().zip(&slow.measured) {
                assert!(close(*a, *b, 1e-6), "{label}: measured {a} vs {b}");
            }
            for (a, b) in fast
                .local_link_utilization
                .iter()
                .zip(&slow.local_link_utilization)
            {
                assert!(close(*a, *b, 1e-6), "{label}: utilisation {a} vs {b}");
            }
            // Every boundary stages the whole schedule: one batch solve
            // each, answered by the memo or solved and remembered.
            if !schedule.transfers.is_empty() {
                assert_eq!(
                    stats.memo_hits + stats.memo_misses,
                    periods as u64,
                    "{label}: {stats:?}"
                );
                assert!(stats.memo_hits > 0, "{label}: {stats:?}");
            }
        }
    }

    #[test]
    fn link_utilization_is_reported() {
        let inst = two_cluster();
        let alloc = Lprg.solve(&inst).unwrap();
        let schedule = ScheduleBuilder::default().build(&inst, &alloc).unwrap();
        let report = Simulator::new(&inst).run(&schedule, &SimConfig::default());
        assert_eq!(report.local_link_utilization.len(), 2);
        for u in &report.local_link_utilization {
            assert!((0.0..=1.0).contains(u), "utilisation {u}");
        }
        // The MAXMIN solution on this asymmetric pair ships work, so the
        // links are actually used.
        assert!(report.local_link_utilization.iter().any(|&u| u > 0.1));
    }

    #[test]
    fn empty_schedule_reports_unit_efficiency() {
        let inst = two_cluster();
        let alloc = dls_core::Allocation::zeros(2);
        let schedule = ScheduleBuilder::default().build(&inst, &alloc).unwrap();
        let report = Simulator::new(&inst).run(&schedule, &SimConfig::default());
        assert_eq!(report.efficiency, 1.0);
        assert_eq!(report.max_transfer_lateness, 0.0);
    }

    #[test]
    fn event_counts_are_reported_and_deterministic() {
        let inst = two_cluster();
        let alloc = Lprg.solve(&inst).unwrap();
        let schedule = ScheduleBuilder::default().build(&inst, &alloc).unwrap();
        let a = Simulator::new(&inst).run(&schedule, &SimConfig::default());
        let b = Simulator::new(&inst).run(&schedule, &SimConfig::default());
        assert!(a.events > 0);
        assert_eq!(a.events, b.events);
    }

    impl SimState {
        /// The reference: the per-event sweep `Simulator::run` made before
        /// queues drained on observation — every queue by `s · dt` at every
        /// event. It moves `drained_to` along, so an eager state driven
        /// through the same observation calls finds nothing left to
        /// materialise and replays the old path.
        fn per_event_sweep(&mut self, dt: f64, t: f64) {
            for (queue, &s) in self.queues.iter_mut().zip(&self.speeds) {
                drain_queue(queue, s * dt, &mut self.completed);
            }
            self.drained_to.fill(t);
        }

        fn pending(&self, c: usize) -> f64 {
            self.queues[c].iter().map(|(_, w)| w).sum()
        }
    }

    /// One lazy and one eager [`SimState`] driven through the call order of
    /// `Simulator::run`: at each event the eager one sweeps every queue,
    /// then both see the warm-up snapshot, the deliveries and the boundary.
    struct Twin {
        lazy: SimState,
        eager: SimState,
        t: f64,
    }

    impl Twin {
        fn new(speeds: &[f64]) -> Self {
            Twin {
                lazy: SimState::new(speeds.to_vec(), 0),
                eager: SimState::new(speeds.to_vec(), 0),
                t: 0.0,
            }
        }

        fn both(&mut self, op: impl Fn(&mut SimState, f64)) {
            op(&mut self.lazy, self.t);
            op(&mut self.eager, self.t);
        }

        fn event(&mut self, t: f64) {
            let dt = (t - self.t).max(0.0);
            if dt > 0.0 {
                self.eager.per_event_sweep(dt, t);
            }
            self.t = t;
        }

        fn deliver(&mut self, c: usize, app: usize, amount: f64) {
            self.both(|s, t| s.enqueue(c, t, (app, amount)));
            assert!(
                close(self.lazy.pending(c), self.eager.pending(c), 1e-12),
                "t {}: queue {c} pending {} vs {}",
                self.t,
                self.lazy.pending(c),
                self.eager.pending(c)
            );
        }

        fn boundary(&mut self, local: &[(usize, usize, f64)]) {
            self.both(|s, t| s.record_backlog(t));
            self.assert_agree();
            for &(c, app, amount) in local {
                self.both(|s, _| s.queues[c].push_back((app, amount)));
            }
        }

        fn warmup(&mut self) {
            let due = !self.lazy.warmup_snapshotted;
            self.both(|s, t| s.snapshot_warmup_if_due(t, t));
            if due {
                self.assert_agree();
            }
        }

        /// `completed` per app, `completed_at_warmup`, pending per queue
        /// and the backlog agree to 1e-12 (the workspace's `close`); only
        /// meaningful right after an observation of every queue.
        fn assert_agree(&self) {
            let (l, e) = (&self.lazy, &self.eager);
            let pairs = l
                .completed
                .iter()
                .zip(&e.completed)
                .chain(l.completed_at_warmup.iter().zip(&e.completed_at_warmup))
                .chain([(&l.max_backlog, &e.max_backlog)]);
            for (a, b) in pairs {
                assert!(close(*a, *b, 1e-12), "t {}: {a} vs {b}", self.t);
            }
            for c in 0..l.queues.len() {
                assert!(close(l.pending(c), e.pending(c), 1e-12), "t {}", self.t);
            }
        }
    }

    #[test]
    fn delivery_to_a_dry_queue_gets_no_idle_capacity() {
        // Speed 10: the 5 units present at t = 0 are done by t = 0.5; the
        // cluster then idles until 10 more units arrive at t = 2.
        let mut twin = Twin::new(&[10.0, 1.0]);
        twin.deliver(0, 0, 5.0);
        twin.event(2.0);
        twin.deliver(0, 1, 10.0);
        for s in [&twin.lazy, &twin.eager] {
            assert_eq!(s.completed, [5.0, 0.0]);
            assert_eq!(s.pending(0), 10.0);
        }
        twin.event(2.5);
        twin.boundary(&[]);
        assert_eq!(twin.lazy.completed, [5.0, 5.0]);
        assert_eq!(twin.lazy.max_backlog, 0.5);
    }

    #[test]
    fn warmup_snapshot_between_deliveries_sees_the_drain_up_to_it() {
        let mut twin = Twin::new(&[4.0, 1.0]);
        twin.deliver(0, 0, 10.0);
        twin.event(1.5);
        twin.warmup();
        twin.event(2.0);
        twin.deliver(0, 1, 3.0);
        twin.event(5.0);
        twin.both(|s, t| s.materialise_all(t));
        twin.assert_agree();
        assert_eq!(twin.lazy.completed_at_warmup, [6.0, 0.0]);
        assert_eq!(twin.lazy.completed, [10.0, 3.0]);
        // The snapshot is taken once.
        twin.warmup();
        assert_eq!(twin.lazy.completed_at_warmup, [6.0, 0.0]);
    }

    #[test]
    fn zero_speed_cluster_holds_its_queue_until_the_final_drain() {
        let mut twin = Twin::new(&[0.0, 2.0]);
        twin.deliver(0, 1, 7.0);
        twin.deliver(1, 0, 3.0);
        twin.event(10.0);
        twin.boundary(&[(0, 0, 1.0)]);
        assert_eq!(twin.lazy.completed, [3.0, 0.0]);
        assert_eq!(twin.lazy.pending(0), 8.0);
        // A stalled cluster has no finite backlog; only the busy one counts.
        assert_eq!(twin.lazy.max_backlog, 0.0);
        twin.both(|s, t| s.drain_to_completion(t));
        twin.assert_agree();
        assert_eq!(twin.lazy.completed, [4.0, 7.0]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Lazy ≡ eager: random FIFO contents and speeds (zero among
            /// them), random increasing event times (repeats among them),
            /// deliveries to random clusters, boundaries and the warm-up
            /// snapshot interleaved; the two states agree at every
            /// observation and after the final drain.
            #[test]
            fn lazy_queues_match_the_per_event_sweep(
                speeds in collection::vec(prop_oneof![Just(0.0), 0.25f64..20.0], 1..6),
                initial in collection::vec((0usize..6, 0usize..6, 0.01f64..40.0), 0..12),
                events in collection::vec(
                    (prop_oneof![Just(0.0), 0.0f64..3.0], 0u8..6, 0usize..6, 0usize..6, 0.01f64..40.0),
                    1..80,
                ),
                drain_at_end in proptest::bool::ANY,
            ) {
                let n = speeds.len();
                let mut twin = Twin::new(&speeds);
                for (c, app, amount) in initial {
                    twin.deliver(c % n, app % n, amount);
                }
                let mut t = 0.0;
                for (gap, kind, c, app, amount) in events {
                    t += gap;
                    twin.event(t);
                    match kind {
                        0..=2 => twin.deliver(c % n, app % n, amount),
                        3 => twin.boundary(&[(c % n, app % n, amount), (app % n, c % n, 1.0)]),
                        4 => twin.warmup(),
                        _ => {}
                    }
                }
                if drain_at_end {
                    twin.both(|s, t| s.drain_to_completion(t));
                } else {
                    twin.both(|s, t| s.materialise_all(t));
                }
                twin.assert_agree();
            }
        }
    }
}
