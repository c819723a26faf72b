//! The fluid flow core under both simulators.
//!
//! [`crate::engine::Simulator`] and [`crate::live::LiveSim`] differ in what
//! they *observe* (fluid partial-credit queues and a periodic report vs
//! per-entry events and live mutation), not in how transfers share the §2
//! network. That part — the slot table, rate allocation, lazy progress
//! materialisation and completion scheduling — lives here once, as a
//! [`FlowCore`] with two variants chosen at construction from a
//! [`SimEngine`]:
//!
//! * [`SimEngine::Incremental`] keeps a stateful [`BandwidthAllocator`]
//!   that re-solves only the dirty set, schedules completions in a binary
//!   heap with lazy invalidation (a per-slot version bumped at every rate
//!   change), and advances a flow's `remaining` only when its rate changes
//!   — a commit costs the flows it *affects*, times the filling rounds
//!   their subproblem takes. The one quadratic commit is a driver
//!   re-adding a whole batch (F dirty flows × ≈ F rounds); a driver whose
//!   batches repeat calls [`FlowCore::arm_batch_memo`] so the allocator
//!   answers a re-posed batch from its memo. `Simulator::run` does;
//!   `LiveSim` (job-dependent amounts, never the same batch twice, one
//!   allocator per resident tenant) and [`FlowCore::import`] leave it
//!   unarmed;
//! * [`SimEngine::FullRecompute`] is the retained reference: one full
//!   [`allocate_rates`] solve whenever anything changed, eager
//!   materialisation of every flow at every step, and linear
//!   next-completion and completion sweeps. It is the cross-check oracle
//!   and the baseline the `dls-bench` harnesses time the fast variant
//!   against.
//!
//! Mutations are batched the way the allocator wants them: completions
//! ([`FlowCore::pop_due`]) and retirements ([`FlowCore::retire`]) queue
//! removals, [`FlowCore::stage`] queues additions, and one
//! [`FlowCore::commit`] hands both to the allocator in a single update.

use crate::bandwidth::{
    allocate_rates, certify_max_min, AllocStats, AllocatorState, BandwidthAllocator, FlowId,
    FlowSpec,
};
use crate::SimEngine;
use dls_core::approx::close;
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// Min-heap entry keyed on projected completion time; entries are lazily
/// invalidated by bumping the slot's version when the rate changes.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) struct HeapEntry {
    time: f64,
    slot: u32,
    version: u64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest time.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.slot.cmp(&self.slot))
            .then_with(|| other.version.cmp(&self.version))
    }
}

/// One live transfer. `P` is whatever the owning engine delivers on
/// completion.
#[derive(Debug, Clone)]
pub(crate) struct Flow<P> {
    pub(crate) spec: FlowSpec,
    pub(crate) payload: P,
    /// Load units to ship in total.
    pub(crate) size: f64,
    pub(crate) remaining: f64,
    /// Simulation time `remaining` was last materialised at.
    pub(crate) last_t: f64,
    pub(crate) rate: f64,
    /// Allocator handle (incremental variant only).
    pub(crate) alloc_id: Option<FlowId>,
}

impl<P> Flow<P> {
    /// Materialises progress at the current rate up to `t`, crediting the
    /// shipped units to both local links the flow crosses.
    fn ship_to(&mut self, t: f64, carried: &mut [f64]) {
        let seg = (t - self.last_t).max(0.0);
        if seg > 0.0 {
            self.ship(self.rate * seg, carried);
        }
        self.last_t = t;
    }

    fn ship(&mut self, amount: f64, carried: &mut [f64]) {
        self.remaining -= amount;
        carried[self.spec.src.index()] += amount;
        carried[self.spec.dst.index()] += amount;
    }
}

/// The completion schedule: a min-heap of projected completion times,
/// lazily invalidated through a per-slot version.
#[derive(Debug, Default)]
struct Completions {
    versions: Vec<u64>,
    heap: BinaryHeap<HeapEntry>,
}

impl Completions {
    /// Invalidates slot `s`'s entries and, unless the flow is stalled,
    /// schedules its completion from its state materialised at `t`.
    fn reschedule<P>(&mut self, s: usize, f: &Flow<P>, t: f64, rate_eps: f64) {
        self.versions[s] += 1;
        if f.rate > rate_eps {
            self.heap.push(HeapEntry {
                time: t + f.remaining.max(0.0) / f.rate,
                slot: s as u32,
                version: self.versions[s],
            });
        }
    }

    /// The earliest valid entry (stale ones lazily dropped).
    fn peek<P>(&mut self, flows: &[Option<Flow<P>>]) -> Option<HeapEntry> {
        while let Some(&e) = self.heap.peek() {
            let s = e.slot as usize;
            if flows[s].is_some() && self.versions[s] == e.version {
                return Some(e);
            }
            self.heap.pop();
        }
        None
    }
}

/// The incremental variant's state.
#[derive(Debug)]
struct Incremental {
    alloc: BandwidthAllocator,
    due: Completions,
    /// Completed/retired flows the allocator has not been told about.
    removals: Vec<FlowId>,
    // Scratch for `commit`.
    additions: Vec<FlowSpec>,
    new_ids: Vec<FlowId>,
}

/// The state only one variant needs.
// One per simulator and never moved in bulk: boxing the big variant would
// only put a pointer chase on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Solver {
    Incremental(Incremental),
    Full { free: Vec<u32>, rates_stale: bool },
}

/// Variant state as [`crate::LiveSnapshot`] serialises it (each variant
/// leaves the other's fields at their empty defaults).
pub(crate) struct SolverState {
    pub(crate) versions: Vec<u64>,
    pub(crate) heap: Vec<HeapEntry>,
    pub(crate) free: Vec<u32>,
    pub(crate) rates_stale: bool,
    pub(crate) alloc: AllocatorState,
}

/// See the module docs.
#[derive(Debug)]
pub(crate) struct FlowCore<P> {
    oracle_check: bool,
    local_bw: Vec<f64>,
    /// A rate below this is "stalled": scale-relative so huge-bandwidth
    /// platforms don't schedule completions astronomically far out while
    /// tiny platforms still make progress.
    rate_eps: f64,
    /// Slot-indexed (allocator slots in the incremental variant, an own
    /// free list in the reference one).
    flows: Vec<Option<Flow<P>>>,
    n_live: usize,
    /// Load units shipped over each local link so far, both directions.
    carried: Vec<f64>,
    staged: Vec<Flow<P>>,
    new_slots: Vec<u32>,
    solver: Solver,
}

fn rate_eps(local_bw: &[f64]) -> f64 {
    1e-15 * (1.0 + local_bw.iter().fold(0.0f64, |a, &b| a.max(b)))
}

impl<P> FlowCore<P> {
    /// An empty core over the given local-link capacities. `oracle_check`
    /// audits the incremental variant after every mutation (see
    /// [`FlowCore::audit`]); the reference variant ignores it.
    pub(crate) fn new(local_bw: &[f64], engine: SimEngine, oracle_check: bool) -> Self {
        FlowCore {
            oracle_check,
            local_bw: local_bw.to_vec(),
            rate_eps: rate_eps(local_bw),
            flows: Vec::new(),
            n_live: 0,
            carried: vec![0.0; local_bw.len()],
            staged: Vec::new(),
            new_slots: Vec::new(),
            solver: match engine {
                SimEngine::Incremental => Solver::Incremental(Incremental {
                    alloc: BandwidthAllocator::new(local_bw),
                    due: Completions::default(),
                    removals: Vec::new(),
                    additions: Vec::new(),
                    new_ids: Vec::new(),
                }),
                SimEngine::FullRecompute => Solver::Full {
                    free: Vec::new(),
                    rates_stale: false,
                },
            },
        }
    }

    /// Arms the allocator's batch memo (see [`BandwidthAllocator`]): for a
    /// driver that commits the same batch of flows again and again. A no-op
    /// on the reference variant.
    pub(crate) fn arm_batch_memo(&mut self) {
        if let Solver::Incremental(inc) = &mut self.solver {
            inc.alloc.arm_batch_memo();
        }
    }

    /// The allocator's work counters (all zero on the reference variant,
    /// which has no allocator).
    pub(crate) fn alloc_stats(&self) -> AllocStats {
        match &self.solver {
            Solver::Incremental(inc) => inc.alloc.stats(),
            Solver::Full { .. } => AllocStats::default(),
        }
    }

    pub(crate) fn local_bw(&self) -> &[f64] {
        &self.local_bw
    }

    pub(crate) fn live(&self) -> usize {
        self.n_live
    }

    /// The slot table (`None` marks a free slot).
    pub(crate) fn slots(&self) -> &[Option<Flow<P>>] {
        &self.flows
    }

    pub(crate) fn carried(&self) -> &[f64] {
        &self.carried
    }

    /// Queues a flow of `size` load units for the next [`FlowCore::commit`].
    pub(crate) fn stage(&mut self, spec: FlowSpec, size: f64, payload: P) {
        self.staged.push(Flow {
            spec,
            payload,
            size,
            remaining: size,
            last_t: 0.0,
            rate: 0.0,
            alloc_id: None,
        });
    }

    /// Slots of the flows the last [`FlowCore::commit`] added, in staging
    /// order.
    pub(crate) fn new_slots(&self) -> &[u32] {
        &self.new_slots
    }

    /// Applies the queued removals and staged additions at time `t` in one
    /// allocator update.
    pub(crate) fn commit(&mut self, t: f64) {
        self.new_slots.clear();
        match &mut self.solver {
            Solver::Incremental(inc) => {
                if inc.removals.is_empty() && self.staged.is_empty() {
                    return;
                }
                inc.additions.clear();
                inc.additions.extend(self.staged.iter().map(|f| f.spec));
                inc.alloc
                    .update(&inc.removals, &inc.additions, &mut inc.new_ids);
                inc.removals.clear();
                if self.flows.len() < inc.alloc.slots() {
                    self.flows.resize_with(inc.alloc.slots(), || None);
                    inc.due.versions.resize(inc.alloc.slots(), 0);
                }
                for (mut f, &id) in self.staged.drain(..).zip(&inc.new_ids) {
                    let s = id.index();
                    f.last_t = t;
                    f.rate = inc.alloc.rate(id);
                    f.alloc_id = Some(id);
                    inc.due.reschedule(s, &f, t, self.rate_eps);
                    self.flows[s] = Some(f);
                    self.n_live += 1;
                    self.new_slots.push(s as u32);
                }
            }
            Solver::Full { free, rates_stale } => {
                for mut f in self.staged.drain(..) {
                    let s = free.pop().map_or_else(
                        || {
                            self.flows.push(None);
                            self.flows.len() - 1
                        },
                        |s| s as usize,
                    );
                    f.last_t = t;
                    self.flows[s] = Some(f);
                    self.n_live += 1;
                    self.new_slots.push(s as u32);
                    *rates_stale = true;
                }
            }
        }
        self.rates_changed(t, "commit");
    }

    /// Removes the live flow in `slot` mid-transfer, progress materialised
    /// up to `t`. Takes effect on the rates at the next [`FlowCore::commit`].
    pub(crate) fn retire(&mut self, slot: usize, t: f64) -> Flow<P> {
        let mut f = self.flows[slot].take().expect("retire of a free slot");
        self.n_live -= 1;
        f.ship_to(t, &mut self.carried);
        match &mut self.solver {
            Solver::Incremental(inc) => {
                inc.due.versions[slot] += 1;
                inc.removals
                    .push(f.alloc_id.expect("incremental flows carry an id"));
            }
            Solver::Full { free, rates_stale } => {
                free.push(slot as u32);
                *rates_stale = true;
            }
        }
        f
    }

    /// Changes local link `link`'s capacity to `g` at time `t`.
    pub(crate) fn retune(&mut self, t: f64, link: usize, g: f64) {
        // Validated here so the reference variant fails fast on the same
        // inputs the incremental allocator would reject.
        assert!(
            g >= 0.0 && g.is_finite(),
            "local-link capacity must be finite and non-negative, got {g}"
        );
        self.local_bw[link] = g;
        self.rate_eps = rate_eps(&self.local_bw);
        match &mut self.solver {
            Solver::Incremental(inc) => inc.alloc.set_local_bw(link, g),
            Solver::Full { rates_stale, .. } => *rates_stale = true,
        }
        self.rates_changed(t, "retune");
    }

    /// Replaces the `(cap, demand)` pair of the live flow in `slot` at
    /// time `t`, keeping its slot and shipped progress.
    pub(crate) fn reshape(&mut self, t: f64, slot: usize, cap: f64, demand: f64) {
        let f = self.flows[slot].as_mut().expect("reshape of a free slot");
        match &mut self.solver {
            Solver::Incremental(inc) => {
                let id = f.alloc_id.expect("incremental flows carry an id");
                inc.alloc.reshape(&[(id, cap, demand)]);
            }
            Solver::Full { rates_stale, .. } => *rates_stale = true,
        }
        f.spec.cap = cap;
        f.spec.demand = demand;
        self.rates_changed(t, "reshape");
    }

    /// Incremental variant: folds the allocator's changed-rate report into
    /// the flow table and reschedules those completions. (The reference
    /// variant re-solves lazily in [`FlowCore::next_completion`].)
    fn rates_changed(&mut self, t: f64, context: &str) {
        let Solver::Incremental(inc) = &mut self.solver else {
            return;
        };
        for &id in inc.alloc.changed() {
            let s = id.index();
            let f = self.flows[s].as_mut().expect("changed flow is live");
            f.ship_to(t, &mut self.carried);
            f.rate = inc.alloc.rate(id);
            inc.due.reschedule(s, f, t, self.rate_eps);
        }
        if self.oracle_check {
            self.audit(t, context);
        }
    }

    /// Earliest completion time of any progressing flow, as seen from `t`
    /// (`∞` when none). Every queued removal must have been committed.
    pub(crate) fn next_completion(&mut self, t: f64) -> f64 {
        match &mut self.solver {
            Solver::Incremental(inc) => {
                debug_assert!(inc.removals.is_empty(), "uncommitted removals");
                inc.due.peek(&self.flows).map_or(f64::INFINITY, |e| e.time)
            }
            Solver::Full { rates_stale, .. } => {
                if std::mem::take(rates_stale) {
                    // The honest slow path: one full solve over every live
                    // flow, in slot order.
                    let specs: Vec<FlowSpec> =
                        self.flows.iter().flatten().map(|f| f.spec).collect();
                    let rates = allocate_rates(&self.local_bw, &specs);
                    for (f, r) in self.flows.iter_mut().flatten().zip(rates) {
                        f.rate = r;
                    }
                }
                let mut next = f64::INFINITY;
                for f in self.flows.iter().flatten() {
                    if f.rate > self.rate_eps {
                        next = next.min(t + f.remaining.max(0.0) / f.rate);
                    }
                }
                next
            }
        }
    }

    /// Moves time from `t` to `t + dt` with no completion in between. The
    /// reference variant materialises every flow; the incremental one
    /// advances lazily and does nothing here.
    pub(crate) fn advance(&mut self, t: f64, dt: f64) {
        if let Solver::Full { .. } = self.solver {
            for f in self.flows.iter_mut().flatten() {
                f.ship(f.rate * dt, &mut self.carried);
                f.last_t = t + dt;
            }
        }
    }

    /// Removes every flow that completes at `t` and hands it to `sink` as
    /// `(slot, flow)`, so a caller keeps no buffer between calls. The rates
    /// of the survivors change at the next [`FlowCore::commit`].
    pub(crate) fn pop_due(&mut self, t: f64, mut sink: impl FnMut(u32, Flow<P>)) {
        match &mut self.solver {
            Solver::Incremental(inc) => {
                while let Some(e) = inc.due.peek(&self.flows) {
                    if e.time > t && !close(e.time, t, 1e-12) {
                        break;
                    }
                    inc.due.heap.pop();
                    let s = e.slot as usize;
                    let mut f = self.flows[s].take().expect("peek returns live slots");
                    self.n_live -= 1;
                    // Any leftover is size-relative dust: the caller
                    // delivers the full payload.
                    f.ship_to(t, &mut self.carried);
                    inc.removals
                        .push(f.alloc_id.expect("incremental flows carry an id"));
                    sink(e.slot, f);
                }
            }
            Solver::Full { free, rates_stale } => {
                for s in 0..self.flows.len() {
                    // Relative threshold: fluid arithmetic leaves
                    // size-proportional dust at the projected completion
                    // time (a reserved-rate flow finishes exactly at its
                    // period boundary).
                    let done = |f: &mut Flow<P>| f.remaining <= 1e-9 * (1.0 + f.size);
                    if let Some(f) = self.flows[s].take_if(done) {
                        self.n_live -= 1;
                        free.push(s as u32);
                        *rates_stale = true;
                        sink(s as u32, f);
                    }
                }
            }
        }
    }

    /// Materialises every live flow's progress up to `t`, so
    /// [`FlowCore::carried`] is complete at the end of a run.
    pub(crate) fn settle(&mut self, t: f64) {
        for f in self.flows.iter_mut().flatten() {
            f.ship_to(t, &mut self.carried);
        }
    }

    /// Cross-checks the incremental variant against the full oracle,
    /// panicking on divergence beyond 1e-9 relative: every rate must match
    /// a fresh [`allocate_rates`] solve, the rates the flows progress at
    /// must pass [`certify_max_min`] (the definition, not a second solve),
    /// and the completion heap's next due time (after lazy invalidation)
    /// must equal a full scan's projection from each flow's materialised
    /// state — a stale-but-undetected or dropped heap entry would silently
    /// reorder the event stream, so it is caught at the mutation that
    /// caused it, not at the divergent completion. A no-op on the reference
    /// variant (it has no fast-path state to audit).
    pub(crate) fn audit(&mut self, t: f64, context: &str) {
        let Solver::Incremental(inc) = &self.solver else {
            return;
        };
        inc.alloc
            .assert_matches_oracle(1e-9, &format!("oracle_check ({context}) at t = {t}"));
        let (specs, rates): (Vec<FlowSpec>, Vec<f64>) = self
            .flows
            .iter()
            .flatten()
            .map(|f| (f.spec, f.rate))
            .unzip();
        if let Err(e) = certify_max_min(&self.local_bw, &specs, &rates) {
            panic!("oracle_check ({context}) at t = {t}: {e}");
        }
        let heap_next = self.next_completion(t);
        let mut scan_next = f64::INFINITY;
        for f in self.flows.iter().flatten() {
            if f.rate > self.rate_eps {
                scan_next = scan_next.min(f.last_t + f.remaining.max(0.0) / f.rate);
            }
        }
        assert!(
            (heap_next.is_infinite() && scan_next.is_infinite())
                || close(heap_next, scan_next, 1e-9),
            "oracle_check ({context}) at t = {t}: heap next completion \
             {heap_next} != scan projection {scan_next}"
        );
    }

    /// Test hook: corrupts the completion heap so that [`FlowCore::audit`]
    /// must fire — with a phantom *valid-version* entry at a wrong time
    /// (`phantom`), or by bumping a progressing flow's version without
    /// re-inserting its entry, silently dropping its completion.
    pub(crate) fn debug_corrupt_heap(&mut self, t: f64, phantom: bool) {
        let Solver::Incremental(inc) = &mut self.solver else {
            panic!("heap corruption needs the incremental core");
        };
        let live = |f: &Flow<P>| phantom || f.rate > self.rate_eps;
        let s = self
            .flows
            .iter()
            .position(|f| f.as_ref().is_some_and(live))
            .expect("a live flow to corrupt");
        if phantom {
            inc.due.heap.push(HeapEntry {
                time: t - 1.0,
                slot: s as u32,
                version: inc.due.versions[s],
            });
        } else {
            inc.due.versions[s] += 1;
        }
    }

    /// The variant state for a snapshot; with [`FlowCore::slots`] and
    /// [`FlowCore::local_bw`] it is everything [`FlowCore::import`] needs
    /// to rebuild a core that behaves bit-identically: slot layout, the
    /// free list, the allocator's per-link membership order, and the heap's
    /// entry multiset (its strict total order makes the rebuilt pop
    /// sequence identical regardless of internal layout).
    pub(crate) fn export(&self) -> SolverState {
        match &self.solver {
            Solver::Incremental(inc) => {
                let mut heap: Vec<HeapEntry> = inc.due.heap.iter().copied().collect();
                // Deterministic serialisation order (BinaryHeap iteration
                // is not): earliest first.
                heap.sort_by(|a, b| b.cmp(a));
                SolverState {
                    versions: inc.due.versions.clone(),
                    heap,
                    free: Vec::new(),
                    rates_stale: false,
                    alloc: inc.alloc.snapshot(),
                }
            }
            Solver::Full { free, rates_stale } => SolverState {
                versions: vec![0; self.flows.len()],
                heap: Vec::new(),
                free: free.clone(),
                rates_stale: *rates_stale,
                alloc: BandwidthAllocator::new(&self.local_bw).snapshot(),
            },
        }
    }

    /// Loads a slot table and an [`FlowCore::export`]ed state into a core
    /// freshly built over the snapshot's capacities and engine.
    pub(crate) fn import(&mut self, flows: Vec<Option<Flow<P>>>, state: SolverState) {
        self.n_live = flows.iter().flatten().count();
        self.flows = flows;
        match &mut self.solver {
            Solver::Incremental(inc) => {
                inc.alloc = BandwidthAllocator::from_state(&state.alloc);
                inc.due.versions = state.versions;
                inc.due.heap = state.heap.into();
            }
            Solver::Full { free, rates_stale } => {
                *free = state.free;
                *rates_stale = state.rates_stale;
            }
        }
    }
}
