//! Bandwidth sharing on the fluid local links.
//!
//! The platform model gives every flow a hard cap from its backbone
//! connections (`β · min bw`) and routes it across two fluid local links
//! (source egress `g_src`, destination ingress `g_dst`) whose capacity is
//! shared with every other flow touching the same cluster. The reference
//! allocator implements **reservation-aware max-min fairness**:
//!
//! 1. every flow is first granted its *reserved* rate [`FlowSpec::demand`]
//!    (the steady-state rate `α` the Eq. 7 allocation budgeted for it —
//!    constraints 7b/7c guarantee the reservations fit on every local
//!    link);
//! 2. the surplus is then distributed by classical progressive filling
//!    (Bertsekas & Gallager): all unfrozen flow rates rise together; a flow
//!    freezes when it hits its cap or when one of its links saturates.
//!
//! The reservation phase is what makes valid periodic schedules execute on
//! time: pure max-min filling from zero gives every flow on a shared link an
//! *equal* share first, which can starve a flow whose reserved rate sits at
//! its connection cap (it can never catch up later) while a small flow
//! hoards bandwidth it does not need. With `demand = 0` the allocator
//! degenerates to the classical cap-limited max-min water-filling.
//!
//! [`allocate_rates`] is that algorithm over all flows — the oracle.
//! [`BandwidthAllocator`] keeps an allocation current across arrivals,
//! completions and constraint changes by re-running the same algorithm on
//! the dirty flows only, and can remember the subproblems a periodic
//! driver poses over and over; its type docs give the cost of an event,
//! the memo's key and hit rule, and [`AllocStats`] counts the work.

use dls_platform::ClusterId;
use serde::{Deserialize, Serialize};

/// A flow to be rate-allocated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Source cluster (consumes `g_src` egress).
    pub src: ClusterId,
    /// Destination cluster (consumes `g_dst` ingress).
    pub dst: ClusterId,
    /// Hard per-flow cap `β·minbw` (`f64::INFINITY` for same-router pairs).
    pub cap: f64,
    /// Reserved steady-state rate (`α` from the allocation; `0.0` for
    /// best-effort flows with no reservation).
    pub demand: f64,
}

/// Sharing discipline for the local links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandwidthModel {
    /// Max-min fair progressive filling (the realistic model).
    MaxMinFair,
    /// Static equal split per link with no redistribution (ablation: wastes
    /// whatever capped flows leave on the table).
    EqualSplit,
}

/// Computes a rate per flow.
///
/// `local_bw[c]` is the capacity `g_c` of cluster `c`'s local link; each
/// flow consumes capacity on `src` and on `dst` (the paper's Eq. 7c counts
/// outgoing plus incoming traffic against the same link).
pub fn allocate_rates(local_bw: &[f64], flows: &[FlowSpec], model: BandwidthModel) -> Vec<f64> {
    match model {
        BandwidthModel::MaxMinFair => max_min_fair(local_bw, flows),
        BandwidthModel::EqualSplit => equal_split(local_bw, flows),
    }
}

/// Freeze tolerance shared by the oracle and the incremental allocator: a
/// link counts as saturated (and a flow as capped) when the slack drops
/// below `SAT_TOL · (1 + scale)`.
const SAT_TOL: f64 = 1e-12;

/// Progressive-filling increment below which the loop switches to the
/// stuck-flow freeze path (shared by both allocators).
const DELTA_FLOOR: f64 = 1e-15;

fn max_min_fair(local_bw: &[f64], flows: &[FlowSpec]) -> Vec<f64> {
    let n = flows.len();
    let mut rates = vec![0.0f64; n];
    if n == 0 {
        return rates;
    }
    let mut residual: Vec<f64> = local_bw.to_vec();
    let mut frozen = vec![false; n];
    // Flows per link (a flow with src == dst would be a modelling error and
    // is debug-asserted away by the engine).
    let links_of = |f: &FlowSpec| [f.src.index(), f.dst.index()];

    // Phase 1: grant reservations. Valid Eq. 7 allocations keep the summed
    // reservations within every local link; if an (invalid) input
    // oversubscribes a link anyway, scale the floors on that link down
    // proportionally so reservations alone never overdrive a link.
    let floors: Vec<f64> = flows.iter().map(|f| f.demand.max(0.0).min(f.cap)).collect();
    let mut floor_load = vec![0.0f64; local_bw.len()];
    for (f, &fl) in flows.iter().zip(&floors) {
        for l in links_of(f) {
            floor_load[l] += fl;
        }
    }
    let scale: Vec<f64> = floor_load
        .iter()
        .zip(local_bw)
        .map(|(&load, &g)| if load > g { g / load } else { 1.0 })
        .collect();
    for (i, f) in flows.iter().enumerate() {
        let s = links_of(f).iter().map(|&l| scale[l]).fold(1.0, f64::min);
        rates[i] = floors[i] * s;
        for l in links_of(f) {
            residual[l] = (residual[l] - rates[i]).max(0.0);
        }
    }

    // Phase 2: distribute the surplus by progressive filling.
    loop {
        let mut unfrozen_on_link = vec![0usize; local_bw.len()];
        let mut any_unfrozen = false;
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] {
                any_unfrozen = true;
                for l in links_of(f) {
                    unfrozen_on_link[l] += 1;
                }
            }
        }
        if !any_unfrozen {
            break;
        }
        // The smallest admissible simultaneous increment δ.
        let mut delta = f64::INFINITY;
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            delta = delta.min(f.cap - rates[i]);
            for l in links_of(f) {
                delta = delta.min(residual[l] / unfrozen_on_link[l] as f64);
            }
        }
        if !delta.is_finite() {
            // Every unfrozen flow is uncapped and touches only unsaturated,
            // infinite-capacity links — cannot happen with finite g, but
            // guard against degenerate inputs.
            break;
        }
        let delta = delta.max(0.0);
        // Apply the increment and freeze whoever hit a wall.
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            rates[i] += delta;
            for l in links_of(f) {
                residual[l] -= delta;
            }
        }
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let capped = rates[i] >= f.cap - SAT_TOL;
            let saturated = links_of(f)
                .iter()
                .any(|&l| residual[l] <= SAT_TOL * (1.0 + local_bw[l]));
            if capped || saturated {
                frozen[i] = true;
            }
        }
        if delta <= DELTA_FLOOR {
            // Numerical floor: freeze everything touching a saturated link
            // happened above; avoid spinning.
            for (i, f) in flows.iter().enumerate() {
                if !frozen[i] {
                    let stuck = links_of(f).iter().any(|&l| residual[l] <= SAT_TOL);
                    if stuck {
                        frozen[i] = true;
                    }
                }
            }
        }
    }
    rates
}

/// Naive ablation: a static equal share per link, no reservations, no
/// redistribution of whatever capped flows leave unused.
fn equal_split(local_bw: &[f64], flows: &[FlowSpec]) -> Vec<f64> {
    let mut count = vec![0usize; local_bw.len()];
    for f in flows {
        count[f.src.index()] += 1;
        count[f.dst.index()] += 1;
    }
    flows
        .iter()
        .map(|f| {
            let src_share = local_bw[f.src.index()] / count[f.src.index()].max(1) as f64;
            let dst_share = local_bw[f.dst.index()] / count[f.dst.index()].max(1) as f64;
            f.cap.min(src_share).min(dst_share)
        })
        .collect()
}

/// Stable handle to a flow tracked by a [`BandwidthAllocator`].
///
/// Slots are reused after removal; the generation counter makes stale
/// handles detectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId {
    slot: u32,
    gen: u32,
}

impl FlowId {
    /// Dense slot index, stable while the flow is live (reused afterwards).
    /// Useful for slot-indexed side tables; bound it by
    /// [`BandwidthAllocator::slots`].
    pub fn index(self) -> usize {
        self.slot as usize
    }

    /// Decomposes the handle for snapshot serialisation (crate-internal).
    pub(crate) fn to_parts(self) -> (u32, u32) {
        (self.slot, self.gen)
    }

    /// Rebuilds a handle from snapshot parts (crate-internal).
    pub(crate) fn of_parts(slot: u32, gen: u32) -> FlowId {
        FlowId { slot, gen }
    }
}

/// One slot's spec in an [`AllocatorState`]. The per-flow cap is
/// `Option`-encoded because `f64::INFINITY` (same-router pairs) does not
/// survive a JSON round trip: `None` means "uncapped".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct SpecState {
    src: u32,
    dst: u32,
    cap: Option<f64>,
    demand: f64,
}

impl SpecState {
    fn of(spec: &FlowSpec) -> SpecState {
        SpecState {
            src: spec.src.0,
            dst: spec.dst.0,
            cap: if spec.cap.is_finite() {
                Some(spec.cap)
            } else {
                None
            },
            demand: spec.demand,
        }
    }

    fn to_spec(self) -> FlowSpec {
        FlowSpec {
            src: ClusterId(self.src),
            dst: ClusterId(self.dst),
            cap: self.cap.unwrap_or(f64::INFINITY),
            demand: self.demand,
        }
    }
}

/// Serialisable persistent state of a [`BandwidthAllocator`], captured by
/// [`BandwidthAllocator::snapshot`] and rebuilt by
/// [`BandwidthAllocator::from_state`].
///
/// Only the path-dependent persistent state is stored — slot assignments,
/// generations, the free list, per-link membership *order* (summation
/// order matters bit-for-bit), and the current rates. Scratch buffers are
/// rebuilt empty; the sharing model is supplied at restore time by the
/// caller's config.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocatorState {
    local_bw: Vec<f64>,
    specs: Vec<SpecState>,
    rates: Vec<f64>,
    live: Vec<bool>,
    gen: Vec<u32>,
    free: Vec<u32>,
    link_flows: Vec<Vec<u32>>,
}

/// Plain stage counters of one [`BandwidthAllocator`], read through
/// [`BandwidthAllocator::stats`]. They count work, not time, repeat exactly
/// for a fixed op sequence, and are not part of any snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Non-empty `update` / `retune` / `reshape` calls.
    pub updates: u64,
    /// Dirty subproblems posed to the max-min solve (memo hits included;
    /// an update that dirties nothing poses none).
    pub subproblems: u64,
    /// Progressive-filling rounds run, each a few passes over the dirty set.
    pub filling_rounds: u64,
    /// Batch subproblems answered from the memo.
    pub memo_hits: u64,
    /// Batch subproblems the memo was asked about and had to solve.
    pub memo_misses: u64,
}

/// `u64` words one dirty flow contributes to a [`BatchMemo`] key: `src`,
/// `dst`, `cap`, `demand`, then `avail`, `scale` and `local_bw` of each of
/// its two links.
const KEY_WORDS: usize = 10;

/// Subproblems a [`BatchMemo`] remembers. A periodic run cycles through a
/// handful of boundary states (no straggler, one, …): over the benchmark's
/// 53 K = 95 instances 1 / 2 / 4 / 8 entries answer 90.6 / 97.8 / 99.87 /
/// 99.87 % of the boundary solves.
const MEMO_ENTRIES: usize = 4;

/// Remembered answers of [`BandwidthAllocator::solve_dirty_subproblem`],
/// keyed on the solve's complete input and matched by exact comparison:
/// the dirty flows in solve order with both links' pre-solve state, floats
/// as their bits. Entries are replaced round-robin.
#[derive(Debug, Clone, Default)]
struct BatchMemo {
    /// `(key, rates in dirty order)`. An unused entry holds the empty
    /// subproblem's key, which a batch (≥ 1 added, dirty flow) never poses.
    entries: [(Vec<u64>, Vec<f64>); MEMO_ENTRIES],
    /// Entry the next miss overwrites.
    next: usize,
    /// The key of the subproblem being posed (kept for its allocation).
    probe: Vec<u64>,
}

/// Stateful, incremental version of [`allocate_rates`].
///
/// The full allocator recomputes every rate from scratch at every event —
/// `O(F)` per event even when a single flow changed. This allocator keeps
/// the current allocation and, on arrival/completion, recomputes only the
/// **dirty set**: flows transitively sharing a *saturated* local link with
/// the changed flows. All other rates are provably unchanged:
///
/// * a link that is unsaturated in both the old and the new allocation
///   never freezes a flow during progressive filling, so it transmits no
///   influence between the flows crossing it;
/// * therefore influence propagates from a changed flow only through links
///   that are saturated before the change (grown eagerly) or become
///   saturated after it (detected by a post-solve check that expands the
///   dirty set and re-solves — the loop terminates because the dirty set
///   grows monotonically);
/// * reservation floors are scaled per link exactly like the oracle's
///   phase 1; a link whose floor load crosses its capacity marks all its
///   flows dirty, so scaling changes never leak to clean flows.
///
/// Within the dirty subproblem the allocator runs the *same* two-phase
/// algorithm as [`allocate_rates`] (floors, then progressive filling with
/// identical freeze tolerances) against the residual capacity left by the
/// clean flows, so the fixpoint it converges to is the oracle's — the
/// equivalence is asserted by property tests and, when
/// [`crate::SimConfig::oracle_check`] is set, at every simulation event.
///
/// # Cost of one event, and the batch memo
///
/// The subproblem solve is `O(dirty flows × filling rounds)`, and a round
/// may freeze a single flow. A completion on an unsaturated link dirties
/// nothing and costs its two links' populations; a period boundary of
/// [`crate::Simulator::run`] adds the whole schedule at once — every flow
/// dirty, most of them cap-limited, so F flows take ≈ F rounds. Solved
/// every time, that is ≈ 119 rounds × 119 flows × 4 passes at K = 95: 0.8 %
/// of the events and ≈ 73 % of a run's time. But a periodic run poses the
/// *same* subproblem at almost every boundary, so an allocator that has
/// been armed (crate-internal; only `Simulator::run` does it) remembers the
/// last four batch subproblems. The key is the solve's whole
/// input — per dirty flow, in solve order: `src`, `dst`, `cap`, `demand` and
/// for each of its two links the capacity left by the clean flows, the
/// reservation scale and `local_bw` — compared exactly, floats by their
/// bits; on a match the remembered rates are copied in and the two phases
/// are skipped, otherwise the solve runs and replaces the oldest entry.
/// Everything downstream (saturation expansion, the changed-rate report,
/// the oracle audit) sees the same bits either way. Only `update`s that
/// carry additions consult it; `retune`, `reshape`, removal-only updates
/// and `EqualSplit` never do, and [`BandwidthAllocator::from_state`]
/// rebuilds an unarmed allocator.
#[derive(Debug, Clone)]
pub struct BandwidthAllocator {
    model: BandwidthModel,
    local_bw: Vec<f64>,
    // Slot-indexed flow state.
    specs: Vec<FlowSpec>,
    rates: Vec<f64>,
    live: Vec<bool>,
    gen: Vec<u32>,
    free: Vec<u32>,
    n_live: usize,
    /// Per local link, the slots of the flows crossing it.
    link_flows: Vec<Vec<u32>>,
    /// Flows (including freshly added ones) whose rate changed in the last
    /// [`BandwidthAllocator::update`].
    changed: Vec<FlowId>,
    // --- scratch, slot-indexed ---
    dirty_mark: Vec<bool>,
    added_mark: Vec<bool>,
    old_rates: Vec<f64>,
    frozen: Vec<bool>,
    // --- scratch, link-indexed ---
    affected: Vec<bool>,
    used_old: Vec<f64>,
    used_old_valid: Vec<bool>,
    avail: Vec<f64>,
    scale: Vec<f64>,
    unfrozen: Vec<usize>,
    touch_mark: Vec<bool>,
    mchanged_mark: Vec<bool>,
    removed_used: Vec<f64>,
    removed_floor: Vec<f64>,
    added_floor: Vec<f64>,
    // --- scratch lists ---
    dirty: Vec<u32>,
    touched: Vec<u32>,
    mchanged: Vec<u32>,
    work: Vec<u32>,
    stats: AllocStats,
    /// `None` unless armed: the keys and rates are ≈ 40 KB at K = 95, and a
    /// daemon keeps one allocator per resident tenant.
    memo: Option<Box<BatchMemo>>,
}

impl BandwidthAllocator {
    /// Creates an empty allocator over the given local-link capacities.
    pub fn new(local_bw: &[f64], model: BandwidthModel) -> Self {
        let nl = local_bw.len();
        BandwidthAllocator {
            model,
            local_bw: local_bw.to_vec(),
            specs: Vec::new(),
            rates: Vec::new(),
            live: Vec::new(),
            gen: Vec::new(),
            free: Vec::new(),
            n_live: 0,
            link_flows: vec![Vec::new(); nl],
            changed: Vec::new(),
            dirty_mark: Vec::new(),
            added_mark: Vec::new(),
            old_rates: Vec::new(),
            frozen: Vec::new(),
            affected: vec![false; nl],
            used_old: vec![0.0; nl],
            used_old_valid: vec![false; nl],
            avail: vec![0.0; nl],
            scale: vec![1.0; nl],
            unfrozen: vec![0; nl],
            touch_mark: vec![false; nl],
            mchanged_mark: vec![false; nl],
            removed_used: vec![0.0; nl],
            removed_floor: vec![0.0; nl],
            added_floor: vec![0.0; nl],
            dirty: Vec::new(),
            touched: Vec::new(),
            mchanged: Vec::new(),
            work: Vec::new(),
            stats: AllocStats::default(),
            memo: None,
        }
    }

    /// Work counters since construction.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Arms the batch memo (see the type docs). Worth its memory only for a
    /// caller that adds the same batch over and over — `Simulator::run`.
    pub(crate) fn arm_batch_memo(&mut self) {
        self.memo.get_or_insert_with(Box::default);
    }

    /// Number of live flows.
    pub fn len(&self) -> usize {
        self.n_live
    }

    /// `true` when no flow is live.
    pub fn is_empty(&self) -> bool {
        self.n_live == 0
    }

    /// Upper bound (exclusive) on [`FlowId::index`] of any live flow.
    pub fn slots(&self) -> usize {
        self.specs.len()
    }

    /// The sharing discipline this allocator implements.
    pub fn model(&self) -> BandwidthModel {
        self.model
    }

    /// Current rate of a live flow.
    pub fn rate(&self, id: FlowId) -> f64 {
        debug_assert!(self.is_current(id), "stale FlowId");
        self.rates[id.slot as usize]
    }

    /// Spec of a live flow.
    pub fn spec(&self, id: FlowId) -> &FlowSpec {
        debug_assert!(self.is_current(id), "stale FlowId");
        &self.specs[id.slot as usize]
    }

    /// `true` iff `id` refers to a currently live flow.
    pub fn is_current(&self, id: FlowId) -> bool {
        let s = id.slot as usize;
        s < self.specs.len() && self.live[s] && self.gen[s] == id.gen
    }

    /// Flows whose rate changed during the last [`BandwidthAllocator::update`]
    /// (freshly added flows are reported through the update's `new_ids`).
    pub fn changed(&self) -> &[FlowId] {
        &self.changed
    }

    /// Live flows in slot order: `(id, spec, rate)`. Intended for oracle
    /// cross-checks and diagnostics — `O(slots)`.
    pub fn live_flows(&self) -> Vec<(FlowId, FlowSpec, f64)> {
        (0..self.specs.len())
            .filter(|&s| self.live[s])
            .map(|s| {
                (
                    FlowId {
                        slot: s as u32,
                        gen: self.gen[s],
                    },
                    self.specs[s],
                    self.rates[s],
                )
            })
            .collect()
    }

    /// Panics unless every live flow's rate matches a fresh
    /// [`allocate_rates`] solve within `tol` relative — the single
    /// equivalence contract shared by the engine's
    /// [`crate::SimConfig::oracle_check`], the unit tests, and the property
    /// tests. `O(F)` plus a full solve; not for hot paths.
    #[track_caller]
    pub fn assert_matches_oracle(&self, tol: f64, context: &str) {
        let live = self.live_flows();
        let specs: Vec<FlowSpec> = live.iter().map(|(_, s, _)| *s).collect();
        let oracle = allocate_rates(&self.local_bw, &specs, self.model);
        for (i, ((id, spec, rate), want)) in live.iter().zip(&oracle).enumerate() {
            assert!(
                dls_core::approx::close(*rate, *want, tol),
                "{context}: flow {i} ({spec:?}, {id:?}) has incremental rate {rate}, \
                 the full oracle says {want}"
            );
        }
    }

    /// Adds one flow; returns its handle. See [`BandwidthAllocator::update`].
    pub fn insert(&mut self, spec: FlowSpec) -> FlowId {
        let mut ids = Vec::with_capacity(1);
        self.update(&[], std::slice::from_ref(&spec), &mut ids);
        ids[0]
    }

    /// Removes one flow, returning its spec. See
    /// [`BandwidthAllocator::update`].
    pub fn remove(&mut self, id: FlowId) -> FlowSpec {
        let spec = *self.spec(id);
        let mut ids = Vec::new();
        self.update(std::slice::from_ref(&id), &[], &mut ids);
        spec
    }

    /// Applies a batch of removals and additions and reallocates the dirty
    /// set in one pass. Handles for the added flows are written to
    /// `new_ids` (cleared first, in `additions` order); flows whose rate
    /// changed are afterwards available from
    /// [`BandwidthAllocator::changed`].
    pub fn update(
        &mut self,
        removals: &[FlowId],
        additions: &[FlowSpec],
        new_ids: &mut Vec<FlowId>,
    ) {
        self.changed.clear();
        new_ids.clear();
        if removals.is_empty() && additions.is_empty() {
            return;
        }
        self.stats.updates += 1;

        // --- removals ---
        for &id in removals {
            assert!(self.is_current(id), "removal of a stale FlowId");
            let s = id.slot as usize;
            let spec = self.specs[s];
            let floor = raw_floor(&spec);
            for l in [spec.src.index(), spec.dst.index()] {
                self.mark_membership_changed(l);
                self.removed_used[l] += self.rates[s];
                self.removed_floor[l] += floor;
                let pos = self.link_flows[l]
                    .iter()
                    .position(|&x| x == id.slot)
                    .expect("flow registered on its link");
                self.link_flows[l].swap_remove(pos);
            }
            self.live[s] = false;
            self.gen[s] = self.gen[s].wrapping_add(1);
            self.rates[s] = 0.0;
            self.free.push(id.slot);
            self.n_live -= 1;
        }

        // --- additions ---
        for spec in additions {
            debug_assert!(
                spec.src != spec.dst,
                "flow with src == dst is a modelling error"
            );
            let s = match self.free.pop() {
                Some(s) => s as usize,
                None => {
                    self.specs.push(FlowSpec {
                        src: ClusterId(0),
                        dst: ClusterId(0),
                        cap: 0.0,
                        demand: 0.0,
                    });
                    self.rates.push(0.0);
                    self.live.push(false);
                    self.gen.push(0);
                    self.dirty_mark.push(false);
                    self.added_mark.push(false);
                    self.old_rates.push(0.0);
                    self.frozen.push(false);
                    self.specs.len() - 1
                }
            };
            self.specs[s] = *spec;
            self.live[s] = true;
            self.rates[s] = 0.0;
            self.added_mark[s] = true;
            self.n_live += 1;
            let floor = raw_floor(spec);
            for l in [spec.src.index(), spec.dst.index()] {
                self.mark_membership_changed(l);
                self.added_floor[l] += floor;
                self.link_flows[l].push(s as u32);
            }
            new_ids.push(FlowId {
                slot: s as u32,
                gen: self.gen[s],
            });
            // Added flows seed the dirty set.
            self.make_dirty(s);
        }

        if self.n_live > 0 {
            match self.model {
                BandwidthModel::MaxMinFair => self.reallocate_maxmin(!additions.is_empty()),
                BandwidthModel::EqualSplit => self.reallocate_equal_split(),
            }
        }

        self.finish_update();
    }

    /// Changes the capacity of one local link and incrementally
    /// re-allocates. See [`BandwidthAllocator::retune`].
    pub fn set_local_bw(&mut self, link: usize, g: f64) {
        self.retune(&[(link, g)]);
    }

    /// Applies a batch of local-link capacity changes `(link, new_g)` and
    /// re-allocates the dirty set in one pass: every flow crossing a
    /// re-tuned link is re-solved (for max-min, together with everything
    /// transitively coupled through links that were saturated under the old
    /// allocation, exactly like [`BandwidthAllocator::update`]), while
    /// provably-unaffected rates stay untouched. Flows whose rate changed
    /// are afterwards available from [`BandwidthAllocator::changed`].
    ///
    /// This is the capacity half of the live-mutation API: platform drift
    /// (`g_k` rising or falling, down to a churn outage at `g_k = 0`)
    /// becomes one incremental event instead of a fresh engine build.
    pub fn retune(&mut self, changes: &[(usize, f64)]) {
        self.changed.clear();
        if changes.is_empty() {
            return;
        }
        self.stats.updates += 1;
        for &(l, g) in changes {
            assert!(
                g >= 0.0 && g.is_finite(),
                "local-link capacity must be finite and non-negative, got {g}"
            );
            // Affect the link while its *old* saturation snapshot is still
            // the one influence propagation sees; the whole population
            // re-solves under the new capacity either way.
            self.affect(l);
            self.local_bw[l] = g;
        }
        if self.n_live > 0 {
            match self.model {
                BandwidthModel::MaxMinFair => {
                    self.grow_from_work();
                    self.solve_to_fixpoint(false);
                }
                BandwidthModel::EqualSplit => {
                    self.work.clear();
                    self.recompute_equal_split_dirty();
                }
            }
        }
        self.finish_update();
    }

    /// Applies a batch of per-flow constraint changes `(id, new_cap,
    /// new_demand)` and re-allocates the dirty set in one pass, exactly
    /// like [`BandwidthAllocator::retune`] does for link capacities.
    ///
    /// This is the per-flow half of the live-mutation API: a backbone
    /// partition stalls a flow (`cap = 0`) and the heal restores it, a
    /// straggler degrades it, all without churning the flow's slot or
    /// handle. Both links of every reshaped flow are conservatively pulled
    /// into the dirty set (their whole populations re-solve — reservation
    /// scaling on those links may shift), and influence propagates further
    /// only through links saturated under the old allocation.
    pub fn reshape(&mut self, changes: &[(FlowId, f64, f64)]) {
        self.changed.clear();
        if changes.is_empty() {
            return;
        }
        self.stats.updates += 1;
        for &(id, cap, demand) in changes {
            assert!(self.is_current(id), "reshape of a stale FlowId");
            assert!(
                cap >= 0.0 && !cap.is_nan(),
                "per-flow cap must be non-negative, got {cap}"
            );
            assert!(
                demand >= 0.0 && demand.is_finite(),
                "per-flow demand must be finite and non-negative, got {demand}"
            );
            let s = id.slot as usize;
            let spec = self.specs[s];
            // Affect both links while the *old* saturation snapshot is
            // still the one influence propagation sees.
            self.affect(spec.src.index());
            self.affect(spec.dst.index());
            self.specs[s].cap = cap;
            self.specs[s].demand = demand;
        }
        if self.n_live > 0 {
            match self.model {
                BandwidthModel::MaxMinFair => {
                    self.grow_from_work();
                    self.solve_to_fixpoint(false);
                }
                BandwidthModel::EqualSplit => {
                    self.work.clear();
                    self.recompute_equal_split_dirty();
                }
            }
        }
        self.finish_update();
    }

    /// Captures the persistent state for failover snapshots. Must be
    /// called between updates (scratch state is transient and not saved);
    /// [`BandwidthAllocator::from_state`] rebuilds an allocator that
    /// behaves bit-identically from this point on.
    pub fn snapshot(&self) -> AllocatorState {
        AllocatorState {
            local_bw: self.local_bw.clone(),
            specs: self.specs.iter().map(SpecState::of).collect(),
            rates: self.rates.clone(),
            live: self.live.clone(),
            gen: self.gen.clone(),
            free: self.free.clone(),
            link_flows: self.link_flows.clone(),
        }
    }

    /// Rebuilds an allocator from a [`BandwidthAllocator::snapshot`] under
    /// the given sharing model (the model is config, not state).
    pub fn from_state(state: &AllocatorState, model: BandwidthModel) -> Self {
        let mut alloc = BandwidthAllocator::new(&state.local_bw, model);
        alloc.specs = state.specs.iter().map(|s| s.to_spec()).collect();
        alloc.rates = state.rates.clone();
        alloc.live = state.live.clone();
        alloc.gen = state.gen.clone();
        alloc.free = state.free.clone();
        alloc.link_flows = state.link_flows.clone();
        alloc.n_live = state.live.iter().filter(|&&l| l).count();
        let slots = alloc.specs.len();
        alloc.dirty_mark = vec![false; slots];
        alloc.added_mark = vec![false; slots];
        alloc.old_rates = vec![0.0; slots];
        alloc.frozen = vec![false; slots];
        alloc
    }

    /// Reports rate changes and resets the per-update scratch state (the
    /// shared tail of [`BandwidthAllocator::update`] and
    /// [`BandwidthAllocator::retune`]).
    fn finish_update(&mut self) {
        for i in 0..self.dirty.len() {
            let s = self.dirty[i] as usize;
            self.dirty_mark[s] = false;
            self.frozen[s] = false;
            let added = std::mem::replace(&mut self.added_mark[s], false);
            if self.live[s] && !added && self.rates[s] != self.old_rates[s] {
                self.changed.push(FlowId {
                    slot: s as u32,
                    gen: self.gen[s],
                });
            }
        }
        self.dirty.clear();
        self.work.clear();
        for i in 0..self.touched.len() {
            let l = self.touched[i] as usize;
            self.affected[l] = false;
            self.used_old_valid[l] = false;
            self.touch_mark[l] = false;
        }
        self.touched.clear();
        for i in 0..self.mchanged.len() {
            let l = self.mchanged[i] as usize;
            self.mchanged_mark[l] = false;
            self.removed_used[l] = 0.0;
            self.removed_floor[l] = 0.0;
            self.added_floor[l] = 0.0;
        }
        self.mchanged.clear();
    }

    fn mark_membership_changed(&mut self, l: usize) {
        if !self.mchanged_mark[l] {
            self.mchanged_mark[l] = true;
            self.mchanged.push(l as u32);
        }
        self.touch(l);
    }

    fn touch(&mut self, l: usize) {
        if !self.touch_mark[l] {
            self.touch_mark[l] = true;
            self.touched.push(l as u32);
        }
    }

    /// Marks a slot dirty, snapshotting its pre-update rate, and queues it
    /// for saturation-driven growth.
    fn make_dirty(&mut self, s: usize) {
        if !self.dirty_mark[s] {
            self.dirty_mark[s] = true;
            self.old_rates[s] = self.rates[s];
            self.dirty.push(s as u32);
            self.work.push(s as u32);
        }
    }

    /// Link usage under the *old* allocation (pre-update rates, including
    /// flows removed by this update), lazily computed and cached.
    fn used_old(&mut self, l: usize) -> f64 {
        if !self.used_old_valid[l] {
            let mut u = self.removed_used[l];
            for &s in &self.link_flows[l] {
                let s = s as usize;
                u += if self.dirty_mark[s] {
                    self.old_rates[s]
                } else {
                    self.rates[s]
                };
            }
            self.used_old[l] = u;
            self.used_old_valid[l] = true;
            self.touch(l);
        }
        self.used_old[l]
    }

    fn saturated_old(&mut self, l: usize) -> bool {
        let g = self.local_bw[l];
        self.used_old(l) >= g - SAT_TOL * (1.0 + g)
    }

    /// Marks every flow on `l` dirty (the link's whole population will be
    /// re-solved).
    fn affect(&mut self, l: usize) {
        if !self.affected[l] {
            self.affected[l] = true;
            self.touch(l);
            let flows = std::mem::take(&mut self.link_flows[l]);
            for &s in &flows {
                self.make_dirty(s as usize);
            }
            self.link_flows[l] = flows;
        }
    }

    /// Drains the grow worklist: every dirty flow pulls in the full
    /// population of any of its links that was saturated under the old
    /// allocation (influence propagates through saturated links only).
    fn grow_from_work(&mut self) {
        while let Some(s) = self.work.pop() {
            let s = s as usize;
            let spec = self.specs[s];
            for l in [spec.src.index(), spec.dst.index()] {
                self.touch(l);
                if !self.affected[l] && self.saturated_old(l) {
                    self.affect(l);
                }
            }
        }
    }

    fn reallocate_maxmin(&mut self, batch: bool) {
        // Seed the dirty set from the links whose membership changed:
        // reservation-scaling changes and old saturation both require the
        // link's whole population in the subproblem.
        for i in 0..self.mchanged.len() {
            let l = self.mchanged[i] as usize;
            let g = self.local_bw[l];
            let floor_new: f64 = self.link_flows[l]
                .iter()
                .map(|&s| raw_floor(&self.specs[s as usize]))
                .sum();
            let floor_old = floor_new - self.added_floor[l] + self.removed_floor[l];
            if floor_new > g || floor_old > g || self.saturated_old(l) {
                self.affect(l);
            }
        }
        self.grow_from_work();
        if self.dirty.is_empty() {
            // Removals only (an addition is dirty from the start), and no
            // touched link was saturated or over-reserved before them. No
            // rate changes, and usage on the touched links only fell, so a
            // link saturated now was saturated before and is already
            // `affected`: the solve and the expansion check would both walk
            // those links' populations to conclude nothing.
            return;
        }
        self.solve_to_fixpoint(batch);
    }

    /// Solves the dirty subproblem, growing the dirty set through every
    /// link the solve newly saturated until none is left. `batch` marks an
    /// update that carried additions — the only solves the memo is asked
    /// about.
    fn solve_to_fixpoint(&mut self, batch: bool) {
        loop {
            self.solve_dirty_subproblem(batch);
            if !self.expand_newly_saturated() {
                break;
            }
            self.grow_from_work();
        }
    }

    /// Writes the current subproblem's key into the armed memo's probe
    /// buffer and looks it up; on an exact match copies the remembered rates
    /// into `rates` and returns `true`. Call between the residual-capacity
    /// pass and phase 1 of [`BandwidthAllocator::solve_dirty_subproblem`].
    fn recall_batch(&mut self) -> bool {
        let memo = self.memo.as_deref_mut().expect("armed");
        memo.probe.clear();
        memo.probe.reserve(KEY_WORDS * self.dirty.len());
        for &s in &self.dirty {
            let spec = &self.specs[s as usize];
            memo.probe.extend([
                u64::from(spec.src.0),
                u64::from(spec.dst.0),
                spec.cap.to_bits(),
                spec.demand.to_bits(),
            ]);
            for l in [spec.src.index(), spec.dst.index()] {
                memo.probe.extend([
                    self.avail[l].to_bits(),
                    self.scale[l].to_bits(),
                    self.local_bw[l].to_bits(),
                ]);
            }
        }
        let hit = memo.entries.iter().find(|(key, _)| *key == memo.probe);
        if let Some((_, rates)) = hit {
            for (&s, &r) in self.dirty.iter().zip(rates) {
                self.rates[s as usize] = r;
            }
        }
        hit.is_some()
    }

    /// Files the subproblem just solved under the key
    /// [`BandwidthAllocator::recall_batch`] built for it, over the oldest
    /// entry.
    fn remember_batch(&mut self) {
        let memo = self.memo.as_deref_mut().expect("armed");
        let (key, rates) = &mut memo.entries[memo.next];
        std::mem::swap(key, &mut memo.probe);
        rates.clear();
        rates.extend(self.dirty.iter().map(|&s| self.rates[s as usize]));
        memo.next = (memo.next + 1) % MEMO_ENTRIES;
    }

    /// One run of the oracle's two-phase algorithm restricted to the dirty
    /// flows, against the residual capacity left by the clean flows. The
    /// rates it writes are a function of the dirty flows' specs in `dirty`
    /// order and of `avail` (as the first loop leaves it), `scale` and
    /// `local_bw` on their links, and of nothing else — which is what lets
    /// a `batch` solve be answered from the memo.
    fn solve_dirty_subproblem(&mut self, batch: bool) {
        self.stats.subproblems += 1;
        // Residual capacity and reservation scaling per touched link. The
        // scale uses the *raw* floor load of every flow on the link, exactly
        // like the oracle's phase 1 (clean flows' scaled floors are already
        // embedded in their unchanged rates).
        for i in 0..self.touched.len() {
            let l = self.touched[i] as usize;
            let g = self.local_bw[l];
            let mut avail = g;
            let mut floor_load = 0.0;
            for &s in &self.link_flows[l] {
                let s = s as usize;
                floor_load += raw_floor(&self.specs[s]);
                if !self.dirty_mark[s] {
                    avail -= self.rates[s];
                }
            }
            self.avail[l] = avail.max(0.0);
            self.scale[l] = if floor_load > g { g / floor_load } else { 1.0 };
        }

        let memoised = batch && self.memo.is_some();
        if memoised {
            if self.recall_batch() {
                self.stats.memo_hits += 1;
                return;
            }
            self.stats.memo_misses += 1;
        }

        // Phase 1: grant (scaled) reservations to the dirty flows.
        for i in 0..self.dirty.len() {
            let s = self.dirty[i] as usize;
            self.frozen[s] = false;
            let spec = self.specs[s];
            let links = [spec.src.index(), spec.dst.index()];
            let sc = self.scale[links[0]].min(self.scale[links[1]]);
            let floor = raw_floor(&spec) * sc;
            self.rates[s] = floor;
            for l in links {
                self.avail[l] = (self.avail[l] - floor).max(0.0);
            }
        }

        // Phase 2: progressive filling over the dirty flows.
        loop {
            for i in 0..self.touched.len() {
                self.unfrozen[self.touched[i] as usize] = 0;
            }
            let mut any_unfrozen = false;
            for i in 0..self.dirty.len() {
                let s = self.dirty[i] as usize;
                if !self.frozen[s] {
                    any_unfrozen = true;
                    let spec = self.specs[s];
                    self.unfrozen[spec.src.index()] += 1;
                    self.unfrozen[spec.dst.index()] += 1;
                }
            }
            if !any_unfrozen {
                break;
            }
            self.stats.filling_rounds += 1;
            let mut delta = f64::INFINITY;
            for i in 0..self.dirty.len() {
                let s = self.dirty[i] as usize;
                if self.frozen[s] {
                    continue;
                }
                let spec = self.specs[s];
                delta = delta.min(spec.cap - self.rates[s]);
                for l in [spec.src.index(), spec.dst.index()] {
                    delta = delta.min(self.avail[l] / self.unfrozen[l] as f64);
                }
            }
            if !delta.is_finite() {
                break;
            }
            let delta = delta.max(0.0);
            for i in 0..self.dirty.len() {
                let s = self.dirty[i] as usize;
                if self.frozen[s] {
                    continue;
                }
                self.rates[s] += delta;
                let spec = self.specs[s];
                for l in [spec.src.index(), spec.dst.index()] {
                    self.avail[l] -= delta;
                }
            }
            for i in 0..self.dirty.len() {
                let s = self.dirty[i] as usize;
                if self.frozen[s] {
                    continue;
                }
                let spec = self.specs[s];
                let capped = self.rates[s] >= spec.cap - SAT_TOL;
                let saturated = [spec.src.index(), spec.dst.index()]
                    .iter()
                    .any(|&l| self.avail[l] <= SAT_TOL * (1.0 + self.local_bw[l]));
                if capped || saturated {
                    self.frozen[s] = true;
                }
            }
            if delta <= DELTA_FLOOR {
                for i in 0..self.dirty.len() {
                    let s = self.dirty[i] as usize;
                    if !self.frozen[s] {
                        let spec = self.specs[s];
                        let stuck = [spec.src.index(), spec.dst.index()]
                            .iter()
                            .any(|&l| self.avail[l] <= SAT_TOL);
                        if stuck {
                            self.frozen[s] = true;
                        }
                    }
                }
            }
        }
        if memoised {
            self.remember_batch();
        }
    }

    /// Post-solve consistency check: a boundary link (dirty and clean flows
    /// mixed) that the subproblem saturated imposes a constraint the clean
    /// flows were allocated without — pull its population into the dirty
    /// set and signal a re-solve.
    fn expand_newly_saturated(&mut self) -> bool {
        let mut expanded = false;
        for i in 0..self.touched.len() {
            let l = self.touched[i] as usize;
            if self.affected[l] {
                continue;
            }
            let g = self.local_bw[l];
            let used: f64 = self.link_flows[l]
                .iter()
                .map(|&s| self.rates[s as usize])
                .sum();
            if used >= g - SAT_TOL * (1.0 + g) {
                let has_clean = self.link_flows[l]
                    .iter()
                    .any(|&s| !self.dirty_mark[s as usize]);
                if has_clean {
                    self.affect(l);
                    expanded = true;
                } else {
                    // All flows already dirty: the subproblem handles this
                    // link; no need to recheck it next round.
                    self.affected[l] = true;
                }
            }
        }
        expanded
    }

    /// Equal-split rates depend only on per-link populations, so exactly
    /// the flows on membership-changed links are dirty.
    fn reallocate_equal_split(&mut self) {
        for i in 0..self.mchanged.len() {
            let l = self.mchanged[i] as usize;
            self.affect(l);
        }
        self.work.clear();
        self.recompute_equal_split_dirty();
    }

    /// Recomputes equal-split rates for the current dirty set.
    fn recompute_equal_split_dirty(&mut self) {
        for i in 0..self.dirty.len() {
            let s = self.dirty[i] as usize;
            let spec = self.specs[s];
            let src = spec.src.index();
            let dst = spec.dst.index();
            let src_share = self.local_bw[src] / self.link_flows[src].len().max(1) as f64;
            let dst_share = self.local_bw[dst] / self.link_flows[dst].len().max(1) as f64;
            self.rates[s] = spec.cap.min(src_share).min(dst_share);
        }
    }
}

/// Reservation floor before per-link scaling, matching the oracle.
fn raw_floor(spec: &FlowSpec) -> f64 {
    spec.demand.max(0.0).min(spec.cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> ClusterId {
        ClusterId(i)
    }

    fn flow(src: u32, dst: u32, cap: f64) -> FlowSpec {
        FlowSpec {
            src: c(src),
            dst: c(dst),
            cap,
            demand: 0.0,
        }
    }

    fn reserved(src: u32, dst: u32, cap: f64, demand: f64) -> FlowSpec {
        FlowSpec {
            demand,
            ..flow(src, dst, cap)
        }
    }

    #[test]
    fn reservations_are_honored_before_fair_share() {
        // The LPRR starvation shape: link g_0 = 60 carries four flows whose
        // reservation equals their cap (15) plus one small reserved flow.
        // Pure max-min would give every flow 12 and the capped flows could
        // never recover; reservations must pre-empt fairness.
        let flows = [
            reserved(0, 1, 15.0, 15.0),
            reserved(0, 2, 15.0, 15.0),
            reserved(0, 3, 15.0, 15.0),
            reserved(0, 4, 15.0, 12.9),
            reserved(5, 0, 15.0, 1.02),
        ];
        let g = [60.0, 100.0, 100.0, 100.0, 100.0, 100.0];
        let rates = allocate_rates(&g, &flows, BandwidthModel::MaxMinFair);
        for (r, f) in rates.iter().zip(&flows) {
            assert!(
                *r >= f.demand - 1e-9,
                "flow {f:?} got {r} < reservation {}",
                f.demand
            );
            assert!(*r <= f.cap + 1e-9);
        }
        // Work conservation: the surplus 60 − 58.92 goes to unfrozen flows.
        let used: f64 = rates.iter().sum();
        assert!(used <= 60.0 + 1e-9);
        assert!(used >= 60.0 - 1e-9, "surplus left on the table: {used}");
    }

    #[test]
    fn oversubscribed_reservations_scale_down_per_link() {
        // Invalid input: reservations alone exceed g_0 = 10. Floors must be
        // scaled so no link is overdriven, and filling still tops rates up
        // to the (scaled) feasible point.
        let flows = [reserved(0, 1, 20.0, 12.0), reserved(0, 2, 20.0, 8.0)];
        let g = [10.0, 100.0, 100.0];
        let rates = allocate_rates(&g, &flows, BandwidthModel::MaxMinFair);
        let used: f64 = rates.iter().sum();
        assert!(used <= 10.0 + 1e-9, "link overdriven: {used}");
        for r in &rates {
            assert!(*r > 0.0);
        }
    }

    #[test]
    fn zero_demand_matches_classical_maxmin() {
        // demand = 0 everywhere degenerates to the old behaviour.
        let rates = allocate_rates(
            &[10.0, 100.0, 100.0],
            &[flow(0, 1, 2.0), flow(0, 2, f64::INFINITY)],
            BandwidthModel::MaxMinFair,
        );
        assert!((rates[0] - 2.0).abs() < 1e-9);
        assert!((rates[1] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn single_flow_takes_minimum() {
        let rates = allocate_rates(
            &[10.0, 4.0],
            &[flow(0, 1, 100.0)],
            BandwidthModel::MaxMinFair,
        );
        assert_eq!(rates, vec![4.0]);
        let rates = allocate_rates(&[10.0, 4.0], &[flow(0, 1, 2.5)], BandwidthModel::MaxMinFair);
        assert_eq!(rates, vec![2.5]);
    }

    #[test]
    fn two_flows_share_source_fairly() {
        // g_0 = 10 shared by two uncapped flows to distinct wide sinks.
        let rates = allocate_rates(
            &[10.0, 100.0, 100.0],
            &[flow(0, 1, f64::INFINITY), flow(0, 2, f64::INFINITY)],
            BandwidthModel::MaxMinFair,
        );
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn capped_flow_releases_capacity_to_the_other() {
        // Same as above but flow 0 capped at 2: flow 1 should get 8.
        let rates = allocate_rates(
            &[10.0, 100.0, 100.0],
            &[flow(0, 1, 2.0), flow(0, 2, f64::INFINITY)],
            BandwidthModel::MaxMinFair,
        );
        assert!((rates[0] - 2.0).abs() < 1e-9);
        assert!((rates[1] - 8.0).abs() < 1e-9, "rates {rates:?}");
        // The equal-split ablation wastes the released share.
        let naive = allocate_rates(
            &[10.0, 100.0, 100.0],
            &[flow(0, 1, 2.0), flow(0, 2, f64::INFINITY)],
            BandwidthModel::EqualSplit,
        );
        assert!((naive[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn incoming_and_outgoing_share_one_link() {
        // Cluster 0 both sends and receives: both flows cross g_0 = 6.
        let rates = allocate_rates(
            &[6.0, 100.0, 100.0],
            &[flow(0, 1, f64::INFINITY), flow(2, 0, f64::INFINITY)],
            BandwidthModel::MaxMinFair,
        );
        assert!((rates[0] - 3.0).abs() < 1e-9);
        assert!((rates[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn rates_never_violate_links_or_caps() {
        // Randomised consistency check.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        for _ in 0..200 {
            let n_clusters = rng.gen_range(2..6);
            let g: Vec<f64> = (0..n_clusters).map(|_| rng.gen_range(1.0..50.0)).collect();
            let n_flows = rng.gen_range(1..8);
            let flows: Vec<FlowSpec> = (0..n_flows)
                .map(|_| {
                    let src = rng.gen_range(0..n_clusters);
                    let mut dst = rng.gen_range(0..n_clusters);
                    if dst == src {
                        dst = (dst + 1) % n_clusters;
                    }
                    flow(src as u32, dst as u32, rng.gen_range(0.5..30.0))
                })
                .collect();
            for model in [BandwidthModel::MaxMinFair, BandwidthModel::EqualSplit] {
                let rates = allocate_rates(&g, &flows, model);
                let mut used = vec![0.0f64; n_clusters];
                for (r, f) in rates.iter().zip(&flows) {
                    assert!(*r >= 0.0);
                    assert!(*r <= f.cap + 1e-9);
                    used[f.src.index()] += r;
                    used[f.dst.index()] += r;
                }
                for (u, cap) in used.iter().zip(&g) {
                    assert!(u <= &(cap + 1e-6), "link overdriven: {u} > {cap}");
                }
            }
        }
    }

    #[test]
    fn maxmin_dominates_equal_split_in_total() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for _ in 0..100 {
            let g: Vec<f64> = (0..4).map(|_| rng.gen_range(5.0..40.0)).collect();
            let flows: Vec<FlowSpec> = (0..5)
                .map(|_| {
                    let src = rng.gen_range(0..4usize);
                    let dst = (src + rng.gen_range(1..4)) % 4;
                    flow(src as u32, dst as u32, rng.gen_range(1.0..20.0))
                })
                .collect();
            let fair: f64 = allocate_rates(&g, &flows, BandwidthModel::MaxMinFair)
                .iter()
                .sum();
            let naive: f64 = allocate_rates(&g, &flows, BandwidthModel::EqualSplit)
                .iter()
                .sum();
            assert!(fair >= naive - 1e-6, "fair {fair} < naive {naive}");
        }
    }

    #[test]
    fn empty_flow_list() {
        assert!(allocate_rates(&[5.0], &[], BandwidthModel::MaxMinFair).is_empty());
    }

    #[test]
    fn incremental_tracks_oracle_through_insert_remove_sequence() {
        let g = [60.0, 25.0, 100.0, 40.0, 10.0, 100.0];
        for model in [BandwidthModel::MaxMinFair, BandwidthModel::EqualSplit] {
            let mut alloc = BandwidthAllocator::new(&g, model);
            let mut ids = Vec::new();
            let specs = [
                reserved(0, 1, 15.0, 15.0),
                reserved(0, 2, 15.0, 12.9),
                flow(0, 3, f64::INFINITY),
                reserved(5, 0, 15.0, 1.02),
                flow(1, 4, 8.0),
                reserved(2, 3, 30.0, 0.0),
                flow(4, 5, 2.0),
                reserved(3, 0, 6.0, 3.0),
            ];
            for s in specs {
                ids.push(alloc.insert(s));
                alloc.assert_matches_oracle(1e-9, "after insert");
            }
            // Remove in an interleaved order, checking after every event.
            for &i in &[3usize, 0, 5, 1, 7, 2, 6, 4] {
                alloc.remove(ids[i]);
                alloc.assert_matches_oracle(1e-9, "after remove");
            }
            assert!(alloc.is_empty());
        }
    }

    #[test]
    fn batched_update_matches_oracle() {
        let g = [30.0, 30.0, 30.0, 30.0];
        let mut alloc = BandwidthAllocator::new(&g, BandwidthModel::MaxMinFair);
        let mut ids = Vec::new();
        alloc.update(
            &[],
            &[
                reserved(0, 1, 10.0, 10.0),
                reserved(1, 2, 10.0, 5.0),
                flow(2, 3, f64::INFINITY),
            ],
            &mut ids,
        );
        alloc.assert_matches_oracle(1e-9, "after batch insert");
        // One boundary-style event: two completions plus two arrivals.
        let remove = [ids[0], ids[2]];
        let mut new_ids = Vec::new();
        alloc.update(
            &remove,
            &[reserved(3, 0, 20.0, 4.0), flow(0, 2, 7.0)],
            &mut new_ids,
        );
        assert_eq!(new_ids.len(), 2);
        alloc.assert_matches_oracle(1e-9, "after batch update");
    }

    #[test]
    fn arrival_on_idle_link_leaves_unrelated_rates_untouched() {
        // Flows on clusters {0,1} and {2,3} share nothing: an arrival in one
        // component must not even be reported as changed in the other.
        let g = [10.0, 10.0, 10.0, 10.0];
        let mut alloc = BandwidthAllocator::new(&g, BandwidthModel::MaxMinFair);
        let a = alloc.insert(flow(0, 1, f64::INFINITY));
        let before = alloc.rate(a);
        let _b = alloc.insert(flow(2, 3, f64::INFINITY));
        assert_eq!(alloc.rate(a), before);
        assert!(alloc.changed().is_empty(), "disjoint flow reported dirty");
        alloc.assert_matches_oracle(1e-9, "disjoint components");
    }

    #[test]
    fn newly_saturated_boundary_link_expands_dirty_set() {
        // Flow A (0→1, cap 8) alone on g_0 = 10: rate 8, link unsaturated.
        // Flow B (0→2, reservation 5) arrives: the true allocation saturates
        // g_0 and A must drop to 5 — the post-solve expansion path.
        let g = [10.0, 100.0, 100.0];
        let mut alloc = BandwidthAllocator::new(&g, BandwidthModel::MaxMinFair);
        let a = alloc.insert(flow(0, 1, 8.0));
        assert!((alloc.rate(a) - 8.0).abs() < 1e-9);
        let b = alloc.insert(reserved(0, 2, 5.0, 5.0));
        alloc.assert_matches_oracle(1e-9, "after saturating arrival");
        assert!(
            (alloc.rate(a) - 5.0).abs() < 1e-9,
            "A got {}",
            alloc.rate(a)
        );
        assert!((alloc.rate(b) - 5.0).abs() < 1e-9);
        assert_eq!(alloc.changed(), &[a]);
        // And the release on B's completion restores A.
        alloc.remove(b);
        assert!((alloc.rate(a) - 8.0).abs() < 1e-9);
        alloc.assert_matches_oracle(1e-9, "after release");
    }

    #[test]
    fn retune_reallocates_the_affected_link() {
        // Two uncapped flows share g_0 = 10 → 5 each; raising g_0 to 30
        // must lift both, shrinking it to 4 must squeeze both to 2.
        let g = [10.0, 100.0, 100.0];
        let mut alloc = BandwidthAllocator::new(&g, BandwidthModel::MaxMinFair);
        let a = alloc.insert(flow(0, 1, f64::INFINITY));
        let b = alloc.insert(flow(0, 2, f64::INFINITY));
        alloc.set_local_bw(0, 30.0);
        alloc.assert_matches_oracle(1e-9, "after raise");
        assert!((alloc.rate(a) - 15.0).abs() < 1e-9);
        assert!((alloc.rate(b) - 15.0).abs() < 1e-9);
        assert_eq!(alloc.changed().len(), 2);
        alloc.set_local_bw(0, 4.0);
        alloc.assert_matches_oracle(1e-9, "after shrink");
        assert!((alloc.rate(a) - 2.0).abs() < 1e-9);
        assert!((alloc.rate(b) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn retune_to_zero_models_a_churn_outage() {
        let g = [10.0, 100.0, 100.0];
        for model in [BandwidthModel::MaxMinFair, BandwidthModel::EqualSplit] {
            let mut alloc = BandwidthAllocator::new(&g, model);
            let a = alloc.insert(reserved(0, 1, 8.0, 3.0));
            let b = alloc.insert(flow(2, 1, 5.0));
            alloc.set_local_bw(0, 0.0);
            alloc.assert_matches_oracle(1e-9, "outage");
            assert_eq!(alloc.rate(a), 0.0);
            assert!(alloc.rate(b) > 0.0, "unaffected flow survived the outage");
            alloc.set_local_bw(0, 10.0);
            alloc.assert_matches_oracle(1e-9, "restore");
            assert!(alloc.rate(a) > 0.0);
        }
    }

    #[test]
    fn retune_leaves_disjoint_components_untouched() {
        let g = [10.0, 10.0, 10.0, 10.0];
        let mut alloc = BandwidthAllocator::new(&g, BandwidthModel::MaxMinFair);
        let _a = alloc.insert(flow(0, 1, f64::INFINITY));
        let b = alloc.insert(flow(2, 3, f64::INFINITY));
        alloc.retune(&[(0, 7.5)]);
        alloc.assert_matches_oracle(1e-9, "after retune");
        // The {2,3} component shares no link with {0,1}: not even reported.
        assert!(!alloc.changed().contains(&b));
    }

    #[test]
    fn retune_propagates_through_saturated_links() {
        // A (0→1, uncapped) and B (1→2, uncapped) couple through g_1 = 10:
        // each gets 5. Raising g_0 alone cannot help A (g_1 binds), but
        // shrinking g_0 to 3 frees g_1 capacity that must flow to B.
        let g = [10.0, 10.0, 100.0];
        let mut alloc = BandwidthAllocator::new(&g, BandwidthModel::MaxMinFair);
        let a = alloc.insert(flow(0, 1, f64::INFINITY));
        let b = alloc.insert(flow(1, 2, f64::INFINITY));
        assert!((alloc.rate(a) - 5.0).abs() < 1e-9);
        alloc.set_local_bw(0, 3.0);
        alloc.assert_matches_oracle(1e-9, "after coupled shrink");
        assert!((alloc.rate(a) - 3.0).abs() < 1e-9);
        assert!(
            (alloc.rate(b) - 7.0).abs() < 1e-9,
            "B got {}",
            alloc.rate(b)
        );
    }

    #[test]
    fn randomized_retune_sequences_match_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        for model in [BandwidthModel::MaxMinFair, BandwidthModel::EqualSplit] {
            for trial in 0..25 {
                let n_clusters = rng.gen_range(2..6);
                let g: Vec<f64> = (0..n_clusters).map(|_| rng.gen_range(1.0..60.0)).collect();
                let mut alloc = BandwidthAllocator::new(&g, model);
                let mut live: Vec<FlowId> = Vec::new();
                for step in 0..50 {
                    match rng.gen_range(0..10) {
                        0..=4 => {
                            let src = rng.gen_range(0..n_clusters);
                            let mut dst = rng.gen_range(0..n_clusters);
                            if dst == src {
                                dst = (dst + 1) % n_clusters;
                            }
                            live.push(alloc.insert(FlowSpec {
                                src: c(src as u32),
                                dst: c(dst as u32),
                                cap: rng.gen_range(0.5..30.0),
                                demand: rng.gen_range(0.0..8.0),
                            }));
                        }
                        5..=6 if !live.is_empty() => {
                            let i = rng.gen_range(0..live.len());
                            alloc.remove(live.swap_remove(i));
                        }
                        _ => {
                            let l = rng.gen_range(0..n_clusters);
                            let g_new = if rng.gen_bool(0.1) {
                                0.0
                            } else {
                                rng.gen_range(0.5..80.0)
                            };
                            alloc.set_local_bw(l, g_new);
                        }
                    }
                    alloc.assert_matches_oracle(
                        1e-9,
                        &format!("{model:?} retune trial {trial} step {step}"),
                    );
                }
            }
        }
    }

    #[test]
    fn reshape_stall_and_heal_match_oracle() {
        // A partition-shaped sequence: cap drops to zero (stall), the freed
        // capacity flows to the other flow, and the heal restores it.
        let g = [10.0, 100.0, 100.0];
        for model in [BandwidthModel::MaxMinFair, BandwidthModel::EqualSplit] {
            let mut alloc = BandwidthAllocator::new(&g, model);
            let a = alloc.insert(reserved(0, 1, 8.0, 3.0));
            let b = alloc.insert(flow(0, 2, f64::INFINITY));
            alloc.reshape(&[(a, 0.0, 0.0)]);
            alloc.assert_matches_oracle(1e-9, "stall");
            assert_eq!(alloc.rate(a), 0.0);
            if model == BandwidthModel::MaxMinFair {
                assert!(
                    (alloc.rate(b) - 10.0).abs() < 1e-9,
                    "b got {}",
                    alloc.rate(b)
                );
            }
            alloc.reshape(&[(a, 8.0, 3.0)]);
            alloc.assert_matches_oracle(1e-9, "heal");
            assert!(alloc.rate(a) >= 3.0 - 1e-9);
        }
    }

    #[test]
    fn randomized_reshape_sequences_match_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(31);
        for model in [BandwidthModel::MaxMinFair, BandwidthModel::EqualSplit] {
            for trial in 0..25 {
                let n_clusters = rng.gen_range(2..6);
                let g: Vec<f64> = (0..n_clusters).map(|_| rng.gen_range(1.0..60.0)).collect();
                let mut alloc = BandwidthAllocator::new(&g, model);
                let mut live: Vec<FlowId> = Vec::new();
                for step in 0..50 {
                    match rng.gen_range(0..10) {
                        0..=3 => {
                            let src = rng.gen_range(0..n_clusters);
                            let mut dst = rng.gen_range(0..n_clusters);
                            if dst == src {
                                dst = (dst + 1) % n_clusters;
                            }
                            live.push(alloc.insert(FlowSpec {
                                src: c(src as u32),
                                dst: c(dst as u32),
                                cap: rng.gen_range(0.5..30.0),
                                demand: rng.gen_range(0.0..8.0),
                            }));
                        }
                        4..=5 if !live.is_empty() => {
                            let i = rng.gen_range(0..live.len());
                            alloc.remove(live.swap_remove(i));
                        }
                        _ if !live.is_empty() => {
                            let i = rng.gen_range(0..live.len());
                            let cap = if rng.gen_bool(0.25) {
                                0.0
                            } else {
                                rng.gen_range(0.5..30.0)
                            };
                            let demand = rng.gen_range(0.0..8.0f64).min(cap);
                            alloc.reshape(&[(live[i], cap, demand)]);
                        }
                        _ => {}
                    }
                    alloc.assert_matches_oracle(
                        1e-9,
                        &format!("{model:?} reshape trial {trial} step {step}"),
                    );
                }
            }
        }
    }

    #[test]
    fn snapshot_restore_is_bit_identical_forward() {
        use rand::{Rng, SeedableRng};
        // Drive an allocator, snapshot it, then feed both copies the same
        // op sequence: every rate must agree bit for bit (the incremental
        // solve is path-dependent, so the snapshot must capture slot
        // layout, free list, and per-link membership order exactly).
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(57);
        let g = [25.0, 40.0, 10.0, 60.0];
        let mut alloc = BandwidthAllocator::new(&g, BandwidthModel::MaxMinFair);
        let mut live: Vec<FlowId> = Vec::new();
        let step = |alloc: &mut BandwidthAllocator,
                    live: &mut Vec<FlowId>,
                    rng: &mut rand_chacha::ChaCha8Rng| {
            match rng.gen_range(0..8) {
                0..=3 => {
                    let src = rng.gen_range(0..4);
                    let dst = (src + rng.gen_range(1..4)) % 4;
                    live.push(alloc.insert(FlowSpec {
                        src: c(src as u32),
                        dst: c(dst as u32),
                        cap: rng.gen_range(0.5..30.0),
                        demand: rng.gen_range(0.0..8.0),
                    }));
                }
                4..=5 if !live.is_empty() => {
                    let i = rng.gen_range(0..live.len());
                    alloc.remove(live.swap_remove(i));
                }
                _ => {
                    let l = rng.gen_range(0..4usize);
                    alloc.set_local_bw(l, rng.gen_range(0.5..80.0));
                }
            }
        };
        for _ in 0..40 {
            step(&mut alloc, &mut live, &mut rng);
        }
        let state = alloc.snapshot();
        let mut restored = BandwidthAllocator::from_state(&state, BandwidthModel::MaxMinFair);
        let mut live2 = live.clone();
        let mut rng2 = rng.clone();
        for i in 0..40 {
            step(&mut alloc, &mut live, &mut rng);
            step(&mut restored, &mut live2, &mut rng2);
            assert_eq!(live, live2, "handle streams diverged at step {i}");
            for (&id, &id2) in live.iter().zip(&live2) {
                assert_eq!(
                    alloc.rate(id).to_bits(),
                    restored.rate(id2).to_bits(),
                    "rates diverged at step {i}"
                );
            }
        }
    }

    /// An armed allocator and an unarmed twin fed the same ops: after every
    /// op the two must agree on every handle, every live rate bit for bit
    /// and the changed-rate report, and both must match the oracle.
    struct Twin {
        armed: BandwidthAllocator,
        plain: BandwidthAllocator,
    }

    impl Twin {
        fn new(g: &[f64]) -> Twin {
            let plain = BandwidthAllocator::new(g, BandwidthModel::MaxMinFair);
            let mut armed = plain.clone();
            armed.arm_batch_memo();
            Twin { armed, plain }
        }

        fn update(&mut self, removals: &[FlowId], additions: &[FlowSpec]) -> Vec<FlowId> {
            let (mut ids, mut ids_plain) = (Vec::new(), Vec::new());
            self.armed.update(removals, additions, &mut ids);
            self.plain.update(removals, additions, &mut ids_plain);
            assert_eq!(ids, ids_plain);
            self.check();
            ids
        }

        fn retune(&mut self, changes: &[(usize, f64)]) {
            self.armed.retune(changes);
            self.plain.retune(changes);
            self.check();
        }

        fn reshape(&mut self, changes: &[(FlowId, f64, f64)]) {
            self.armed.reshape(changes);
            self.plain.reshape(changes);
            self.check();
        }

        fn check(&self) {
            assert_eq!(self.armed.changed(), self.plain.changed());
            let (a, b) = (self.armed.live_flows(), self.plain.live_flows());
            assert_eq!(a.len(), b.len());
            for ((id, spec, rate), (id2, spec2, rate2)) in a.into_iter().zip(b) {
                assert_eq!((id, spec), (id2, spec2));
                assert_eq!(
                    rate.to_bits(),
                    rate2.to_bits(),
                    "{spec:?}: {rate} vs {rate2}"
                );
            }
            self.armed.assert_matches_oracle(1e-9, "armed");
            self.plain.assert_matches_oracle(1e-9, "unarmed");
        }

        /// `(memo_hits, memo_misses)` of the armed side.
        fn memo(&self) -> (u64, u64) {
            let stats = self.armed.stats();
            (stats.memo_hits, stats.memo_misses)
        }
    }

    /// The next float above a positive finite `x`.
    fn ulp_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    const ROOMY: [f64; 4] = [100.0, 80.0, 90.0, 70.0];

    /// A batch that leaves every `ROOMY` link unsaturated even when posed
    /// twice over: every flow ends at its cap, like the transfers of a valid
    /// periodic schedule.
    fn roomy_batch() -> Vec<FlowSpec> {
        vec![
            reserved(0, 1, 15.0, 9.0),
            reserved(0, 2, 12.0, 12.0),
            reserved(3, 0, 10.0, 2.5),
            reserved(2, 3, 20.0, 4.0),
            flow(1, 3, 8.0),
        ]
    }

    /// A twin that posed `roomy_batch` (a miss), then swapped it for itself
    /// (a hit), and the handles of the live batch.
    fn primed() -> (Twin, Vec<FlowId>) {
        let mut twin = Twin::new(&ROOMY);
        let first = twin.update(&[], &roomy_batch());
        assert_eq!(twin.memo(), (0, 1));
        let live = twin.update(&first, &roomy_batch());
        assert_eq!(twin.memo(), (1, 1), "the identical re-pose must hit");
        (twin, live)
    }

    #[test]
    fn memo_answers_only_the_exact_subproblem() {
        let base = roomy_batch();

        // Permuted: the solve order is part of the input.
        let (mut twin, live) = primed();
        let mut rotated = base.clone();
        rotated.rotate_left(2);
        twin.update(&live, &rotated);
        assert_eq!(twin.memo(), (1, 2), "permuted batch");

        // One cap, then one demand, off by an ulp.
        let (mut twin, live) = primed();
        let mut nudged = base.clone();
        nudged[2].cap = ulp_up(nudged[2].cap);
        let live = twin.update(&live, &nudged);
        assert_eq!(twin.memo(), (1, 2), "cap + 1 ulp");
        nudged = base.clone();
        nudged[0].demand = ulp_up(nudged[0].demand);
        twin.update(&live, &nudged);
        assert_eq!(twin.memo(), (1, 3), "demand + 1 ulp");

        // A touched link's capacity off by an ulp, and back.
        let (mut twin, live) = primed();
        twin.retune(&[(3, ulp_up(ROOMY[3]))]);
        let live = twin.update(&live, &base);
        assert_eq!(twin.memo(), (1, 2), "local_bw + 1 ulp");
        twin.retune(&[(3, ROOMY[3])]);
        twin.update(&live, &base);
        assert_eq!(twin.memo(), (2, 2), "capacity restored");

        // A straggler of the previous batch still live: a different
        // subproblem the first time, a remembered one the second, and a
        // different one again once the straggler has been reshaped.
        let (mut twin, live) = primed();
        let straggler = live[0];
        let live = twin.update(&live[1..], &base);
        assert_eq!(twin.memo(), (1, 2), "one straggler");
        let live = twin.update(&live, &base);
        assert_eq!(twin.memo(), (2, 2), "the same straggler again");
        twin.reshape(&[(straggler, 14.0, base[0].demand)]);
        assert_eq!(twin.memo(), (2, 2), "reshape never asks the memo");
        let live = twin.update(&live, &base);
        assert_eq!(twin.memo(), (2, 3), "reshaped straggler");
        // The straggler is clean, so it enters the key only through what it
        // leaves on its links — and 100 − (15 + 1 ulp) is 85 again: the
        // same input bits, rightly the same answer (`Twin` re-solved it).
        twin.reshape(&[(straggler, ulp_up(base[0].cap), base[0].demand)]);
        twin.update(&live, &base);
        assert_eq!(twin.memo(), (3, 3), "a reshape lost in rounding");

        // Removal-only updates, retunes and the unarmed twin never ask.
        let (mut twin, live) = primed();
        twin.update(&live[..2], &[]);
        twin.retune(&[(0, 55.0)]);
        assert_eq!(twin.memo(), (1, 1));
        assert_eq!(
            twin.plain.stats().memo_hits + twin.plain.stats().memo_misses,
            0
        );
        assert!(twin.plain.stats().filling_rounds > twin.armed.stats().filling_rounds);
    }

    #[test]
    fn memo_keeps_the_last_four_subproblems() {
        let (mut twin, mut live) = primed();
        let variant = |i: usize| {
            let mut batch = roomy_batch();
            batch[1].cap += i as f64;
            batch
        };
        // Four more subproblems push the base batch out, oldest first.
        for i in 1..=MEMO_ENTRIES {
            live = twin.update(&live, &variant(i));
        }
        assert_eq!(twin.memo(), (1, 1 + MEMO_ENTRIES as u64));
        live = twin.update(&live, &variant(1));
        assert_eq!(
            twin.memo(),
            (2, 1 + MEMO_ENTRIES as u64),
            "still remembered"
        );
        twin.update(&live, &variant(0));
        assert_eq!(twin.memo(), (2, 2 + MEMO_ENTRIES as u64), "evicted");
    }

    #[test]
    fn restored_armed_allocator_continues_bit_identically_unarmed() {
        let (Twin { armed, .. }, live) = primed();
        let restored =
            BandwidthAllocator::from_state(&armed.snapshot(), BandwidthModel::MaxMinFair);
        assert!(restored.memo.is_none(), "arming is not state");
        // The original keeps hitting, the restored copy solves: same bits.
        let mut twin = Twin {
            armed,
            plain: restored,
        };
        let live = twin.update(&live, &roomy_batch());
        let mut live = twin.update(&live[2..], &roomy_batch());
        twin.retune(&[(0, 31.0)]);
        live.truncate(3);
        twin.update(&live, &roomy_batch());
        assert!(twin.armed.stats().memo_hits > 1);
        let restored = twin.plain.stats();
        assert_eq!(restored.memo_hits + restored.memo_misses, 0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Link capacities and a batch of flows over them; tight enough
        /// that links saturate and reservations over-subscribe now and then.
        fn arb_platform() -> impl Strategy<Value = (Vec<f64>, Vec<FlowSpec>)> {
            (3usize..6).prop_flat_map(|n| {
                let g = collection::vec(5.0f64..60.0, n);
                let spec = (0..n, 1..n, 0.5f64..30.0, 0.0f64..8.0, proptest::bool::ANY);
                let batch = collection::vec(spec, 2..8).prop_map(move |raw| {
                    raw.into_iter()
                        .map(|(src, off, cap, demand, uncapped)| FlowSpec {
                            src: c(src as u32),
                            dst: c(((src + off) % n) as u32),
                            cap: if uncapped && cap > 25.0 {
                                f64::INFINITY
                            } else {
                                cap
                            },
                            demand,
                        })
                        .collect::<Vec<_>>()
                });
                (g, batch)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Batches that recur — identical, permuted, on top of
            /// stragglers, after 1-ulp retunes and reshapes, with one
            /// constraint off by an ulp — through an armed and an unarmed
            /// allocator (`Twin` compares them after every op).
            #[test]
            fn armed_and_unarmed_allocators_agree_bit_for_bit(
                (g, base) in arb_platform(),
                ops in collection::vec((0u8..9, 0u32..256, 0usize..64, 0.5f64..40.0), 4..40),
            ) {
                let mut twin = Twin::new(&g);
                let mut live = twin.update(&[], &base);
                for (kind, mask, pick, x) in ops {
                    // Most batches replace every live flow, as an on-time
                    // period boundary does; some leave stragglers behind.
                    let keep_some = matches!(kind, 3 | 4);
                    let (kept, gone): (Vec<_>, Vec<_>) = live
                        .iter()
                        .enumerate()
                        .partition(|(i, _)| keep_some && mask >> (i % 8) & 1 == 1);
                    let gone: Vec<FlowId> = gone.into_iter().map(|(_, &id)| id).collect();
                    let mut batch = base.clone();
                    match kind {
                        0..=4 => {}
                        5 => batch.rotate_left(pick % base.len()),
                        6 => {
                            let f = &mut batch[pick % base.len()];
                            if mask & 1 == 1 && f.cap.is_finite() {
                                f.cap = ulp_up(f.cap);
                            } else {
                                f.demand = ulp_up(f.demand.max(f64::MIN_POSITIVE));
                            }
                        }
                        7 => {
                            let l = pick % g.len();
                            let now = twin.plain.local_bw[l];
                            let g_new = match mask % 3 {
                                0 => ulp_up(now.max(f64::MIN_POSITIVE)),
                                1 => g[l],
                                _ => x,
                            };
                            twin.retune(&[(l, g_new)]);
                            continue;
                        }
                        _ => {
                            if !live.is_empty() {
                                let id = live[pick % live.len()];
                                let spec = *twin.plain.spec(id);
                                let (cap, demand) = if mask & 1 == 1 {
                                    (x, spec.demand.min(x))
                                } else {
                                    (spec.cap, ulp_up(spec.demand.max(f64::MIN_POSITIVE)))
                                };
                                twin.reshape(&[(id, cap, demand)]);
                            }
                            continue;
                        }
                    }
                    live = kept.into_iter().map(|(_, &id)| id).collect();
                    live.extend(twin.update(&gone, &batch));
                }
                let (armed, plain) = (twin.armed.stats(), twin.plain.stats());
                prop_assert_eq!(plain.memo_hits + plain.memo_misses, 0);
                prop_assert_eq!(armed.updates, plain.updates);
                prop_assert_eq!(armed.subproblems, plain.subproblems);
                prop_assert!(armed.filling_rounds <= plain.filling_rounds);
            }
        }
    }

    #[test]
    fn randomized_event_sequences_match_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        for model in [BandwidthModel::MaxMinFair, BandwidthModel::EqualSplit] {
            for trial in 0..40 {
                let n_clusters = rng.gen_range(2..7);
                let g: Vec<f64> = (0..n_clusters).map(|_| rng.gen_range(1.0..60.0)).collect();
                let mut alloc = BandwidthAllocator::new(&g, model);
                let mut live: Vec<FlowId> = Vec::new();
                for step in 0..60 {
                    let add = live.is_empty() || rng.gen_bool(0.55);
                    if add {
                        let src = rng.gen_range(0..n_clusters);
                        let mut dst = rng.gen_range(0..n_clusters);
                        if dst == src {
                            dst = (dst + 1) % n_clusters;
                        }
                        let cap = if rng.gen_bool(0.2) {
                            f64::INFINITY
                        } else {
                            rng.gen_range(0.5..30.0)
                        };
                        let demand = if rng.gen_bool(0.4) {
                            0.0
                        } else {
                            rng.gen_range(0.0..10.0)
                        };
                        live.push(alloc.insert(FlowSpec {
                            src: c(src as u32),
                            dst: c(dst as u32),
                            cap,
                            demand,
                        }));
                    } else {
                        let i = rng.gen_range(0..live.len());
                        alloc.remove(live.swap_remove(i));
                    }
                    alloc.assert_matches_oracle(
                        1e-9,
                        &format!("{model:?} trial {trial} step {step}"),
                    );
                }
            }
        }
    }
}
