//! The live-mutation simulation engine: an *online* fluid core for
//! scenarios where flows arrive continuously and the platform itself
//! changes mid-flight.
//!
//! The periodic engine ([`crate::engine::Simulator`]) replays a fixed
//! [`dls_core::schedule::PeriodicSchedule`] on a fixed platform. [`LiveSim`]
//! instead exposes the simulation core as a first-class mutable object:
//!
//! * [`LiveSim::add_flows`] / [`LiveSim::retire_flows`] — transfers appear
//!   and disappear at arbitrary times, each carrying a payload split into
//!   per-job [`ChunkPart`]s delivered store-and-forward on completion;
//! * [`LiveSim::update_link_capacity`] — local-link capacities drift (down
//!   to a churn outage at `g = 0`), feeding the dirty-set
//!   [`crate::BandwidthAllocator::retune`] path so only the affected flows are
//!   re-solved;
//! * [`LiveSim::update_speed`] — cluster compute speeds drift, re-timing
//!   the FIFO work queues;
//! * [`LiveSim::enqueue_compute`] — locally-processed work enters a
//!   cluster's queue directly;
//! * [`LiveSim::advance_to`] — time advances event to event (flow
//!   completions and queue-entry completions), returning the
//!   [`LiveEvent`]s that fired.
//!
//! Exactly like the periodic engine, [`LiveSim`] runs on the crate's one
//! flow core (`flows.rs`), whose variant [`LiveConfig::engine`] picks at
//! construction: [`SimEngine::Incremental`] (dirty-set re-allocation, a
//! completion heap with lazy invalidation, lazy per-flow materialisation)
//! or the retained [`SimEngine::FullRecompute`] reference (full
//! [`crate::allocate_rates`] solve plus linear scans at every event) — the
//! slow path doubles as the cross-check oracle and as the baseline the
//! `dls-bench` scenario harness times the fast path against. With
//! [`LiveConfig::oracle_check`] set, every mutation and completion batch on
//! the incremental core is verified against a fresh full solve.
//!
//! What stays particular to this engine is what it *observes*: compute
//! queues complete entry by entry (each a [`LiveEvent::Computed`] with the
//! entry's full original credit), where the periodic engine drains fluid
//! partial credit and reports only at period granularity.

use crate::bandwidth::{AllocatorState, FlowId, FlowSpec};
use crate::flows::{Flow, FlowCore, HeapEntry, SolverState};
use crate::trace::{EventKind, EventRecord};
use crate::SimEngine;
use dls_platform::ClusterId;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Configuration for [`LiveSim`].
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Which simulation core executes the timeline.
    pub engine: SimEngine,
    /// Cross-check the incremental core against the full oracle after
    /// every mutation and completion batch, panicking on divergence beyond
    /// 1e-9 relative. Three invariants are asserted: per-flow rates match a
    /// fresh [`crate::allocate_rates`] solve, they pass
    /// [`crate::certify_max_min`], and the completion heap's next due time
    /// matches a full scan's projection (so lazy invalidation can never
    /// silently drop or misplace a completion). Expensive — meant for
    /// tests; ignored by [`SimEngine::FullRecompute`].
    pub oracle_check: bool,
    /// Record every [`LiveEvent::Delivered`] / [`LiveEvent::Computed`] as
    /// an [`EventRecord`] in [`LiveSim::event_log`], for cross-engine
    /// stream comparison via [`crate::trace::first_divergence`].
    pub record_events: bool,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            engine: SimEngine::Incremental,
            oracle_check: false,
            record_events: false,
        }
    }
}

/// One `(job, amount)` share of a flow's payload or of a compute-queue
/// entry. Parts are delivered (and later computed) in order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChunkPart {
    /// Caller-side job tag (opaque to the engine).
    pub job: u32,
    /// Load units.
    pub amount: f64,
}

/// A transfer to spawn: `Σ parts` load units shipped `src → dst` under the
/// §2 sharing model.
#[derive(Debug, Clone)]
pub struct LiveFlowSpec {
    /// Source cluster (consumes `g_src` egress).
    pub src: ClusterId,
    /// Destination cluster (consumes `g_dst` ingress).
    pub dst: ClusterId,
    /// Hard per-flow cap `β·minbw` (`f64::INFINITY` for same-router pairs).
    pub cap: f64,
    /// Reserved steady-state rate (the allocation's `α_{k,l}` share).
    pub demand: f64,
    /// Per-job payload breakdown; the flow delivers `Σ parts` units to
    /// `dst`'s compute queue, store-and-forward, on completion.
    pub parts: Vec<ChunkPart>,
}

/// Stable handle to a flow tracked by a [`LiveSim`]. Slots are reused after
/// completion/retirement; the generation counter makes stale handles
/// detectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LiveFlowId {
    slot: u32,
    gen: u32,
}

impl LiveFlowId {
    /// Packs the handle into one `u64` for snapshot serialisation (the
    /// slot/generation split is an engine-internal detail).
    pub fn to_raw(self) -> u64 {
        (u64::from(self.slot) << 32) | u64::from(self.gen)
    }

    /// Rebuilds a handle packed by [`LiveFlowId::to_raw`].
    pub fn from_raw(raw: u64) -> LiveFlowId {
        LiveFlowId {
            slot: (raw >> 32) as u32,
            gen: raw as u32,
        }
    }
}

/// What was abandoned when a flow was retired mid-transfer: the *original*
/// parts (store-and-forward semantics — an interrupted transfer delivers
/// nothing, so in-flight progress is forfeited and the caller re-queues the
/// full payload).
#[derive(Debug, Clone)]
pub struct RetiredFlow {
    /// Source cluster of the retired flow.
    pub src: ClusterId,
    /// Destination cluster of the retired flow.
    pub dst: ClusterId,
    /// The flow's original per-job payload breakdown.
    pub parts: Vec<ChunkPart>,
    /// Load units already shipped at retirement time. Forfeited under
    /// store-and-forward semantics — reported so a crash can account the
    /// transfer progress it destroyed.
    pub shipped: f64,
}

/// A compute-queue entry drained by [`LiveSim::purge_queue`] (a cluster
/// crash): the work is *lost*, not paused, so the caller re-dispatches the
/// original amount and accounts the destroyed progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PurgedEntry {
    /// Caller-side job tag.
    pub job: u32,
    /// Load units still unprocessed at the purge.
    pub remaining: f64,
    /// The entry's original size.
    pub original: f64,
}

/// An observation emitted by [`LiveSim::advance_to`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LiveEvent {
    /// A flow finished: emitted once, before its `Delivered` parts.
    FlowDone {
        /// Completion time.
        time: f64,
        /// The finished flow (its handle is now stale).
        id: LiveFlowId,
    },
    /// One payload part entered `dst`'s compute queue.
    Delivered {
        /// Delivery time.
        time: f64,
        /// Receiving cluster.
        dst: ClusterId,
        /// Job tag of the part.
        job: u32,
        /// Load units delivered.
        amount: f64,
    },
    /// One compute-queue entry was fully processed.
    Computed {
        /// Completion time.
        time: f64,
        /// Executing cluster.
        cluster: ClusterId,
        /// Job tag of the entry.
        job: u32,
        /// Load units processed (the entry's full original amount).
        amount: f64,
    },
}

/// A compute-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct QueueEntry {
    job: u32,
    remaining: f64,
    original: f64,
}

type LiveFlow = Flow<Vec<ChunkPart>>;

/// The live-mutation engine. See the module docs.
#[derive(Debug)]
pub struct LiveSim {
    cfg: LiveConfig,
    speeds: Vec<f64>,
    t: f64,
    core: FlowCore<Vec<ChunkPart>>,
    /// Per-slot generation behind [`LiveFlowId`].
    gen: Vec<u32>,
    queues: Vec<VecDeque<QueueEntry>>,
    // --- scratch / observation ---
    events: Vec<LiveEvent>,
    event_log: Vec<EventRecord>,
    processed: u64,
}

impl LiveSim {
    /// Creates an idle engine over clusters with the given local-link
    /// capacities and compute speeds (`local_bw.len() == speeds.len()`).
    pub fn new(local_bw: &[f64], speeds: &[f64], cfg: LiveConfig) -> Self {
        assert_eq!(
            local_bw.len(),
            speeds.len(),
            "one local link and one speed per cluster"
        );
        LiveSim {
            core: FlowCore::new(local_bw, cfg.engine, cfg.oracle_check),
            cfg,
            speeds: speeds.to_vec(),
            t: 0.0,
            gen: Vec::new(),
            queues: vec![VecDeque::new(); local_bw.len()],
            events: Vec::new(),
            event_log: Vec::new(),
            processed: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.t
    }

    /// Number of clusters.
    pub fn clusters(&self) -> usize {
        self.speeds.len()
    }

    /// Number of live flows.
    pub fn live_flows(&self) -> usize {
        self.core.live()
    }

    /// `true` when nothing is in flight: no live flow and every compute
    /// queue empty.
    pub fn idle(&self) -> bool {
        self.core.live() == 0 && self.queues.iter().all(VecDeque::is_empty)
    }

    /// Events processed so far (completions, deliveries, compute
    /// finishes).
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// The recorded event trace (empty unless
    /// [`LiveConfig::record_events`] is set).
    pub fn event_log(&self) -> &[EventRecord] {
        &self.event_log
    }

    /// `true` iff `id` refers to a currently live flow.
    pub fn is_current(&self, id: LiveFlowId) -> bool {
        let s = id.slot as usize;
        self.core.slots().get(s).is_some_and(Option::is_some) && self.gen[s] == id.gen
    }

    /// Pending (queued, not yet processed) compute work at a cluster.
    pub fn queued_work(&self, cluster: ClusterId) -> f64 {
        self.queues[cluster.index()]
            .iter()
            .map(|e| e.remaining)
            .sum()
    }

    /// Spawns a batch of flows at the current time; returns their handles
    /// (in `specs` order). Zero-payload flows complete at the next
    /// [`LiveSim::advance_to`] step.
    pub fn add_flows(&mut self, specs: Vec<LiveFlowSpec>) -> Vec<LiveFlowId> {
        for spec in specs {
            let payload: f64 = spec.parts.iter().map(|p| p.amount).sum();
            let flow_spec = FlowSpec {
                src: spec.src,
                dst: spec.dst,
                cap: spec.cap,
                demand: spec.demand,
            };
            self.core.stage(flow_spec, payload, spec.parts);
        }
        self.core.commit(self.t);
        self.gen.resize(self.core.slots().len(), 0);
        self.core
            .new_slots()
            .iter()
            .map(|&slot| {
                let gen = &mut self.gen[slot as usize];
                *gen = gen.wrapping_add(1);
                LiveFlowId { slot, gen: *gen }
            })
            .collect()
    }

    /// Retires live flows mid-transfer (e.g. a churned destination),
    /// returning what they were carrying so the caller can re-queue it.
    /// Stale handles are ignored.
    pub fn retire_flows(&mut self, ids: &[LiveFlowId]) -> Vec<RetiredFlow> {
        let mut retired = Vec::new();
        for &id in ids {
            if !self.is_current(id) {
                continue;
            }
            let s = id.slot as usize;
            let f = self.core.retire(s, self.t);
            self.gen[s] = self.gen[s].wrapping_add(1);
            retired.push(RetiredFlow {
                src: f.spec.src,
                dst: f.spec.dst,
                parts: f.payload,
                shipped: f.size - f.remaining.clamp(0.0, f.size),
            });
        }
        self.core.commit(self.t);
        retired
    }

    /// Changes the local-link capacity `g` of one cluster at the current
    /// time. Rates of the affected flows adjust immediately.
    pub fn update_link_capacity(&mut self, cluster: ClusterId, g: f64) {
        self.core.retune(self.t, cluster.index(), g);
    }

    /// Changes a cluster's compute speed at the current time (queues are
    /// already drained up to now, so the change is purely forward-looking).
    pub fn update_speed(&mut self, cluster: ClusterId, speed: f64) {
        assert!(
            speed >= 0.0 && speed.is_finite(),
            "speed must be finite and non-negative, got {speed}"
        );
        self.speeds[cluster.index()] = speed;
    }

    /// Pushes locally-sourced work straight into a cluster's compute queue
    /// (the `α_{k,k}` share of an allocation — no network involved).
    /// Zero/negative amounts are ignored.
    pub fn enqueue_compute(&mut self, cluster: ClusterId, job: u32, amount: f64) {
        if amount > 0.0 {
            self.queues[cluster.index()].push_back(QueueEntry {
                job,
                remaining: amount,
                original: amount,
            });
        }
    }

    /// Drains a cluster's compute queue without processing it — the crash
    /// semantics: queued work is lost, not paused. Returns the drained
    /// entries so the caller can account destroyed progress
    /// (`original − remaining`) and re-dispatch the original amounts.
    pub fn purge_queue(&mut self, cluster: ClusterId) -> Vec<PurgedEntry> {
        self.queues[cluster.index()]
            .drain(..)
            .map(|e| PurgedEntry {
                job: e.job,
                remaining: e.remaining,
                original: e.original,
            })
            .collect()
    }

    /// Replaces a live flow's constraint pair `(cap, demand)` in place,
    /// without churning its slot or its delivered-payload state. Rates of
    /// the affected flows adjust immediately.
    ///
    /// This is how a backbone partition stalls an in-flight transfer
    /// (`cap = 0, demand = 0`) and how the heal restores it: the flow keeps
    /// its shipped progress, unlike a retire/re-add cycle which forfeits
    /// it under store-and-forward semantics.
    pub fn set_flow_constraints(&mut self, id: LiveFlowId, cap: f64, demand: f64) {
        assert!(self.is_current(id), "set_flow_constraints on a stale id");
        self.core.reshape(self.t, id.slot as usize, cap, demand);
    }

    /// Advances simulation time to `t_end`, processing every flow
    /// completion and compute finish on the way, and returns the events
    /// that fired (valid until the next `&mut self` call).
    pub fn advance_to(&mut self, t_end: f64) -> &[LiveEvent] {
        assert!(
            t_end >= self.t - 1e-12,
            "time cannot flow backwards: {} -> {t_end}",
            self.t
        );
        self.events.clear();
        loop {
            let te = self
                .next_queue_completion()
                .min(self.core.next_completion(self.t));
            let stop = !te.is_finite() || te > t_end;
            let t_next = if stop { t_end } else { te };
            let dt = (t_next - self.t).max(0.0);
            if dt > 0.0 {
                self.drain_queues(dt, t_next);
                self.core.advance(self.t, dt);
            }
            self.t = t_next;
            if stop {
                return &self.events;
            }
            self.complete_due();
        }
    }

    /// Forces the oracle cross-check once, regardless of
    /// [`LiveConfig::oracle_check`]: every incremental rate must match a
    /// fresh full solve and pass the max-min certificate, and the completion
    /// heap's next due time must match a full scan's projection. Panics on
    /// divergence — the hook the fault-injection tests use to prove
    /// corruption is *caught*, and a no-op on [`SimEngine::FullRecompute`]
    /// (it has no fast-path state to audit).
    pub fn audit(&mut self, context: &str) {
        self.core.audit(self.t, &format!("live, {context}"));
    }

    /// Corrupts the completion heap with a phantom *valid-version* entry at
    /// a wrong time, simulating a scheduling bug. [`LiveSim::audit`] must
    /// catch it. Test-only; incremental core with a live flow required.
    #[doc(hidden)]
    pub fn debug_corrupt_heap_phantom(&mut self) {
        self.core.debug_corrupt_heap(self.t, true);
    }

    /// Corrupts the completion heap by bumping a live flow's version
    /// *without* re-inserting an entry — its completion is silently
    /// dropped. [`LiveSim::audit`] must catch it. Test-only.
    #[doc(hidden)]
    pub fn debug_corrupt_heap_dropped(&mut self) {
        self.core.debug_corrupt_heap(self.t, false);
    }

    /// Delivers every flow due now, then re-allocates the survivors. Each
    /// completion is handled as the core pops it, so no batch is buffered.
    fn complete_due(&mut self) {
        let t = self.t;
        self.core.pop_due(t, |slot, f| {
            self.processed += 1;
            let gen = &mut self.gen[slot as usize];
            self.events.push(LiveEvent::FlowDone {
                time: t,
                id: LiveFlowId { slot, gen: *gen },
            });
            *gen = gen.wrapping_add(1);
            let dst = f.spec.dst;
            for p in &f.payload {
                if p.amount <= 0.0 {
                    continue;
                }
                self.events.push(LiveEvent::Delivered {
                    time: t,
                    dst,
                    job: p.job,
                    amount: p.amount,
                });
                if self.cfg.record_events {
                    self.event_log.push(EventRecord {
                        kind: EventKind::Delivered,
                        time: t,
                        cluster: dst.0,
                        job: p.job,
                        amount: p.amount,
                    });
                }
                self.queues[dst.index()].push_back(QueueEntry {
                    job: p.job,
                    remaining: p.amount,
                    original: p.amount,
                });
            }
        });
        self.core.commit(t);
    }

    /// Earliest completion of any queue's *head* entry.
    fn next_queue_completion(&self) -> f64 {
        let mut next = f64::INFINITY;
        for (queue, &s) in self.queues.iter().zip(&self.speeds) {
            if s > 0.0 {
                if let Some(head) = queue.front() {
                    next = next.min(self.t + head.remaining / s);
                }
            }
        }
        next
    }

    /// Drains every queue by `speed · dt`, emitting [`LiveEvent::Computed`]
    /// (with full original credit) for entries that finish at `t_event`.
    fn drain_queues(&mut self, dt: f64, t_event: f64) {
        for (c, (queue, &s)) in self.queues.iter_mut().zip(&self.speeds).enumerate() {
            if s <= 0.0 || queue.is_empty() {
                continue;
            }
            let mut capacity = s * dt;
            while capacity > 0.0 {
                let Some(head) = queue.front_mut() else {
                    break;
                };
                if head.remaining <= capacity + 1e-9 * (1.0 + head.original) {
                    capacity -= head.remaining;
                    let entry = queue.pop_front().expect("front exists");
                    self.processed += 1;
                    self.events.push(LiveEvent::Computed {
                        time: t_event,
                        cluster: ClusterId(c as u32),
                        job: entry.job,
                        amount: entry.original,
                    });
                    if self.cfg.record_events {
                        self.event_log.push(EventRecord {
                            kind: EventKind::Computed,
                            time: t_event,
                            cluster: c as u32,
                            job: entry.job,
                            amount: entry.original,
                        });
                    }
                } else {
                    head.remaining -= capacity;
                    break;
                }
            }
        }
    }

    // --- snapshot / restore -----------------------------------------------

    /// Captures the full engine state for failover. Must be taken *between*
    /// [`LiveSim::advance_to`] calls (the per-advance event scratch is
    /// transient and not saved). [`LiveSim::restore`] rebuilds an engine
    /// that behaves **bit-identically** from this point on: the snapshot
    /// preserves slot layout, generations, the free list, the allocator's
    /// per-link membership order, exact flow materialisation state, and the
    /// completion heap's entry multiset (its strict total order makes the
    /// rebuilt pop sequence identical regardless of internal layout).
    pub fn snapshot(&self) -> LiveSnapshot {
        let SolverState {
            versions,
            heap,
            free,
            rates_stale,
            alloc,
        } = self.core.export();
        LiveSnapshot {
            version: LIVE_SNAPSHOT_VERSION,
            t: self.t,
            local_bw: self.core.local_bw().to_vec(),
            speeds: self.speeds.clone(),
            flows: self
                .core
                .slots()
                .iter()
                .map(|slot| slot.as_ref().map(FlowState::of))
                .collect(),
            gen: self.gen.clone(),
            versions,
            heap,
            free,
            rates_stale,
            queues: self
                .queues
                .iter()
                .map(|q| q.iter().copied().collect())
                .collect(),
            processed: self.processed,
            event_log: self.event_log.clone(),
            alloc,
        }
    }

    /// Rebuilds an engine from a [`LiveSim::snapshot`]. `cfg` must use the
    /// same engine core the snapshot was taken under (it is config, not
    /// state — a snapshot does not pin the observer
    /// knobs `oracle_check`/`record_events`). A snapshot of another wire
    /// version, or whose per-cluster vectors differ in length, is an error.
    pub fn restore(cfg: LiveConfig, snap: &LiveSnapshot) -> Result<LiveSim, String> {
        if snap.version != LIVE_SNAPSHOT_VERSION {
            return Err(format!("unsupported LiveSnapshot version {}", snap.version));
        }
        let k = snap.speeds.len();
        if snap.local_bw.len() != k || snap.queues.len() != k {
            return Err(format!(
                "LiveSnapshot has {} local links and {} queues for {k} speeds",
                snap.local_bw.len(),
                snap.queues.len()
            ));
        }
        let mut sim = LiveSim::new(&snap.local_bw, &snap.speeds, cfg);
        sim.core.import(
            snap.flows
                .iter()
                .map(|slot| slot.as_ref().map(FlowState::to_flow))
                .collect(),
            SolverState {
                versions: snap.versions.clone(),
                heap: snap.heap.clone(),
                free: snap.free.clone(),
                rates_stale: snap.rates_stale,
                alloc: snap.alloc.clone(),
            },
        );
        sim.t = snap.t;
        sim.gen.clone_from(&snap.gen);
        sim.queues = snap
            .queues
            .iter()
            .map(|q| q.iter().copied().collect())
            .collect();
        sim.processed = snap.processed;
        sim.event_log.clone_from(&snap.event_log);
        Ok(sim)
    }
}

/// Wire version written into every [`LiveSnapshot`]; restore rejects
/// anything else.
pub const LIVE_SNAPSHOT_VERSION: u32 = 1;

/// One occupied flow slot in a [`LiveSnapshot`]. The per-flow cap is
/// `Option`-encoded (`None` = uncapped) because `f64::INFINITY` does not
/// survive a JSON round trip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FlowState {
    src: u32,
    dst: u32,
    cap: Option<f64>,
    demand: f64,
    parts: Vec<ChunkPart>,
    payload: f64,
    remaining: f64,
    last_t: f64,
    rate: f64,
    alloc_slot: Option<u32>,
    alloc_gen: Option<u32>,
}

impl FlowState {
    fn of(f: &LiveFlow) -> FlowState {
        let (alloc_slot, alloc_gen) = match f.alloc_id {
            Some(id) => {
                let (s, g) = id.to_parts();
                (Some(s), Some(g))
            }
            None => (None, None),
        };
        FlowState {
            src: f.spec.src.0,
            dst: f.spec.dst.0,
            cap: if f.spec.cap.is_finite() {
                Some(f.spec.cap)
            } else {
                None
            },
            demand: f.spec.demand,
            parts: f.payload.clone(),
            payload: f.size,
            remaining: f.remaining,
            last_t: f.last_t,
            rate: f.rate,
            alloc_slot,
            alloc_gen,
        }
    }

    fn to_flow(&self) -> LiveFlow {
        LiveFlow {
            spec: FlowSpec {
                src: ClusterId(self.src),
                dst: ClusterId(self.dst),
                cap: self.cap.unwrap_or(f64::INFINITY),
                demand: self.demand,
            },
            payload: self.parts.clone(),
            size: self.payload,
            remaining: self.remaining,
            last_t: self.last_t,
            rate: self.rate,
            alloc_id: match (self.alloc_slot, self.alloc_gen) {
                (Some(s), Some(g)) => Some(FlowId::of_parts(s, g)),
                _ => None,
            },
        }
    }
}

/// Serialisable full state of a [`LiveSim`], captured by
/// [`LiveSim::snapshot`] and rebuilt by [`LiveSim::restore`]. See the
/// snapshot method for the bit-identity contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveSnapshot {
    /// Wire version ([`LIVE_SNAPSHOT_VERSION`]).
    pub version: u32,
    t: f64,
    local_bw: Vec<f64>,
    speeds: Vec<f64>,
    flows: Vec<Option<FlowState>>,
    gen: Vec<u32>,
    versions: Vec<u64>,
    heap: Vec<HeapEntry>,
    free: Vec<u32>,
    rates_stale: bool,
    queues: Vec<Vec<QueueEntry>>,
    processed: u64,
    event_log: Vec<EventRecord>,
    alloc: AllocatorState,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_core::approx::close;

    fn c(i: u32) -> ClusterId {
        ClusterId(i)
    }

    fn part(job: u32, amount: f64) -> ChunkPart {
        ChunkPart { job, amount }
    }

    fn flow(src: u32, dst: u32, cap: f64, demand: f64, parts: Vec<ChunkPart>) -> LiveFlowSpec {
        LiveFlowSpec {
            src: c(src),
            dst: c(dst),
            cap,
            demand,
            parts,
        }
    }

    fn checked(engine: SimEngine) -> LiveConfig {
        LiveConfig {
            engine,
            oracle_check: true,
            ..LiveConfig::default()
        }
    }

    #[test]
    fn single_flow_delivers_then_computes() {
        let mut sim = LiveSim::new(&[10.0, 10.0], &[0.0, 2.0], checked(SimEngine::Incremental));
        // 20 units over a 10-wide path: delivery at t = 2; compute at 2 + 10.
        sim.add_flows(vec![flow(0, 1, f64::INFINITY, 0.0, vec![part(7, 20.0)])]);
        let events = sim.advance_to(20.0).to_vec();
        assert_eq!(events.len(), 3);
        assert!(matches!(events[0], LiveEvent::FlowDone { time, .. } if (time - 2.0).abs() < 1e-9));
        assert!(
            matches!(events[1], LiveEvent::Delivered { job: 7, amount, .. } if (amount - 20.0).abs() < 1e-12)
        );
        assert!(
            matches!(events[2], LiveEvent::Computed { time, job: 7, amount, .. }
                if (time - 12.0).abs() < 1e-9 && (amount - 20.0).abs() < 1e-12)
        );
        assert!(sim.idle());
    }

    #[test]
    fn capacity_update_retimes_in_flight_transfers() {
        let mut sim = LiveSim::new(&[10.0, 100.0], &[0.0, 0.0], checked(SimEngine::Incremental));
        let ids = sim.add_flows(vec![flow(0, 1, f64::INFINITY, 0.0, vec![part(0, 20.0)])]);
        sim.advance_to(1.0); // 10 units shipped
        sim.update_link_capacity(c(0), 5.0); // remaining 10 at rate 5
        let events = sim.advance_to(10.0).to_vec();
        assert!(
            matches!(events[0], LiveEvent::FlowDone { time, .. } if (time - 3.0).abs() < 1e-9),
            "{events:?}"
        );
        assert!(sim.live_flows() == 0);
        assert!(!sim.is_current(ids[0]));
    }

    #[test]
    fn outage_stalls_and_restore_revives() {
        let mut sim = LiveSim::new(&[10.0, 100.0], &[0.0, 0.0], checked(SimEngine::Incremental));
        sim.add_flows(vec![flow(0, 1, f64::INFINITY, 0.0, vec![part(0, 10.0)])]);
        sim.advance_to(0.5);
        sim.update_link_capacity(c(0), 0.0);
        assert!(sim.advance_to(50.0).is_empty(), "stalled flow completed");
        sim.update_link_capacity(c(0), 10.0);
        let events = sim.advance_to(51.0).to_vec();
        assert!(
            matches!(events[0], LiveEvent::FlowDone { time, .. } if (time - 50.5).abs() < 1e-9),
            "{events:?}"
        );
    }

    #[test]
    fn retire_returns_original_parts() {
        let mut sim = LiveSim::new(&[10.0, 100.0], &[0.0, 1.0], checked(SimEngine::Incremental));
        let ids = sim.add_flows(vec![flow(
            0,
            1,
            f64::INFINITY,
            0.0,
            vec![part(1, 15.0), part(2, 5.0)],
        )]);
        sim.advance_to(1.0);
        let retired = sim.retire_flows(&ids);
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].parts, vec![part(1, 15.0), part(2, 5.0)]);
        assert!(sim.idle());
        // Stale handles are ignored.
        assert!(sim.retire_flows(&ids).is_empty());
    }

    #[test]
    fn speed_update_retimes_compute() {
        let mut sim = LiveSim::new(&[10.0, 10.0], &[1.0, 1.0], LiveConfig::default());
        sim.enqueue_compute(c(0), 3, 10.0);
        sim.advance_to(2.0); // 8 left at speed 1
        sim.update_speed(c(0), 4.0);
        let events = sim.advance_to(10.0).to_vec();
        assert!(
            matches!(events[0], LiveEvent::Computed { time, job: 3, .. } if (time - 4.0).abs() < 1e-9),
            "{events:?}"
        );
    }

    #[test]
    fn engines_agree_on_event_times() {
        use rand::{Rng, SeedableRng};
        let mut logs: Vec<Vec<(u8, u32, f64)>> = Vec::new();
        let mut traces: Vec<Vec<EventRecord>> = Vec::new();
        for engine in [SimEngine::Incremental, SimEngine::FullRecompute] {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
            let g = [20.0, 15.0, 30.0, 25.0];
            let speeds = [4.0, 3.0, 5.0, 2.0];
            let mut sim = LiveSim::new(
                &g,
                &speeds,
                LiveConfig {
                    engine,
                    oracle_check: engine == SimEngine::Incremental,
                    record_events: true,
                },
            );
            let mut log = Vec::new();
            for step in 0..30u32 {
                let t = step as f64 * 0.7;
                for e in sim.advance_to(t) {
                    match *e {
                        LiveEvent::Computed { time, job, .. } => log.push((2u8, job, time)),
                        LiveEvent::Delivered { time, job, .. } => log.push((1u8, job, time)),
                        LiveEvent::FlowDone { .. } => {}
                    }
                }
                // A deterministic mutation mix.
                if step % 3 == 0 {
                    let src = rng.gen_range(0..4u32);
                    let dst = (src + rng.gen_range(1..4u32)) % 4;
                    sim.add_flows(vec![flow(
                        src,
                        dst,
                        rng.gen_range(2.0..20.0),
                        rng.gen_range(0.0..3.0),
                        vec![part(step, rng.gen_range(1.0..12.0))],
                    )]);
                }
                if step % 7 == 0 {
                    let l = rng.gen_range(0..4usize);
                    sim.update_link_capacity(ClusterId(l as u32), rng.gen_range(5.0..40.0));
                }
                if step % 11 == 0 {
                    let cl = rng.gen_range(0..4usize);
                    sim.update_speed(ClusterId(cl as u32), rng.gen_range(1.0..6.0));
                }
            }
            for e in sim.advance_to(120.0) {
                match *e {
                    LiveEvent::Computed { time, job, .. } => log.push((2u8, job, time)),
                    LiveEvent::Delivered { time, job, .. } => log.push((1u8, job, time)),
                    LiveEvent::FlowDone { .. } => {}
                }
            }
            assert!(sim.idle(), "{engine:?} left work behind");
            logs.push(log);
            traces.push(sim.event_log().to_vec());
        }
        let (fast, slow) = (&logs[0], &logs[1]);
        assert_eq!(fast.len(), slow.len(), "event counts differ");
        for (a, b) in fast.iter().zip(slow) {
            assert_eq!(a.0, b.0, "event kinds diverged");
            assert_eq!(a.1, b.1, "event jobs diverged");
            assert!(
                close(a.2, b.2, 1e-6),
                "event times diverged: {} vs {}",
                a.2,
                b.2
            );
        }
        // The structured trace must agree too — and pinpoint nothing.
        if let Some(d) = crate::trace::first_divergence(&traces[0], &traces[1], 1e-6) {
            panic!("engines diverged at {}", d.describe());
        }
    }

    #[test]
    fn retire_reports_shipped_progress() {
        let mut sim = LiveSim::new(&[10.0, 100.0], &[0.0, 1.0], checked(SimEngine::Incremental));
        let ids = sim.add_flows(vec![flow(0, 1, f64::INFINITY, 0.0, vec![part(1, 20.0)])]);
        sim.advance_to(1.0); // 10 of 20 shipped
        let retired = sim.retire_flows(&ids);
        assert!(
            (retired[0].shipped - 10.0).abs() < 1e-9,
            "shipped {}",
            retired[0].shipped
        );
    }

    #[test]
    fn purge_queue_returns_lost_work() {
        let mut sim = LiveSim::new(&[10.0, 10.0], &[1.0, 1.0], LiveConfig::default());
        sim.enqueue_compute(c(0), 3, 10.0);
        sim.enqueue_compute(c(0), 4, 5.0);
        sim.advance_to(2.0); // 8 left on the head entry
        let purged = sim.purge_queue(c(0));
        assert_eq!(purged.len(), 2);
        assert!((purged[0].remaining - 8.0).abs() < 1e-9);
        assert_eq!(purged[0].original, 10.0);
        assert_eq!(purged[1].remaining, 5.0);
        assert!(sim.idle());
        assert!(sim.advance_to(50.0).is_empty(), "purged work completed");
    }

    #[test]
    fn flow_constraint_stall_and_heal_keeps_progress() {
        // Unlike retire/re-add, a cap = 0 stall keeps shipped progress: 10
        // of 20 shipped at the stall, so the heal finishes 1 s later.
        for engine in [SimEngine::Incremental, SimEngine::FullRecompute] {
            let mut sim = LiveSim::new(&[10.0, 100.0], &[0.0, 0.0], checked(engine));
            let ids = sim.add_flows(vec![flow(0, 1, f64::INFINITY, 0.0, vec![part(0, 20.0)])]);
            sim.advance_to(1.0);
            sim.set_flow_constraints(ids[0], 0.0, 0.0);
            assert!(
                sim.advance_to(5.0).is_empty(),
                "{engine:?}: stalled flow moved"
            );
            sim.set_flow_constraints(ids[0], f64::INFINITY, 0.0);
            let events = sim.advance_to(10.0).to_vec();
            assert!(
                matches!(events[0], LiveEvent::FlowDone { time, .. } if (time - 6.0).abs() < 1e-9),
                "{engine:?}: {events:?}"
            );
        }
    }

    #[test]
    fn audit_catches_injected_heap_corruption() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for corrupt in [
            LiveSim::debug_corrupt_heap_phantom as fn(&mut LiveSim),
            LiveSim::debug_corrupt_heap_dropped,
        ] {
            let mut sim =
                LiveSim::new(&[10.0, 100.0], &[0.0, 1.0], checked(SimEngine::Incremental));
            sim.add_flows(vec![flow(0, 1, f64::INFINITY, 0.0, vec![part(0, 20.0)])]);
            sim.audit("clean"); // must pass before the corruption
            corrupt(&mut sim);
            let caught = catch_unwind(AssertUnwindSafe(|| sim.audit("corrupted")));
            assert!(caught.is_err(), "audit missed the injected corruption");
        }
    }

    #[test]
    fn snapshot_restore_replays_bit_identically() {
        use rand::{Rng, SeedableRng};
        // Drive a sim to t = 10, snapshot (through JSON), and replay the
        // same deterministic tail on both copies: the event streams and
        // final state must agree bit for bit.
        for engine in [SimEngine::Incremental, SimEngine::FullRecompute] {
            let cfg = LiveConfig {
                record_events: true,
                ..checked(engine)
            };
            let mut sim = LiveSim::new(
                &[20.0, 15.0, 30.0, 25.0],
                &[4.0, 3.0, 5.0, 2.0],
                cfg.clone(),
            );
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
            let drive = |sim: &mut LiveSim, rng: &mut rand_chacha::ChaCha8Rng, from: u32| {
                for step in from..from + 14 {
                    sim.advance_to(step as f64 * 0.7);
                    let src = rng.gen_range(0..4u32);
                    let dst = (src + rng.gen_range(1..4u32)) % 4;
                    sim.add_flows(vec![flow(
                        src,
                        dst,
                        rng.gen_range(2.0..20.0),
                        rng.gen_range(0.0..3.0),
                        vec![part(step, rng.gen_range(1.0..12.0))],
                    )]);
                    if step % 5 == 0 {
                        let l = rng.gen_range(0..4usize);
                        sim.update_link_capacity(ClusterId(l as u32), rng.gen_range(5.0..40.0));
                    }
                }
                sim.advance_to(from as f64 * 0.7 + 50.0);
            };
            drive(&mut sim, &mut rng, 0);
            let json = serde_json::to_string(&sim.snapshot()).unwrap();
            let snap: LiveSnapshot = serde_json::from_str(&json).unwrap();
            let mut restored = LiveSim::restore(cfg, &snap).unwrap();
            let mut rng2 = rng.clone();
            drive(&mut sim, &mut rng, 100);
            drive(&mut restored, &mut rng2, 100);
            assert!(sim.idle() && restored.idle());
            let (a, b) = (sim.event_log(), restored.event_log());
            assert_eq!(a.len(), b.len(), "{engine:?}: event counts differ");
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.kind, y.kind, "{engine:?}");
                assert_eq!(
                    x.time.to_bits(),
                    y.time.to_bits(),
                    "{engine:?}: times differ"
                );
                assert_eq!(x.job, y.job, "{engine:?}");
                assert_eq!(x.amount.to_bits(), y.amount.to_bits(), "{engine:?}");
            }
        }
    }

    #[test]
    fn zero_payload_flow_completes_immediately() {
        for engine in [SimEngine::Incremental, SimEngine::FullRecompute] {
            let mut sim = LiveSim::new(&[10.0, 10.0], &[1.0, 1.0], checked(engine));
            sim.add_flows(vec![flow(0, 1, 5.0, 0.0, vec![])]);
            let events = sim.advance_to(0.1).to_vec();
            assert!(
                matches!(events[0], LiveEvent::FlowDone { .. }),
                "{engine:?}: {events:?}"
            );
            assert!(sim.idle());
        }
    }
}
