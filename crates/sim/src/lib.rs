#![warn(missing_docs)]

//! # dls-sim — executing periodic schedules under the §2 network model
//!
//! The steady-state equations promise a throughput; this crate checks that
//! the promise survives contact with an actual execution. It implements an
//! event-driven fluid simulator for the paper's platform model:
//!
//! * every transfer `C^k → C^l` of a period becomes a **flow** whose rate is
//!   capped by its connections (`β_{k,l} · min bw(l_i)` — each backbone
//!   connection is granted its fixed per-connection bandwidth, the paper's
//!   wide-area TCP model) and shaped by **max-min fair sharing** of the two
//!   fluid local links it crosses (progressive filling, recomputed at every
//!   flow arrival/completion);
//! * every cluster is a fluid processor draining a work queue at speed
//!   `s_k`: local load is enqueued at the start of its period, remote load
//!   when its flow completes (the paper's one-period pipeline);
//! * the engine advances from event to event (period boundaries, flow
//!   completions) over a configurable horizon and reports measured per-
//!   application throughput, transfer lateness, and peak per-link connection
//!   usage — so a valid allocation can be certified *executable*, not just
//!   arithmetically consistent.
//!
//! Reservation-aware max-min fairness is the only sharing discipline.
//! [`allocate_rates`] solves it from scratch and is the oracle the
//! incremental [`BandwidthAllocator`] is held to; the property tests hold
//! both to a max-min certificate: every rate is feasible, and every flow
//! below its cap crosses a saturated link on which no other flow got a
//! larger share of the surplus.

pub mod bandwidth;
pub mod engine;
mod flows;
pub mod live;
pub mod report;
pub mod trace;

pub use bandwidth::{
    allocate_rates, certify_max_min, AllocStats, AllocatorState, BandwidthAllocator, FlowId,
    FlowSpec,
};
pub use engine::{SimConfig, SimEngine, Simulator};
pub use live::{
    ChunkPart, LiveConfig, LiveEvent, LiveFlowId, LiveFlowSpec, LiveSim, LiveSnapshot, PurgedEntry,
    RetiredFlow, LIVE_SNAPSHOT_VERSION,
};
pub use report::SimReport;
pub use trace::{first_divergence, EventDivergence, EventKind, EventLog, EventRecord};
