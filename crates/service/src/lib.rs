//! `dls-service`: a long-running multi-tenant scheduler daemon.
//!
//! The paper's §1(iii) adaptability story assumes a scheduler that keeps
//! reacting to arrivals and platform change for as long as the platform
//! lives. This crate is that long-lived layer over the in-process
//! engine: a TCP daemon speaking newline-delimited JSON frames
//! ([`proto`]), sharding tenant sessions across a fixed worker pool
//! ([`server`]), each tenant driving a [`dls_scenario::ScenarioSession`]
//! with its own reschedule policy. Sessions persist through
//! [`dls_scenario::ScenarioSnapshot`]-based checkpoints: kill the daemon
//! and restart it on the same checkpoint directory and every tenant's
//! remaining timeline replays bit-identically.
//!
//! No external dependencies: std networking plus the workspace's
//! vendored serde/serde_json.

pub mod client;
pub mod proto;
pub mod server;
pub mod tenant;

pub use client::{Client, ClientError};
pub use proto::{
    frame, Op, Push, PushFrame, Request, RespBody, Response, ServerFrame, TenantSpec,
    PROTOCOL_VERSION,
};
pub use server::{install_signal_handlers, Server, ServiceConfig};
pub use tenant::{CheckpointFile, Tenant, CHECKPOINT_VERSION};
