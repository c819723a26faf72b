//! The wire protocol: newline-delimited JSON frames over TCP.
//!
//! Every client→server frame is a [`Request`] (`{"id": N, "op": ...}`);
//! every server→client frame is either a [`Response`] carrying the
//! matching `id`, or — on connections that issued [`Op::Subscribe`] — an
//! unsolicited [`Push`] frame (distinguished by `push` being its first
//! key; [`ServerFrame`] decodes either in one pass). Enums
//! are externally tagged (`{"Submit": {...}}`), unit variants are bare
//! strings (`"ListTenants"`), matching the repo-wide serde conventions.
//!
//! The bytes of every frame shape are pinned by `tests/wire_golden.rs`.

use dls_scenario::{JobSpec, PlatformEvent, ScenarioReport};
use serde::de::Parser;
use serde::{DeError, Deserialize, Serialize};

/// Wire version of the request/response schema, echoed by
/// [`RespBody::Hello`] so clients can detect skew.
pub const PROTOCOL_VERSION: u32 = 1;

/// One client request frame.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the [`Response`].
    pub id: u64,
    /// The operation to perform.
    pub op: Op,
}

/// What a tenant's scenario engine is built from. The platform is
/// regenerated deterministically from `(clusters, seed)` — the daemon
/// never ships platform matrices over the wire, it ships the recipe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Cluster count of the generated paper-shape platform.
    pub clusters: usize,
    /// Generation seed (platform and payoffs).
    pub seed: u64,
    /// Reschedule policy: `periodic` (warm), `periodic-cold`,
    /// `threshold`, or `stale`.
    pub policy: String,
    /// Control-period length `T_p`.
    pub period: f64,
    /// Live-simulation core: `incremental` or `full`.
    pub engine: String,
    /// Record the delivery/compute event stream into reports.
    pub record_events: bool,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            clusters: 5,
            seed: 42,
            policy: "periodic-cold".into(),
            period: 10.0,
            engine: "incremental".into(),
            record_events: false,
        }
    }
}

/// The operations a client can request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Op {
    /// Client hello: negotiates the protocol version.
    Hello,
    /// Creates (and pins to a shard) a new tenant session.
    CreateTenant { tenant: String, spec: TenantSpec },
    /// Submits jobs into the tenant's open timeline. Admissions are
    /// batched per control period: they take effect together at the next
    /// epoch boundary the session executes.
    Submit { tenant: String, jobs: Vec<JobSpec> },
    /// Notifies the tenant's session of a platform event (fault, churn,
    /// capacity drift).
    Fault {
        tenant: String,
        event: PlatformEvent,
    },
    /// Executes up to `epochs` control periods (stops early if the run
    /// completes).
    Advance { tenant: String, epochs: usize },
    /// Runs the tenant's session until every admitted job is terminal.
    Run { tenant: String },
    /// Returns the tenant's current [`ScenarioReport`].
    Query { tenant: String },
    /// Registers this connection for [`Push`] frames about the tenant.
    Subscribe { tenant: String },
    /// Forces an immediate checkpoint of the tenant.
    Checkpoint { tenant: String },
    /// Lists every live tenant.
    ListTenants,
    /// Asks the daemon to drain, checkpoint every tenant, and exit.
    Shutdown,
}

impl Op {
    /// The tenant the op is pinned to (`None` for daemon-wide ops).
    pub fn tenant(&self) -> Option<&str> {
        match self {
            Op::CreateTenant { tenant, .. }
            | Op::Submit { tenant, .. }
            | Op::Fault { tenant, .. }
            | Op::Advance { tenant, .. }
            | Op::Run { tenant }
            | Op::Query { tenant }
            | Op::Subscribe { tenant }
            | Op::Checkpoint { tenant } => Some(tenant),
            Op::Hello | Op::ListTenants | Op::Shutdown => None,
        }
    }
}

/// One server response frame.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// `false` iff the op was rejected; `error` then says why.
    pub ok: bool,
    /// Human-readable rejection reason.
    pub error: Option<String>,
    /// Success payload.
    pub body: Option<RespBody>,
}

impl Response {
    pub fn ok(id: u64, body: RespBody) -> Response {
        Response {
            id,
            ok: true,
            error: None,
            body: Some(body),
        }
    }

    pub fn err(id: u64, msg: impl Into<String>) -> Response {
        Response {
            id,
            ok: false,
            error: Some(msg.into()),
            body: None,
        }
    }
}

/// Success payloads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum RespBody {
    /// Version handshake.
    Hello { protocol: u32 },
    /// The tenant now exists (restored=true if it came back from a
    /// checkpoint during daemon startup).
    Created { tenant: String },
    /// Jobs/fault admitted into the open timeline.
    Accepted { tenant: String, admitted: usize },
    /// Session stepped; `epoch` is the next boundary to execute.
    Advanced {
        tenant: String,
        epoch: usize,
        done: bool,
    },
    /// The tenant's current report.
    Report {
        tenant: String,
        report: Box<ScenarioReport>,
    },
    /// Subscription registered on this connection.
    Subscribed { tenant: String },
    /// Checkpoint written.
    Checkpointed { tenant: String, path: String },
    /// Live tenant names, sorted.
    Tenants { tenants: Vec<String> },
    /// The daemon is draining and will exit.
    ShuttingDown,
}

/// An unsolicited server→subscriber frame. The `push` key (its first and
/// only one, never present in a [`Response`]) is what clients dispatch on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PushFrame {
    /// What happened.
    pub push: Push,
}

/// Subscription payloads: report deltas after every batch of executed
/// epochs, plus the fault/recovery event stream as it is recorded.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Push {
    /// Summary delta after an `Advance`/`Run` batch.
    Delta {
        tenant: String,
        epoch: usize,
        done: bool,
        completed_jobs: usize,
        completed_work: f64,
        reschedules: usize,
        sim_events: u64,
    },
    /// A fault record was appended to the tenant's timeline.
    Fault {
        tenant: String,
        /// JSON rendering of the [`dls_scenario::FaultRecord`].
        record: String,
    },
    /// A recovery record was appended.
    Recovery {
        tenant: String,
        /// JSON rendering of the [`dls_scenario::RecoveryRecord`].
        record: String,
    },
}

/// Any server→client frame, told apart by its first key.
#[derive(Debug, Clone)]
pub enum ServerFrame {
    /// An unsolicited subscription frame.
    Push(PushFrame),
    /// The answer to a request.
    Response(Response),
}

impl Deserialize for ServerFrame {
    fn from_json(p: &mut Parser<'_>) -> Result<Self, DeError> {
        if p.first_key_is("push") {
            PushFrame::from_json(p).map(ServerFrame::Push)
        } else {
            Response::from_json(p).map(ServerFrame::Response)
        }
    }
}

/// A response frame's text split after its leading `{"id":N`: the id and
/// every byte after it, or `None` for any other shape (a push frame, an id
/// that is not a plain `u64` followed by `,`). A struct keeps the first
/// occurrence of a key, so two frames whose bytes after the id are equal
/// decode alike but for the id.
pub(crate) fn split_id(frame: &str) -> Option<(u64, &str)> {
    let rest = frame.strip_prefix("{\"id\":")?;
    let (id, tail) = rest.split_at(rest.bytes().take_while(u8::is_ascii_digit).count());
    if !tail.starts_with(',') {
        return None;
    }
    Some((id.parse().ok()?, tail))
}

/// Bytes a reader's frame buffer starts with: room for a report frame of a
/// recorded-events tenant (≈ 33 KB at K = 8), so reading one is a single
/// fill and no regrowth.
pub(crate) const FRAME_BUF: usize = 64 * 1024;

/// Serialises one frame (request, response, or push) to its wire form:
/// compact JSON plus the terminating newline.
pub fn frame<T: Serialize>(value: &T) -> String {
    let mut s = String::new();
    frame_into(value, &mut s);
    s
}

/// [`frame`], appended to a buffer the caller reuses.
pub(crate) fn frame_into<T: Serialize>(value: &T, out: &mut String) {
    value.write_json(out);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let req = Request {
            id: 7,
            op: Op::Submit {
                tenant: "acme".into(),
                jobs: vec![JobSpec {
                    arrival: 12.5,
                    origin: 2,
                    size: 150.0,
                    weight: 1.0,
                }],
            },
        };
        let wire = frame(&req);
        assert!(wire.ends_with('\n'));
        let back: Request = serde_json::from_str(wire.trim()).unwrap();
        assert_eq!(back.id, 7);
        match back.op {
            Op::Submit { tenant, jobs } => {
                assert_eq!(tenant, "acme");
                assert_eq!(jobs.len(), 1);
                assert_eq!(jobs[0].arrival, 12.5);
            }
            other => panic!("round trip changed the op: {other:?}"),
        }

        let resp = Response::ok(
            7,
            RespBody::Advanced {
                tenant: "acme".into(),
                epoch: 3,
                done: false,
            },
        );
        let back: Response = serde_json::from_str(frame(&resp).trim()).unwrap();
        assert!(back.ok && back.error.is_none());
        match back.body {
            Some(RespBody::Advanced { epoch, done, .. }) => {
                assert_eq!(epoch, 3);
                assert!(!done);
            }
            other => panic!("round trip changed the body: {other:?}"),
        }
    }

    #[test]
    fn push_frames_are_distinguishable_from_responses() {
        let push = frame(&PushFrame {
            push: Push::Delta {
                tenant: "acme".into(),
                epoch: 9,
                done: true,
                completed_jobs: 4,
                completed_work: 600.0,
                reschedules: 3,
                sim_events: 0,
            },
        });
        let v = serde_json::from_str_value(push.trim()).unwrap();
        assert!(v.get("push").is_some());
        assert!(v.get("id").is_none());
        // One pass tells them apart.
        let streamed: ServerFrame = serde_json::from_str(push.trim()).unwrap();
        assert!(matches!(streamed, ServerFrame::Push(_)));
        let resp = frame(&Response::err(3, "no"));
        let streamed: ServerFrame = serde_json::from_str(resp.trim()).unwrap();
        assert!(matches!(
            streamed,
            ServerFrame::Response(Response { id: 3, .. })
        ));
    }
}
