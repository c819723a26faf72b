//! The daemon: a TCP accept loop, per-connection reader threads, and a
//! fixed pool of worker threads that own the tenants.
//!
//! Tenants are pinned to a worker by name hash, so each tenant's session
//! (and, for warm policies, its resident simplex basis) lives on one
//! thread for its whole life — the per-worker tenant map *is* that
//! worker's warm-context pool. Connection threads only parse and route:
//! every state-touching op is forwarded over an mpsc channel to the
//! owning worker, which writes the response (and any push frames) back
//! through the connection's shared write half.
//!
//! Shutdown (a `Shutdown` op, SIGINT/SIGTERM via
//! [`install_signal_handlers`], or the handle returned by
//! [`Server::shutdown_handle`]) is graceful: the accept loop stops, each
//! worker finishes its queued ops — in-flight epochs always complete —
//! then checkpoints every tenant it owns and acknowledges, and `run`
//! returns `Ok(())`.

use crate::proto::{frame_into, Op, Request, RespBody, Response, FRAME_BUF, PROTOCOL_VERSION};
use crate::tenant::{restore_all, valid_tenant_name, ConnHandle, Tenant};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Daemon settings.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker-thread count (tenants shard across these).
    pub workers: usize,
    /// Where tenant checkpoints live. `None` disables persistence; with
    /// a directory set, existing checkpoints are restored on bind and
    /// every tenant is checkpointed on graceful shutdown.
    pub checkpoint_dir: Option<PathBuf>,
    /// Auto-checkpoint a tenant every this many executed epochs
    /// (0 = only on demand and at shutdown).
    pub checkpoint_every: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            checkpoint_dir: None,
            checkpoint_every: 0,
        }
    }
}

/// Set by the process signal handlers; observed by every running server.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Installs SIGINT/SIGTERM handlers that ask every [`Server::run`] loop
/// in the process to drain and exit. No-op off Unix.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_sig: i32) {
            SIGNALLED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        unsafe {
            signal(2, on_signal as *const () as usize); // SIGINT
            signal(15, on_signal as *const () as usize); // SIGTERM
        }
    }
}

/// State shared between the accept loop, connection threads, and workers.
struct Shared {
    /// tenant name → owning worker index.
    registry: Mutex<BTreeMap<String, usize>>,
    shutdown: Arc<AtomicBool>,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: usize,
    workers: usize,
}

fn pin(tenant: &str, workers: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    tenant.hash(&mut h);
    (h.finish() % workers as u64) as usize
}

/// Serialises `value` into `buf` (the calling thread's, reused), then takes
/// the connection lock only to write the bytes.
fn send_frame<T: Serialize>(conn: &ConnHandle, buf: &mut String, value: &T) {
    buf.clear();
    frame_into(value, buf);
    if let Ok(mut stream) = conn.lock() {
        let _ = stream.write_all(buf.as_bytes());
    }
}

enum WorkerMsg {
    Op { id: u64, op: Op, conn: ConnHandle },
    Drain { ack: Sender<()> },
}

struct Worker {
    shared: Arc<Shared>,
    tenants: HashMap<String, Tenant>,
}

impl Worker {
    fn run(mut self, rx: mpsc::Receiver<WorkerMsg>) {
        let mut out = String::new();
        while let Ok(msg) = rx.recv() {
            match msg {
                WorkerMsg::Op { id, op, conn } => {
                    let resp = self.handle(id, op, &conn);
                    send_frame(&conn, &mut out, &resp);
                }
                WorkerMsg::Drain { ack } => {
                    self.drain();
                    let _ = ack.send(());
                    return;
                }
            }
        }
    }

    fn handle(&mut self, id: u64, op: Op, conn: &ConnHandle) -> Response {
        match op {
            Op::CreateTenant { tenant, spec } => match Tenant::new(&tenant, spec) {
                Ok(t) => {
                    self.tenants.insert(tenant.clone(), t);
                    Response::ok(id, RespBody::Created { tenant })
                }
                Err(e) => {
                    // Undo the router's optimistic registry insert.
                    self.shared
                        .registry
                        .lock()
                        .expect("registry lock")
                        .remove(&tenant);
                    Response::err(id, e)
                }
            },
            Op::Submit { tenant, jobs } => self.with(id, &tenant.clone(), move |t| {
                t.submit(&jobs)
                    .map(|admitted| RespBody::Accepted { tenant, admitted })
            }),
            Op::Fault { tenant, event } => self.with(id, &tenant.clone(), move |t| {
                t.fault(event).map(|()| RespBody::Accepted {
                    tenant,
                    admitted: 1,
                })
            }),
            Op::Advance { tenant, epochs } => {
                let resp = self.with(id, &tenant.clone(), move |t| {
                    t.advance(epochs).map(|(epoch, done)| RespBody::Advanced {
                        tenant,
                        epoch,
                        done,
                    })
                });
                self.maybe_checkpoint(resp)
            }
            Op::Run { tenant } => {
                let resp = self.with(id, &tenant.clone(), move |t| {
                    t.run_to_end().map(|(epoch, done)| RespBody::Advanced {
                        tenant,
                        epoch,
                        done,
                    })
                });
                self.maybe_checkpoint(resp)
            }
            Op::Query { tenant } => self.with(id, &tenant.clone(), move |t| {
                Ok(RespBody::Report {
                    tenant,
                    report: Box::new(t.query()),
                })
            }),
            Op::Subscribe { tenant } => {
                let handle = conn.clone();
                self.with(id, &tenant.clone(), move |t| {
                    t.subscribe(handle);
                    Ok(RespBody::Subscribed { tenant })
                })
            }
            Op::Checkpoint { tenant } => {
                let dir = self.shared.checkpoint_dir.clone();
                self.with(id, &tenant.clone(), move |t| {
                    let dir = dir.ok_or("no checkpoint directory configured")?;
                    t.checkpoint(&dir).map(|path| RespBody::Checkpointed {
                        tenant,
                        path: path.display().to_string(),
                    })
                })
            }
            // Daemon-wide ops are answered by the router, not forwarded.
            Op::Hello | Op::ListTenants | Op::Shutdown => {
                Response::err(id, "op is not tenant-scoped")
            }
        }
    }

    fn with<F>(&mut self, id: u64, tenant: &str, f: F) -> Response
    where
        F: FnOnce(&mut Tenant) -> Result<RespBody, String>,
    {
        match self.tenants.get_mut(tenant) {
            Some(t) => match f(t) {
                Ok(body) => Response::ok(id, body),
                Err(e) => Response::err(id, e),
            },
            None => Response::err(id, format!("unknown tenant `{tenant}`")),
        }
    }

    /// Periodic persistence: after a successful Advance/Run, checkpoint
    /// the tenant if it has executed enough epochs since the last one.
    fn maybe_checkpoint(&mut self, resp: Response) -> Response {
        let (Some(dir), true) = (
            &self.shared.checkpoint_dir,
            self.shared.checkpoint_every > 0,
        ) else {
            return resp;
        };
        if let Some(RespBody::Advanced { tenant, .. }) = &resp.body {
            if let Some(t) = self.tenants.get_mut(tenant) {
                if t.epochs_since_checkpoint >= self.shared.checkpoint_every {
                    if let Err(e) = t.checkpoint(dir) {
                        eprintln!("dls-service: periodic checkpoint of `{tenant}` failed: {e}");
                    }
                }
            }
        }
        resp
    }

    fn drain(&mut self) {
        let Some(dir) = self.shared.checkpoint_dir.clone() else {
            return;
        };
        for t in self.tenants.values_mut() {
            if let Err(e) = t.checkpoint(&dir) {
                eprintln!(
                    "dls-service: shutdown checkpoint of `{}` failed: {e}",
                    t.name
                );
            }
        }
    }
}

/// A bound (but not yet running) daemon. [`Server::bind`] restores any
/// checkpointed tenants; [`Server::run`] serves until shutdown.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    initial: Vec<HashMap<String, Tenant>>,
}

impl Server {
    /// Binds the listen socket and restores checkpointed tenants from
    /// `cfg.checkpoint_dir` (each pinned to its worker by name hash, so
    /// a restart reproduces the same sharding).
    pub fn bind(cfg: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            registry: Mutex::new(BTreeMap::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
            checkpoint_dir: cfg.checkpoint_dir,
            checkpoint_every: cfg.checkpoint_every,
            workers,
        });
        let mut initial: Vec<HashMap<String, Tenant>> =
            (0..workers).map(|_| HashMap::new()).collect();
        if let Some(dir) = &shared.checkpoint_dir {
            let mut registry = shared.registry.lock().expect("registry lock");
            for t in restore_all(dir) {
                let w = pin(&t.name, workers);
                registry.insert(t.name.clone(), w);
                initial[w].insert(t.name.clone(), t);
            }
        }
        Ok(Server {
            listener,
            shared,
            initial,
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Tenants restored from checkpoints at bind time.
    pub fn restored_tenants(&self) -> usize {
        self.initial.iter().map(HashMap::len).sum()
    }

    /// A flag that asks the running server to drain and exit (the
    /// in-process equivalent of SIGTERM).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        self.shared.shutdown.clone()
    }

    fn stopping(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst) || SIGNALLED.load(Ordering::SeqCst)
    }

    /// Serves until shutdown, then drains: stops accepting, lets every
    /// worker finish its queued ops, checkpoints all tenants, and
    /// returns `Ok(())`.
    pub fn run(mut self) -> std::io::Result<()> {
        let mut senders: Vec<Sender<WorkerMsg>> = Vec::new();
        let mut handles = Vec::new();
        for tenants in self.initial.drain(..) {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            let worker = Worker {
                shared: self.shared.clone(),
                tenants,
            };
            handles.push(
                thread::Builder::new()
                    .name("dls-service-worker".into())
                    .spawn(move || worker.run(rx))
                    .expect("spawn worker"),
            );
        }

        while !self.stopping() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false)?;
                    // A subscribed connection gets a push frame and then
                    // the response: without this the second small write
                    // waits out the peer's delayed ACK (≈ 40 ms).
                    stream.set_nodelay(true).ok();
                    let shared = self.shared.clone();
                    let senders = senders.clone();
                    thread::Builder::new()
                        .name("dls-service-conn".into())
                        .spawn(move || serve_connection(stream, shared, senders))
                        .expect("spawn connection thread");
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(20));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Graceful drain: queued ops (FIFO ahead of the drain marker)
        // finish first, then every worker checkpoints its tenants.
        let mut acks = Vec::new();
        for tx in &senders {
            let (ack_tx, ack_rx) = mpsc::channel();
            if tx.send(WorkerMsg::Drain { ack: ack_tx }).is_ok() {
                acks.push(ack_rx);
            }
        }
        for ack in acks {
            let _ = ack.recv();
        }
        drop(senders);
        for h in handles {
            let _ = h.join();
        }
        Ok(())
    }
}

/// One connection's reader loop: parse frames, answer daemon-wide ops
/// in place, forward tenant ops to the owning worker.
fn serve_connection(stream: TcpStream, shared: Arc<Shared>, senders: Vec<Sender<WorkerMsg>>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn: ConnHandle = Arc::new(Mutex::new(write_half));
    let mut reader = BufReader::with_capacity(FRAME_BUF, stream);
    let mut line = String::with_capacity(FRAME_BUF);
    let mut out = String::new();
    let mut reply = |resp: Response| send_frame(&conn, &mut out, &resp);
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return, // client closed
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        let req: Request = match serde_json::from_str(text) {
            Ok(r) => r,
            Err(e) => {
                reply(Response::err(0, format!("unparseable frame: {e}")));
                continue;
            }
        };
        let Request { id, op } = req;
        match &op {
            Op::Hello => reply(Response::ok(
                id,
                RespBody::Hello {
                    protocol: PROTOCOL_VERSION,
                },
            )),
            Op::ListTenants => {
                let tenants: Vec<String> = shared
                    .registry
                    .lock()
                    .expect("registry lock")
                    .keys()
                    .cloned()
                    .collect();
                reply(Response::ok(id, RespBody::Tenants { tenants }));
            }
            Op::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                reply(Response::ok(id, RespBody::ShuttingDown));
            }
            _ => {
                let tenant = op.tenant().expect("tenant-scoped op");
                let worker = if matches!(op, Op::CreateTenant { .. }) {
                    if !valid_tenant_name(tenant) {
                        reply(Response::err(
                            id,
                            format!(
                                "invalid tenant name `{tenant}` \
                                 (want [A-Za-z0-9_-], 1..=64 chars)"
                            ),
                        ));
                        continue;
                    }
                    let mut registry = shared.registry.lock().expect("registry lock");
                    if registry.contains_key(tenant) {
                        drop(registry);
                        reply(Response::err(
                            id,
                            format!("tenant `{tenant}` already exists"),
                        ));
                        continue;
                    }
                    let w = pin(tenant, shared.workers);
                    registry.insert(tenant.to_string(), w);
                    w
                } else {
                    match shared.registry.lock().expect("registry lock").get(tenant) {
                        Some(&w) => w,
                        None => {
                            reply(Response::err(id, format!("unknown tenant `{tenant}`")));
                            continue;
                        }
                    }
                };
                if senders[worker]
                    .send(WorkerMsg::Op {
                        id,
                        op,
                        conn: conn.clone(),
                    })
                    .is_err()
                {
                    reply(Response::err(id, "daemon is shutting down"));
                }
            }
        }
    }
}
