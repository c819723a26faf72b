//! The daemon's shell: a TCP accept loop, per-connection reader threads,
//! and a fixed pool of worker threads, each owning one [`Core`].
//!
//! Every tenant-scoped op — create included — goes to the worker [`pin`]
//! names, whose core executes it ([`Core::apply`]: name, duplicate and
//! unknown-tenant checks, the op, the periodic checkpoint) and hands back
//! the response for the worker to write. So each tenant's session (and,
//! for warm policies, its resident simplex basis) lives on one thread for
//! its whole life — the core's tenant map *is* that worker's warm-context
//! pool. Connection threads only parse and route: they answer `Hello`
//! and `Shutdown` themselves, and `ListTenants` asks every worker for its
//! names (behind that worker's queued ops) and merges them sorted.
//!
//! Shutdown (a `Shutdown` op, SIGINT/SIGTERM via
//! [`install_signal_handlers`], or the handle returned by
//! [`Server::shutdown_handle`]) is graceful: the accept loop stops, each
//! worker finishes its queued ops — in-flight epochs always complete —
//! then checkpoints every tenant it owns and exits, and `run` returns
//! `Ok(())`.

use crate::proto::{frame_into, Op, Request, RespBody, Response, FRAME_BUF, PROTOCOL_VERSION};
use crate::tenant::{restore_all, ConnHandle, Core};
use serde::Serialize;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
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

/// The longest request line the daemon reads, newline included: far above
/// any request a client builds (a `Submit` job is ≈ 70 bytes). A longer
/// line is refused and its connection closed.
pub const MAX_FRAME: u64 = 16 << 20;

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

/// The worker a tenant lives on: its name's hash, modulo the pool size.
/// Every op on the tenant, its create and its restore included, goes there.
pub fn pin(tenant: &str, workers: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    tenant.hash(&mut h);
    (h.finish() % workers as u64) as usize
}

/// Serialises `value` into `buf` (the calling thread's, reused), then takes
/// the connection lock only to write the bytes.
fn send_frame<T: Serialize>(conn: &ConnHandle, buf: &mut String, value: &T) {
    buf.clear();
    frame_into(value, buf);
    if let Ok(mut sink) = conn.lock() {
        let _ = sink.write_all(buf.as_bytes());
    }
}

enum WorkerMsg {
    Op { req: Request, conn: ConnHandle },
    Names { reply: Sender<Vec<String>> },
    Drain,
}

/// A worker thread: applies its queue to its core in order and writes each
/// response; on `Drain` it checkpoints every tenant and exits.
fn work(mut core: Core, rx: mpsc::Receiver<WorkerMsg>) {
    let mut out = String::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Op { req, conn } => {
                let resp = core.apply(&conn, req);
                send_frame(&conn, &mut out, &resp);
            }
            WorkerMsg::Names { reply } => {
                let _ = reply.send(core.names());
            }
            WorkerMsg::Drain => return core.drain(),
        }
    }
}

/// A bound (but not yet running) daemon. [`Server::bind`] restores any
/// checkpointed tenants; [`Server::run`] serves until shutdown.
pub struct Server {
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    cores: Vec<Core>,
}

impl Server {
    /// Binds the listen socket and restores checkpointed tenants from
    /// `cfg.checkpoint_dir` (each pinned to its worker by name hash, so
    /// a restart reproduces the same sharding).
    pub fn bind(cfg: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let workers = cfg.workers.max(1);
        let mut cores: Vec<Core> = (0..workers)
            .map(|_| Core::new(cfg.checkpoint_dir.clone(), cfg.checkpoint_every))
            .collect();
        if let Some(dir) = &cfg.checkpoint_dir {
            for t in restore_all(dir) {
                cores[pin(&t.name, workers)].adopt(t);
            }
        }
        Ok(Server {
            listener,
            shutdown: Arc::new(AtomicBool::new(false)),
            cores,
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Tenants restored from checkpoints at bind time.
    pub fn restored_tenants(&self) -> usize {
        self.cores.iter().map(|c| c.names().len()).sum()
    }

    /// A flag that asks the running server to drain and exit (the
    /// in-process equivalent of SIGTERM).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGNALLED.load(Ordering::SeqCst)
    }

    /// Serves until shutdown, then drains: stops accepting, lets every
    /// worker finish its queued ops, checkpoints all tenants, and
    /// returns `Ok(())`.
    pub fn run(mut self) -> std::io::Result<()> {
        let mut senders: Vec<Sender<WorkerMsg>> = Vec::new();
        let mut handles = Vec::new();
        for core in self.cores.drain(..) {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            handles.push(
                thread::Builder::new()
                    .name("dls-service-worker".into())
                    .spawn(move || work(core, rx))
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
                    let shutdown = self.shutdown.clone();
                    let senders = senders.clone();
                    thread::Builder::new()
                        .name("dls-service-conn".into())
                        .spawn(move || serve_connection(stream, shutdown, senders))
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
        // finish first, then every worker checkpoints its tenants and
        // exits.
        for tx in &senders {
            let _ = tx.send(WorkerMsg::Drain);
        }
        drop(senders);
        for h in handles {
            let _ = h.join();
        }
        Ok(())
    }
}

/// One connection's reader loop: parse frames, answer `Hello` and
/// `Shutdown` in place, fan `ListTenants` out to every worker, and forward
/// tenant ops to the worker [`pin`] names.
fn serve_connection(stream: TcpStream, shutdown: Arc<AtomicBool>, senders: Vec<Sender<WorkerMsg>>) {
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
        match (&mut reader).take(MAX_FRAME + 1).read_line(&mut line) {
            Ok(0) => return, // client closed
            Ok(n) if n as u64 > MAX_FRAME => {
                reply(Response::err(
                    0,
                    format!("unparseable frame: longer than {MAX_FRAME} bytes"),
                ));
                let _ = reader.get_ref().shutdown(Shutdown::Both);
                return;
            }
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
        let id = req.id;
        match &req.op {
            Op::Hello => reply(Response::ok(
                id,
                RespBody::Hello {
                    protocol: PROTOCOL_VERSION,
                },
            )),
            Op::ListTenants => {
                let (tx, rx) = mpsc::channel();
                for worker in &senders {
                    let reply = tx.clone();
                    let _ = worker.send(WorkerMsg::Names { reply });
                }
                drop(tx);
                let mut tenants: Vec<String> = rx.iter().flatten().collect();
                tenants.sort();
                reply(Response::ok(id, RespBody::Tenants { tenants }));
            }
            Op::Shutdown => {
                shutdown.store(true, Ordering::SeqCst);
                reply(Response::ok(id, RespBody::ShuttingDown));
            }
            op => {
                let worker = pin(op.tenant().expect("tenant-scoped op"), senders.len());
                let conn = conn.clone();
                if senders[worker].send(WorkerMsg::Op { req, conn }).is_err() {
                    reply(Response::err(id, "daemon is shutting down"));
                }
            }
        }
    }
}
