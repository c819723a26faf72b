//! The daemon's shell: a TCP accept loop and one thread per connection
//! over a fixed set of shards, each one [`Core`] behind its own mutex.
//!
//! A connection thread executes what it parses. It answers `Hello` and
//! `Shutdown` itself; a tenant-scoped op, create included, locks the shard
//! [`pin`] names, runs [`Core::apply`] and drops the guard before the
//! response is written. So a connection's requests execute and are answered
//! in the order sent, at most one op per shard runs at a time, and each
//! tenant (with a warm policy's resident basis) lives in one core for its
//! whole life. `ListTenants` locks the shards one at a time.
//!
//! Each connection keeps the last report frame it wrote, with the tenant's
//! [`Core::revision`] stamp it was built at. A `Query` that finds, under the
//! shard lock, the stamp unmoved is answered with those bytes behind its own
//! id: no report is built and nothing is encoded.
//!
//! Lock order: shard, then connection (push frames are written inside
//! `apply`). The shell never takes a shard lock while it holds a connection
//! lock, nor writes a response while it holds a shard guard.
//!
//! Shutdown (a `Shutdown` op, SIGINT/SIGTERM via [`install_signal_handlers`]
//! or [`Server::shutdown_handle`]) is graceful: the accept loop stops, and
//! each shard in turn finishes its in-flight op, is checkpointed and marked
//! drained (a later op is answered `daemon is shutting down`).

use crate::proto::{
    frame_into, split_id, Op, Request, RespBody, Response, FRAME_BUF, PROTOCOL_VERSION,
};
use crate::tenant::{restore_all, ConnHandle, Core};
use serde::Serialize;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, ErrorKind, Read};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

/// Daemon settings.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Shard count: at most this many tenant ops run at once (tenants
    /// shard across these by [`pin`]).
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

/// How often the shutdown watcher looks at the stop flags.
const STOP_POLL: Duration = Duration::from_millis(20);

/// Set by the process signal handlers; observed by every running server.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// The accept-queue length [`Server::bind`] asks for. `std`'s
/// `TcpListener::bind` listens with 128: a burst of more than 129 connects
/// overflows that queue, the kernel drops the extra SYNs, and each dropped
/// client waits out TCP's 1 s initial retransmission timeout. The kernel
/// clamps this to `net.core.somaxconn`.
#[cfg(unix)]
const BACKLOG: i32 = 4096;

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn listen(fd: i32, backlog: i32) -> i32;
}

/// Installs SIGINT/SIGTERM handlers that ask every [`Server::run`] loop
/// in the process to drain and exit. No-op off Unix.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_sig: i32) {
            SIGNALLED.store(true, Ordering::SeqCst);
        }
        unsafe {
            signal(2, on_signal as *const () as usize); // SIGINT
            signal(15, on_signal as *const () as usize); // SIGTERM
        }
    }
}

/// The shard a tenant lives in: its name's hash, modulo the shard count.
/// Every op on the tenant, its create and its restore included, goes there.
pub fn pin(tenant: &str, workers: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    tenant.hash(&mut h);
    (h.finish() % workers as u64) as usize
}

/// One shard: its core, or `None` once the drain has checkpointed it.
type Shard = Mutex<Option<Core>>;

/// Locks a shard (`Core::apply` catches panics, so none poisons it).
fn lock(shard: &Shard) -> std::sync::MutexGuard<'_, Option<Core>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serialises `value` into `buf` (the calling thread's, reused), then takes
/// the connection lock only to write the bytes.
fn send_frame<T: Serialize>(conn: &ConnHandle, buf: &mut String, value: &T) {
    buf.clear();
    frame_into(value, buf);
    send(conn, buf);
}

fn send(conn: &ConnHandle, frame: &str) {
    if let Ok(mut sink) = conn.lock() {
        let _ = sink.write_all(frame.as_bytes());
    }
}

/// The last report frame a connection wrote, keyed by its tenant and the
/// [`Core::revision`] stamp it was built at. The buffer is the connection's
/// previous output buffer, swapped in, so it is reused and never regrows.
#[derive(Default)]
struct ReportMemo {
    key: Option<(String, u64)>,
    frame: String,
    /// Where the bytes after `{"id":N` start in `frame`.
    tail: usize,
}

impl ReportMemo {
    fn holds(&self, tenant: &str, revision: u64) -> bool {
        self.key
            .as_ref()
            .is_some_and(|(t, r)| t == tenant && *r == revision)
    }

    /// Takes `out`, a fresh report frame of `tenant` at `revision`, leaving
    /// the previous memo buffer in its place.
    fn keep(&mut self, tenant: String, revision: u64, out: &mut String) {
        let Some((_, tail)) = split_id(out) else {
            return;
        };
        self.tail = out.len() - tail.len();
        self.key = Some((tenant, revision));
        std::mem::swap(&mut self.frame, out);
    }

    /// The memoised frame with `id` in front of it, built in `out`.
    fn frame_for(&self, id: u64, out: &mut String) {
        out.clear();
        out.push_str("{\"id\":");
        id.write_json(out);
        out.push_str(&self.frame[self.tail..]);
    }
}

fn stopping(shutdown: &AtomicBool) -> bool {
    shutdown.load(Ordering::SeqCst) || SIGNALLED.load(Ordering::SeqCst)
}

/// A bound (but not yet running) daemon. [`Server::bind`] restores any
/// checkpointed tenants; [`Server::run`] serves until shutdown.
pub struct Server {
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    cores: Vec<Core>,
}

impl Server {
    /// Binds the listen socket (on Unix with a `BACKLOG`-long accept
    /// queue, not `std`'s 128) and restores checkpointed tenants from
    /// `cfg.checkpoint_dir` (each pinned to its shard by name hash, so
    /// a restart reproduces the same sharding).
    pub fn bind(cfg: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        // Listening again on a listening socket only resizes its queue.
        #[cfg(unix)]
        if unsafe { listen(std::os::unix::io::AsRawFd::as_raw_fd(&listener), BACKLOG) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
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

    /// Serves until shutdown, then drains: stops accepting, checkpoints
    /// every shard's tenants once its in-flight op has finished, and
    /// returns `Ok(())`. An accept error is logged and retried after a
    /// pause; an error that stops `run` early still drains first.
    pub fn run(mut self) -> std::io::Result<()> {
        let shards: Arc<[Shard]> = self.cores.drain(..).map(|c| Mutex::new(Some(c))).collect();
        let served = self.serve(&shards);
        drop(self); // closes the listener
        for shard in shards.iter() {
            if let Some(mut core) = lock(shard).take() {
                core.drain();
            }
        }
        served
    }

    /// The accept loop: blocks in `accept` and gives each connection its own
    /// thread. A watcher thread polls the stop flags and, once one is set,
    /// wakes the blocked `accept` by connecting to the listener itself.
    fn serve(&self, shards: &Arc<[Shard]>) -> std::io::Result<()> {
        let mut wake = self.listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let (shutdown, exited) = (self.shutdown.clone(), Arc::new(AtomicBool::new(false)));
        let watching = exited.clone();
        let watcher = thread::Builder::new()
            .name("dls-service-watch".into())
            .spawn(move || {
                while !watching.load(Ordering::SeqCst) {
                    if stopping(&shutdown) {
                        let _ = TcpStream::connect_timeout(&wake, STOP_POLL);
                    }
                    thread::sleep(STOP_POLL);
                }
            })?;

        while !stopping(&self.shutdown) {
            match self.listener.accept() {
                Ok(_) if stopping(&self.shutdown) => break,
                Ok((stream, _peer)) => {
                    // A subscribed connection gets a push frame and then the
                    // response: without this the second small write waits
                    // out the peer's delayed ACK (≈ 40 ms).
                    stream.set_nodelay(true).ok();
                    let (shutdown, shards) = (self.shutdown.clone(), shards.clone());
                    let spawned = thread::Builder::new()
                        .name("dls-service-conn".into())
                        .spawn(move || serve_connection(stream, &shutdown, &shards));
                    // A failed spawn drops the stream: only that connection closes.
                    if let Err(e) = spawned {
                        eprintln!("dls-service: cannot start a connection thread: {e}");
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    // E.g. out of file descriptors: wait for some to close.
                    eprintln!("dls-service: accept failed: {e}; retrying");
                    thread::sleep(Duration::from_millis(100));
                }
            }
        }
        exited.store(true, Ordering::SeqCst);
        let _ = watcher.join();
        Ok(())
    }
}

/// One connection's loop: parse a frame, execute it, answer it, in order.
/// `Hello` and `Shutdown` are answered in place, `ListTenants` from every
/// shard, and a tenant op by the shard [`pin`] names.
fn serve_connection(stream: TcpStream, shutdown: &AtomicBool, shards: &[Shard]) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn: ConnHandle = Arc::new(Mutex::new(write_half));
    let mut reader = BufReader::with_capacity(FRAME_BUF, stream);
    let mut line = String::with_capacity(FRAME_BUF);
    let mut out = String::new();
    let mut memo = ReportMemo::default();
    loop {
        line.clear();
        match (&mut reader).take(MAX_FRAME + 1).read_line(&mut line) {
            Ok(0) => return, // client closed
            Ok(n) if n as u64 > MAX_FRAME => {
                let error = format!("unparseable frame: longer than {MAX_FRAME} bytes");
                send_frame(&conn, &mut out, &Response::err(0, error));
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
                let error = format!("unparseable frame: {e}");
                send_frame(&conn, &mut out, &Response::err(0, error));
                continue;
            }
        };
        let id = req.id;
        // The tenant and revision of a fresh report, for the memo.
        let mut fresh = None;
        // Every arm returns with no shard lock held.
        let resp = match &req.op {
            Op::Hello => Response::ok(
                id,
                RespBody::Hello {
                    protocol: PROTOCOL_VERSION,
                },
            ),
            Op::ListTenants => {
                // A drained shard (`None`) lists nothing.
                let per_shard = shards.iter().map(|s| lock(s).as_ref().map(Core::names));
                let mut tenants: Vec<String> = per_shard.flatten().flatten().collect();
                tenants.sort();
                Response::ok(id, RespBody::Tenants { tenants })
            }
            Op::Shutdown => {
                shutdown.store(true, Ordering::SeqCst);
                Response::ok(id, RespBody::ShuttingDown)
            }
            // A tenant op (`Core::apply` refuses one that names none).
            op => {
                let tenant = op.tenant().unwrap_or_default();
                let mut shard = lock(&shards[pin(tenant, shards.len())]);
                match shard.as_mut() {
                    Some(core) => {
                        // Only a `Query` reads and fills the memo.
                        let revision = match op {
                            Op::Query { .. } => core.revision(tenant),
                            _ => None,
                        };
                        if revision.is_some_and(|r| memo.holds(tenant, r)) {
                            drop(shard);
                            memo.frame_for(id, &mut out);
                            send(&conn, &out);
                            continue;
                        }
                        let key = revision.map(|r| (tenant.to_string(), r));
                        let resp = core.apply(&conn, req);
                        // A `Query` does not move the stamp; one that
                        // panicked answers `ok: false`.
                        fresh = key.filter(|_| resp.ok);
                        resp
                    }
                    None => Response::err(id, "daemon is shutting down"),
                }
            }
        };
        send_frame(&conn, &mut out, &resp);
        if let Some((tenant, revision)) = fresh {
            memo.keep(tenant, revision, &mut out);
        }
    }
}
