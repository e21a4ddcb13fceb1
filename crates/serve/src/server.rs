//! The service itself: a `std::net` TCP listener, a bounded admission
//! queue, a pool of worker threads, and graceful drain.
//!
//! ## Lifecycle
//!
//! [`Server::start`] binds the listener, spawns the accept thread and
//! `workers` connection handlers, and returns a [`ServerHandle`]. The
//! accept thread runs non-blocking with a short poll so it can observe
//! the shutdown flag; workers block on a condvar over the admission
//! queue. A `shutdown` request (or [`ServerHandle::shutdown`]) flips the
//! state to *draining*: the listener stops accepting, queued and
//! in-flight connections finish their current request, idle connections
//! are closed, and [`ServerHandle::join`] returns once every thread has
//! exited.
//!
//! ## Backpressure
//!
//! Admission is bounded: a new connection is accepted into the queue
//! only while `queued < queue_cap + idle_workers` — i.e. the queue may
//! hold `queue_cap` connections beyond what the pool can start
//! immediately. Beyond that the connection is answered with a single
//! `overloaded` error frame and closed, which keeps the server's memory
//! and latency bounded no matter how many clients arrive.

use crate::engine::Engine;
use crate::frame::{
    is_idle_timeout, read_frame, write_frame, FrameError, KIND_ERR, KIND_OK, KIND_REQ,
};
use crate::metrics::ServerMetrics;
use crate::request::{parse_request, ErrorCode, Request, ServeError};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use uic_graph::Graph;

const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;

/// How often blocked threads re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(20);
/// Read timeout on accepted connections: the cadence at which a worker
/// parked on an idle connection notices draining.
const READ_TIMEOUT: Duration = Duration::from_millis(250);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker (connection-handler) threads.
    pub workers: usize,
    /// Connections the admission queue may hold beyond idle workers.
    pub queue_cap: usize,
    /// Deadline applied to solve requests that carry none themselves.
    pub default_deadline_ms: Option<u64>,
    /// Resident warm-arena byte cap (LRU eviction); `None` = unbounded.
    pub arena_budget_bytes: Option<usize>,
    /// Warm-state spill file (crash recovery); `None` disables both the
    /// periodic spill and the warm reload at startup.
    pub spill_path: Option<PathBuf>,
    /// How often the spill thread persists changed warm state.
    pub spill_interval_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 64,
            default_deadline_ms: None,
            arena_budget_bytes: None,
            spill_path: None,
            spill_interval_ms: 1000,
        }
    }
}

struct Queue {
    conns: VecDeque<TcpStream>,
    /// Workers not attached to a connection. Counted from spawn, so the
    /// pool admits connections before a worker first parks.
    idle_workers: usize,
}

struct Shared {
    engine: Engine,
    /// The engine's registry, shared so arena bookkeeping (eviction,
    /// lock waits) and request accounting land in one dump.
    metrics: Arc<ServerMetrics>,
    state: AtomicU8,
    queue: Mutex<Queue>,
    cv: Condvar,
    default_deadline_ms: Option<u64>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.state.load(Ordering::Acquire) != STATE_RUNNING
    }

    fn start_drain(&self) {
        self.state.store(STATE_DRAINING, Ordering::Release);
        self.cv.notify_all();
    }
}

/// The running service. Construct with [`Server::start`].
pub struct Server;

/// Handle to a started server: address, metrics, shutdown, join.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr`, spawns the accept thread and worker pool, and
    /// returns the handle. The graph is resident for the server's
    /// lifetime; warm arenas grow inside the engine on demand.
    pub fn start(graph: Arc<Graph>, cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let engine = Engine::with_limits(graph, cfg.arena_budget_bytes);
        // Warm reload: a readable, checksummed spill restores the
        // arenas; any defect (missing, torn, corrupt, foreign graph)
        // means a cold start — never a refusal to serve.
        if let Some(path) = &cfg.spill_path {
            match crate::spill::load(&engine, path) {
                Ok(n) if n > 0 => eprintln!("uic-serve: restored {n} warm arena(s) from spill"),
                Ok(_) => {}
                Err(e) => eprintln!("uic-serve: starting cold ({e})"),
            }
        }
        let metrics = Arc::clone(engine.metrics());
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            engine,
            metrics,
            state: AtomicU8::new(STATE_RUNNING),
            queue: Mutex::new(Queue {
                conns: VecDeque::new(),
                idle_workers: workers,
            }),
            cv: Condvar::new(),
            default_deadline_ms: cfg.default_deadline_ms,
        });
        let mut threads = Vec::with_capacity(workers + 2);
        {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("uic-serve-accept".into())
                    .spawn(move || accept_loop(listener, &shared, cfg.queue_cap))?,
            );
        }
        for i in 0..workers {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("uic-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        if let Some(path) = cfg.spill_path.clone() {
            let shared = shared.clone();
            let interval = Duration::from_millis(cfg.spill_interval_ms.max(10));
            threads.push(
                std::thread::Builder::new()
                    .name("uic-serve-spill".into())
                    .spawn(move || spill_loop(&shared, &path, interval))?,
            );
        }
        Ok(ServerHandle {
            addr,
            shared,
            threads,
        })
    }
}

impl ServerHandle {
    /// The bound address (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine (shared with the workers) — lets embedders run
    /// offline reference solves against the very same resident state.
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// A point-in-time metrics dump (same JSON as the `metrics` verb).
    pub fn metrics_json(&self) -> String {
        self.shared.metrics.to_json()
    }

    /// True once a drain has started (via [`Self::shutdown`] or a
    /// client's `shutdown` request).
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// Starts a graceful drain: stop accepting, finish in-flight work.
    pub fn shutdown(&self) {
        self.shared.start_drain();
    }

    /// Waits for every server thread to exit. Returns the final metrics
    /// dump. Call [`Self::shutdown`] first (or let a client send
    /// `shutdown`), otherwise this blocks for the server's lifetime.
    pub fn join(self) -> String {
        for t in self.threads {
            let _ = t.join();
        }
        self.shared.metrics.to_json()
    }
}

/// Periodically persists warm state whenever the resident set count has
/// changed, and takes one final spill when the server drains — so a
/// clean restart (and any crash after the last interval) reloads warm.
fn spill_loop(shared: &Shared, path: &std::path::Path, interval: Duration) {
    let mut last_spill = Instant::now();
    let mut spilled_sets: Option<u64> = None;
    loop {
        if shared.draining() {
            if let Err(e) = crate::spill::save(&shared.engine, path) {
                eprintln!("uic-serve: final spill failed: {e}");
            }
            return;
        }
        if last_spill.elapsed() >= interval {
            let sets = shared.engine.arena_sets_total();
            if spilled_sets != Some(sets) {
                match crate::spill::save(&shared.engine, path) {
                    Ok(_) => spilled_sets = Some(sets),
                    Err(e) => eprintln!("uic-serve: spill failed: {e}"),
                }
            }
            last_spill = Instant::now();
        }
        std::thread::sleep(POLL);
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared, queue_cap: usize) {
    loop {
        if shared.draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => admit(stream, shared, queue_cap),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

fn admit(mut stream: TcpStream, shared: &Shared, queue_cap: usize) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    let refusal = {
        let mut q = shared.queue.lock().expect("admission queue lock");
        if shared.draining() {
            Some(ServeError::new(
                ErrorCode::ShuttingDown,
                "server is draining; not accepting new connections",
            ))
        } else if q.conns.len() < queue_cap + q.idle_workers {
            q.conns.push_back(stream);
            shared.cv.notify_one();
            return;
        } else {
            shared.metrics.overloaded_total.inc();
            shared.metrics.err_total.inc();
            Some(ServeError::new(
                ErrorCode::Overloaded,
                format!(
                    "admission queue full ({} queued, {} idle workers)",
                    q.conns.len(),
                    q.idle_workers
                ),
            ))
        }
    };
    if let Some(err) = refusal {
        // The stream was not queued; answer with one error frame and
        // close. Best-effort: the refused peer may already be gone.
        let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
        let _ = write_frame(&mut stream, KIND_ERR, err.to_json().as_bytes());
    }
}

/// Serves queued connections until the drain empties the queue. The
/// worker starts out counted idle (see [`Server::start`]) and counts
/// itself idle again after each connection it finishes.
fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut q = shared.queue.lock().expect("admission queue lock");
            let stream = loop {
                if let Some(s) = q.conns.pop_front() {
                    break Some(s);
                }
                if shared.draining() {
                    break None;
                }
                let (guard, _timeout) = shared
                    .cv
                    .wait_timeout(q, POLL * 5)
                    .expect("admission queue lock");
                q = guard;
            };
            q.idle_workers -= 1;
            stream
        };
        match stream {
            Some(s) => handle_connection(s, shared),
            // Draining and nothing queued: this worker is done.
            None => return,
        }
        shared
            .queue
            .lock()
            .expect("admission queue lock")
            .idle_workers += 1;
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(f)) => f,
            // Clean close at a frame boundary.
            Ok(None) => return,
            Err(ref e) if is_idle_timeout(e) => {
                // Idle connection; close it once the server drains so
                // the worker can exit.
                if shared.draining() {
                    return;
                }
                continue;
            }
            Err(e @ (FrameError::TooLarge(_) | FrameError::BadKind(_))) => {
                // The stream may be desynchronized past this point;
                // answer once and close.
                shared.metrics.requests_total.inc();
                send_error(
                    &mut stream,
                    shared,
                    &ServeError::new(ErrorCode::BadFrame, e.to_string()),
                );
                return;
            }
            Err(FrameError::Io(_)) => return,
        };
        shared.metrics.requests_total.inc();
        if frame.kind != KIND_REQ {
            send_error(
                &mut stream,
                shared,
                &ServeError::new(
                    ErrorCode::BadFrame,
                    format!(
                        "clients must send request frames (kind {KIND_REQ}), got {}",
                        frame.kind
                    ),
                ),
            );
            return;
        }
        let request = match parse_request(&frame.payload) {
            Ok(r) => r,
            Err(err) => {
                if !send_error(&mut stream, shared, &err) {
                    return;
                }
                continue;
            }
        };
        match request {
            Request::Ping => {
                if write_frame(&mut stream, KIND_OK, b"{\"pong\":true}").is_err() {
                    return;
                }
            }
            Request::Metrics => {
                if write_frame(&mut stream, KIND_OK, shared.metrics.to_json().as_bytes()).is_err() {
                    return;
                }
            }
            Request::Shutdown => {
                shared.start_drain();
                let _ = write_frame(&mut stream, KIND_OK, b"{\"draining\":true}");
                return;
            }
            Request::Solve(req) => {
                if shared.draining() {
                    send_error(
                        &mut stream,
                        shared,
                        &ServeError::new(
                            ErrorCode::ShuttingDown,
                            "server is draining; solve refused",
                        ),
                    );
                    return;
                }
                let t0 = Instant::now();
                let deadline_ms = req.deadline_ms.or(shared.default_deadline_ms);
                let deadline = deadline_ms.map(|ms| t0 + Duration::from_millis(ms));
                // The engine's contract is typed errors, never panics;
                // catch_unwind backstops that contract so one bad
                // request can at worst poison its own arena, not the
                // whole worker.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // Chaos hook at the dispatch boundary: a `panic`
                    // rule exercises the catch_unwind containment, a
                    // `delay` rule simulates a slow solver.
                    uic_util::fail_point!("serve.dispatch");
                    shared.engine.solve(&req, deadline)
                }))
                .unwrap_or_else(|_| {
                    Err(ServeError::new(
                        ErrorCode::Internal,
                        "solver panicked; see server log",
                    ))
                });
                match outcome {
                    Ok(out) => {
                        shared.metrics.ok_total.inc();
                        shared.metrics.rr_topup_total.add(out.rr_topup);
                        shared
                            .metrics
                            .solve_latency_us
                            .record(t0.elapsed().as_micros() as u64);
                        shared.metrics.selection_us.record(out.selection_us);
                        shared.metrics.topup_us.record(out.topup_us);
                        shared.metrics.scoring_us.record(out.scoring_us);
                        let mut w = uic_util::JsonWriter::new();
                        w.begin_object();
                        w.key("result");
                        w.raw(&out.result_json);
                        w.key("server");
                        w.begin_object();
                        w.key("elapsed_us");
                        w.u64(t0.elapsed().as_micros() as u64);
                        w.key("selection_us");
                        w.u64(out.selection_us);
                        w.key("topup_us");
                        w.u64(out.topup_us);
                        w.key("scoring_us");
                        w.u64(out.scoring_us);
                        w.key("rr_topup");
                        w.u64(out.rr_topup);
                        w.key("arena_sets");
                        w.u64(out.arena_sets);
                        w.end_object();
                        w.end_object();
                        if write_frame(&mut stream, KIND_OK, w.finish().as_bytes()).is_err() {
                            return;
                        }
                    }
                    Err(err) => {
                        if !send_error(&mut stream, shared, &err) {
                            return;
                        }
                    }
                }
            }
        }
    }
}

/// Writes one error frame. Returns false when the write itself failed —
/// the peer may be desynchronized, so the caller must close the
/// connection rather than serve further frames on it.
fn send_error(stream: &mut TcpStream, shared: &Shared, err: &ServeError) -> bool {
    shared.metrics.err_total.inc();
    match err.code {
        ErrorCode::Deadline => shared.metrics.deadline_total.inc(),
        ErrorCode::BadFrame => shared.metrics.bad_frame_total.inc(),
        _ => {}
    }
    write_frame(stream, KIND_ERR, err.to_json().as_bytes()).is_ok()
}
