//! The evaluation server: a bounded admission queue feeding a fixed
//! worker pool, with keep-alive connections, per-request deadlines and
//! graceful drain.
//!
//! # Threading model
//!
//! `Server::run` launches one *event loop* plus `workers` evaluation
//! workers as jobs on `diffy_core::parallel::run_jobs` — the same
//! scoped-thread pool the sweeps use, here with one long-lived loop per
//! slot. The event loop blocks on an epoll [`Poller`] that owns the
//! listener and every parked keep-alive socket: it accepts and enqueues
//! new connections when the listener is ready, and moves a parked
//! connection to the queue the moment its next request's first byte
//! arrives — no accept polling, no per-socket sweeps. Workers block on
//! the queue's condvar and drain it until shutdown; every connection a
//! worker dequeues is read-ready (or imminently so). There is no
//! per-request thread spawn and no unbounded buffering anywhere: memory
//! and concurrency are fixed at startup (batch fan-out draws on a fixed
//! server-wide permit pool).
//!
//! # Keep-alive
//!
//! Connections persist across requests (HTTP/1.1 default; `Connection`
//! headers are honored per version). A worker serves exactly **one**
//! request; a connection with a pipelined next request already buffered
//! is *re-enqueued* through the same bounded queue new connections use —
//! a chatty client waits its turn behind everyone else instead of
//! monopolizing a worker. A connection with no request bytes yet is
//! *parked* in a separate bounded lot, outside the admission queue: the
//! worker makes the socket non-blocking, hands it to the event loop
//! (via the lot inbox plus a poller wake), and the event loop registers
//! it with epoll. From then on the connection costs nothing until its
//! readiness event fires — ten thousand idle clients hold zero worker
//! threads and generate zero periodic syscalls (asserted in
//! `tests/serve_epoll.rs`). The event loop closes a parked connection
//! once its idle window (`idle_timeout_ms`) passes, and every
//! connection is closed after `max_requests_per_conn` responses.
//!
//! # Backpressure
//!
//! The queue holds at most `queue_depth` pending connections. When it is
//! full the acceptor answers `503 {"error":"queue full"}` immediately —
//! load sheds at the front door instead of growing latency without bound.
//!
//! # Deadlines
//!
//! Each request carries a deadline (its `deadline_ms`, clamped to the
//! server's `--deadline-ms`), measured from its *anchor* — accept for a
//! connection's first request, arrival of the next request for reused
//! connections — so queue wait counts against it. Workers check it
//! before and after evaluation and answer `504` the moment it has
//! passed; a request that expired while queued is never evaluated at
//! all. The socket read budget is the deadline remaining, re-armed
//! before *every* read: a slow-loris peer is cut off when the request
//! budget runs out whether it stays silent or trickles bytes just under
//! each read timeout. Lingering closes carry a wall-clock budget too, so
//! a trickling peer cannot hold a thread in the drain loop either.
//!
//! # Request frame
//!
//! Every traced route — `POST /evaluate`, `POST /evaluate/batch`, `POST
//! /session`, `POST /session/{id}/frame` and `DELETE /session/{id}` —
//! goes through one frame, `serve`: the `request` trace span tagged
//! with the route's `kind`, the queue wait, one panic fence around the
//! whole route, the response write and the latency sample. A request
//! records at most five stages ([`Stage`]), each as one span and one
//! `/metrics` histogram sample: `queue_wait`, `parse` (dequeue to the end
//! of the body decode), `evaluate`, `serialize` and `write`. `/evaluate`
//! and `/evaluate/batch` record all five; the session routes record all
//! but `serialize`, since their handlers serialize inside `evaluate`.
//! A result's body is rendered once, when its `EvalArtifact` is made
//! (inside `evaluate` on a miss), so `serialize` on `/evaluate` only
//! hands over the stored bytes, and on `/evaluate/batch` splices each
//! item's stored body into the envelope.
//!
//! # Accounting
//!
//! Every admitted request attempt ends as exactly one response, one
//! abort (connection died mid-request) or one idle close (peer finished
//! a keep-alive conversation) — `/metrics` conservation is exact, not
//! best-effort, and `tests/serve_keepalive.rs` asserts it. An attempt is
//! counted when there is evidence a request exists: at accept for a
//! connection's first request, and at its next request's *byte arrival*
//! for keep-alive reuses. A parked connection that idles out or whose
//! peer hangs up between requests therefore closes *quietly* — no
//! attempt was pending, so nothing is recorded against the conservation
//! law (the retirement is visible in the `poller` metrics block
//! instead).
//!
//! # Determinism
//!
//! Workers share one process-wide *bounded* `SweepCache`; evaluation
//! draws traces and term planes through it exactly like the sweep paths
//! do. Cached artifacts are pure functions of their keys and eviction
//! only ever forces recomputation, so a served result is bit-identical to
//! a direct `evaluate_network` call — under any concurrency, queue state,
//! cache history, connection reuse or batching (asserted end-to-end in
//! `tests/serve_e2e.rs` and `tests/serve_keepalive.rs`).

use crate::http::{
    path_segments, read_request_with, write_json_response_conn, BadRequest, ReadError,
    MAX_BODY_BYTES,
};
use crate::metrics::{CloseReason, Metrics, Stage};
use crate::poller::{self, Poller, FIRST_CONN_TOKEN, LISTENER_TOKEN};
use crate::protocol::{self, error_body, BatchRequest, EvalRequest};
use crate::session::{self, SessionStore};
use diffy_core::artifact::{DiskTier, EvalArtifact};
use diffy_core::json::JsonValue;
use diffy_core::parallel::{run_jobs, Jobs};
use diffy_core::runner::SweepCache;
use diffy_core::trace;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Baseline readiness-wait timeout of the event loop. Readiness events
/// interrupt it immediately; the tick only bounds how stale the session
/// sweep and the drain check can get, so it can be far coarser than the
/// old 5 ms peek sweep.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Readiness-wait clamp while unparked connections are stranded by a
/// full admission queue: retry their hand-off on this cadence instead of
/// waiting out a whole tick.
const JAM_RETRY: Duration = Duration::from_millis(2);

/// Most connections accepted per listener readiness event before the
/// event loop services other work; the level-triggered listener is
/// simply reported ready again on the next wait.
const ACCEPT_BURST: usize = 256;

/// Pause after `accept` fails with EMFILE/ENFILE: the listener stays
/// level-triggered-ready while a connection is pending, so without a
/// backoff the event loop would spin hot on failing accepts until a
/// descriptor frees up.
const ACCEPT_FD_BACKOFF: Duration = Duration::from_millis(10);

/// `errno` values for process/system descriptor exhaustion (POSIX
/// values, identical on Linux and the BSDs).
const ENFILE: i32 = 23;
const EMFILE: i32 = 24;

/// Parked-connection capacity per admission-queue slot (floored at
/// [`MIN_PARKED_CAP`]) for the *inbox* — the bounded worker-to-event-loop
/// hand-off. The inbox only holds connections for the instants between a
/// worker's park and the loop's next absorb pass, so queue-proportional
/// capacity is plenty.
const PARKED_PER_QUEUE_SLOT: usize = 8;

/// Minimum parking-inbox capacity, so tiny-queue configurations still
/// absorb park bursts without refusals.
const MIN_PARKED_CAP: usize = 64;

/// Bound on the event loop's watch set — the idle keep-alive connections
/// held open concurrently. Watched sockets cost one fd and one epoll
/// registration each (no threads, no sweeps), so the bound is fd budget,
/// not queue geometry: 16k idle clients per instance, then refusals.
const MAX_WATCHED: usize = 16_384;

/// Wall-clock budget of a lingering close on a worker thread. The byte
/// cap alone is no bound in time: a peer trickling one byte per
/// sub-timeout read would keep the drain loop alive for hours.
const LINGER_BUDGET: Duration = Duration::from_millis(1_000);

/// Lingering-close budget on the acceptor's 503 shed path: the single
/// accept thread must return to accepting almost immediately, so a shed
/// peer gets one short drain window, not a full linger.
const SHED_LINGER_BUDGET: Duration = Duration::from_millis(25);

/// Grace past the request deadline granted to socket reads: an
/// expired-while-queued request whose bytes have already arrived should
/// still be *answered* 504 rather than torn down mid-read, so the read
/// path aborts only once the deadline is decisively gone.
const READ_GRACE: Duration = Duration::from_millis(250);

/// How long a worker peeks at a just-served connection before parking
/// it: a closed-loop client sends its next request within a round-trip
/// of the response, and catching it here keeps the connection on the
/// hot path (requeue) instead of paying a parker-sweep latency. One
/// bounded peek per response — an idle client costs this once, then
/// waits in the lot, not in a worker's hands.
const PARK_GRACE: Duration = Duration::from_millis(2);

/// Server configuration, mirrored by the CLI's `diffy serve` flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Evaluation worker count.
    pub workers: Jobs,
    /// Admission-queue capacity; a full queue answers 503.
    pub queue_depth: usize,
    /// Default and maximum per-request deadline, in milliseconds.
    pub deadline_ms: u64,
    /// Requests served on one connection before the server closes it
    /// (bounds per-connection state and guarantees turnover).
    pub max_requests_per_conn: u32,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it, in milliseconds.
    pub idle_timeout_ms: u64,
    /// Bounded-cache capacity: resident trace bundles (and weight sets).
    pub trace_cache: usize,
    /// Bounded-cache capacity: resident per-layer term-plane sets.
    pub plane_cache: usize,
    /// Directory of precomputed evaluation artifacts to attach as the
    /// cache's disk tier (`diffy serve --artifact-dir`). Evaluations
    /// read through it and write computed results back; a non-writable
    /// path is a hard bind error.
    pub artifact_dir: Option<String>,
    /// Load every valid artifact from `artifact_dir` into the memory
    /// tier before serving (`--warmup`), so hot keys are sub-millisecond
    /// from the first request.
    pub warmup: bool,
    /// Most streaming sessions live at once; admitting one past the
    /// bound evicts the least-recently-used session.
    pub max_sessions: usize,
    /// How long a streaming session may sit without a frame request
    /// before the sweep expires it, in milliseconds.
    pub session_idle_ms: u64,
    /// Honor the `test_sleep_ms` request field (tests only — lets the
    /// queueing and deadline paths be exercised deterministically).
    pub test_hooks: bool,
    /// Install a SIGTERM/SIGINT handler that triggers graceful drain
    /// (the CLI sets this; in-process tests leave it off).
    pub handle_signals: bool,
    /// Start a span capture on the global `diffy_core::trace` collector
    /// when the server runs. `GET /trace` serves the live capture as
    /// Chrome trace-event JSON; `diffy serve --trace-out` sets this and
    /// writes the drained capture at shutdown.
    pub trace_capture: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            workers: Jobs::available(),
            queue_depth: 32,
            deadline_ms: 30_000,
            max_requests_per_conn: 1_000,
            idle_timeout_ms: 5_000,
            trace_cache: 64,
            plane_cache: 1024,
            artifact_dir: None,
            warmup: false,
            max_sessions: 256,
            session_idle_ms: 60_000,
            test_hooks: false,
            handle_signals: false,
            trace_capture: false,
        }
    }
}

/// One connection waiting for a worker — freshly accepted, or re-enqueued
/// between keep-alive requests. The buffered reader travels with the
/// connection: a pipelined next request may already sit in its buffer,
/// and dropping it would desync the stream.
struct QueuedConn {
    /// Read half (a clone of the socket), with its head/body buffer.
    reader: BufReader<TcpStream>,
    /// Write half.
    writer: TcpStream,
    /// The current request attempt's time anchor: accept for the first
    /// request, re-enqueue (or first-byte arrival after idling) for
    /// later ones. Deadlines and the `request` trace span run from here.
    anchor: Instant,
    /// Id of the pending request attempt (accept-order sequence).
    req_id: u64,
    /// Responses already written on this connection.
    served: u32,
}

/// The bounded admission queue: `Mutex<VecDeque>` + condvar, closed at
/// shutdown so workers drain the backlog and exit.
struct ConnQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

struct QueueState {
    pending: VecDeque<QueuedConn>,
    closed: bool,
}

impl ConnQueue {
    fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState { pending: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Admits a connection, or returns it when the queue is full/closed.
    fn try_push(&self, conn: QueuedConn) -> Result<(), QueuedConn> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed || state.pending.len() >= self.capacity {
            return Err(conn);
        }
        state.pending.push_back(conn);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once closed *and* drained.
    fn pop(&self) -> Option<QueuedConn> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(conn) = state.pending.pop_front() {
                return Some(conn);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue poisoned");
        }
    }

    /// Stops admissions and wakes every waiting worker.
    fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.ready.notify_all();
    }

    fn depth(&self) -> usize {
        self.state.lock().expect("queue poisoned").pending.len()
    }
}

/// A keep-alive connection waiting — outside the admission queue — for
/// its next request's first byte.
struct ParkedConn {
    conn: QueuedConn,
    /// When the idle window expires and the parker closes the connection.
    idle_deadline: Instant,
}

/// The bounded inbox of parked keep-alive connections, on their way
/// from a worker to the event loop. Parked sockets are non-blocking; a
/// worker pushes here and wakes the poller, and the event loop drains
/// the inbox and registers each socket with epoll. Keeping idle
/// connections here — not in the admission queue — means `queue_depth`
/// idle clients cannot starve fresh connections into 503s, and workers
/// never burn cycles cycling idle connections.
struct ParkingLot {
    state: Mutex<LotState>,
    capacity: usize,
}

struct LotState {
    parked: Vec<ParkedConn>,
    closed: bool,
}

impl ParkingLot {
    fn new(capacity: usize) -> Self {
        Self { state: Mutex::new(LotState { parked: Vec::new(), closed: false }), capacity }
    }

    /// Admits a connection to the lot, or returns it (lot full, or
    /// closed for drain).
    fn try_park(&self, conn: ParkedConn) -> Result<(), ParkedConn> {
        let mut state = self.state.lock().expect("lot poisoned");
        if state.closed || state.parked.len() >= self.capacity {
            return Err(conn);
        }
        state.parked.push(conn);
        Ok(())
    }

    /// Takes every parked connection for one sweep; survivors are
    /// re-admitted via [`ParkingLot::try_park`].
    fn take_all(&self) -> Vec<ParkedConn> {
        std::mem::take(&mut self.state.lock().expect("lot poisoned").parked)
    }

    /// Closes the lot (late parkers are refused, under the same lock, so
    /// none can slip in after the final sweep) and returns the backlog.
    fn close(&self) -> Vec<ParkedConn> {
        let mut state = self.state.lock().expect("lot poisoned");
        state.closed = true;
        std::mem::take(&mut state.parked)
    }
}

/// Permits bounding the *extra* evaluation threads batch requests may
/// fan out, server-wide. Each `/evaluate/batch` always runs on its own
/// serving worker and adds only as many threads as it can take permits
/// for, so `workers` concurrent batches top out near 2× the pool — not
/// workers² as an uncapped per-request `run_jobs` fan would.
struct FanPermits {
    available: Mutex<usize>,
}

impl FanPermits {
    fn new(n: usize) -> Self {
        Self { available: Mutex::new(n) }
    }

    /// Takes up to `want` permits without blocking; returns how many
    /// were taken (possibly zero — the caller then runs inline).
    fn acquire_up_to(&self, want: usize) -> usize {
        let mut avail = self.available.lock().expect("permits poisoned");
        let take = want.min(*avail);
        *avail -= take;
        take
    }

    fn release(&self, n: usize) {
        *self.available.lock().expect("permits poisoned") += n;
    }
}

/// Releases its fan permits on drop, so a panicking batch cannot leak
/// them.
struct PermitGuard<'a> {
    permits: &'a FanPermits,
    n: usize,
}

impl Drop for PermitGuard<'_> {
    fn drop(&mut self) {
        self.permits.release(self.n);
    }
}

/// State shared between the event loop, the workers and
/// [`ServerHandle`]s.
struct Shared {
    queue: ConnQueue,
    parked: ParkingLot,
    /// Readiness notification: the event loop waits on it; workers wake
    /// it when they park a connection into the lot inbox.
    poller: Poller,
    batch_fan: FanPermits,
    metrics: Metrics,
    cache: SweepCache,
    sessions: SessionStore,
    config: ServeConfig,
    shutdown: AtomicBool,
    /// Source of accept-order request ids.
    req_seq: AtomicU64,
}

impl Shared {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGNAL_DRAIN.load(Ordering::SeqCst)
    }
}

/// Process-global flag set by the SIGTERM/SIGINT handler. Signal-safe:
/// the handler does exactly one atomic store.
static SIGNAL_DRAIN: AtomicBool = AtomicBool::new(false);

fn install_signal_handler() {
    unsafe extern "C" fn on_signal(_signum: i32) {
        SIGNAL_DRAIN.store(true, Ordering::SeqCst);
    }
    type Handler = unsafe extern "C" fn(i32);
    extern "C" {
        fn signal(signum: i32, handler: Handler) -> isize;
    }
    // 15 = SIGTERM, 2 = SIGINT; std links libc on unix, so `signal` is
    // always available without adding a dependency.
    unsafe {
        signal(15, on_signal);
        signal(2, on_signal);
    }
}

/// A bound evaluation server. [`Server::run`] blocks the calling thread
/// until shutdown; use [`Server::handle`] (or `POST /shutdown`, or
/// SIGTERM with [`ServeConfig::handle_signals`]) to trigger a graceful
/// drain from elsewhere.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

/// A cloneable remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begins graceful drain: stop accepting, finish queued requests,
    /// then let `run` return. In-flight keep-alive connections finish
    /// their current request with `Connection: close`. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether drain has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.draining()
    }
}

impl Server {
    /// Binds the listener and builds the shared state. The server does
    /// not accept connections until [`Server::run`].
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        assert!(config.queue_depth >= 1, "queue depth must be at least 1");
        assert!(config.max_requests_per_conn >= 1, "per-connection cap must be at least 1");
        assert!(config.idle_timeout_ms >= 1, "idle timeout must be at least 1ms");
        assert!(config.max_sessions >= 1, "session capacity must be at least 1");
        assert!(config.session_idle_ms >= 1, "session idle timeout must be at least 1ms");
        let mut cache = SweepCache::bounded(config.trace_cache, config.plane_cache);
        if let Some(dir) = &config.artifact_dir {
            // A broken artifact dir must fail the bind, not degrade
            // every request: opening probes writability (the tier
            // write-through and `precompute` both need it).
            let tier = DiskTier::open(dir).map_err(|e| {
                io::Error::new(e.kind(), format!("artifact dir `{dir}` is not usable: {e}"))
            })?;
            cache = cache.with_disk(tier);
            if config.warmup {
                let warmed = cache.warm_from_disk();
                trace::instant("warmup", || vec![("artifacts", (warmed as u64).into())]);
            }
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let parked_cap = config.queue_depth.saturating_mul(PARKED_PER_QUEUE_SLOT).max(MIN_PARKED_CAP);
        let shared = Arc::new(Shared {
            queue: ConnQueue::new(config.queue_depth),
            parked: ParkingLot::new(parked_cap),
            poller: Poller::new().map_err(|e| {
                io::Error::new(e.kind(), format!("readiness poller setup failed: {e}"))
            })?,
            batch_fan: FanPermits::new(config.workers.get().saturating_sub(1)),
            metrics: Metrics::new(),
            cache,
            sessions: SessionStore::new(
                config.max_sessions,
                Duration::from_millis(config.session_idle_ms),
            ),
            config,
            shutdown: AtomicBool::new(false),
            req_seq: AtomicU64::new(0),
        });
        Ok(Server { listener, local_addr, shared })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A remote control for this server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: Arc::clone(&self.shared) }
    }

    /// The configuration this server was bound with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// Serves until graceful drain completes: the event loop + workers
    /// run as one scoped-thread pool; on shutdown the event loop stops
    /// admitting, queued requests are still answered, parked
    /// connections are retired, then all threads join.
    pub fn run(self) -> io::Result<()> {
        if self.shared.config.handle_signals {
            install_signal_handler();
        }
        if self.shared.config.trace_capture {
            trace::Collector::global().start();
        }
        self.listener.set_nonblocking(true)?;
        self.shared.poller.register_listener(&self.listener, LISTENER_TOKEN)?;
        let workers = self.shared.config.workers.get();
        let shared = &self.shared;
        let listener = &self.listener;

        let mut jobs: Vec<Box<dyn FnOnce() + Send>> = Vec::with_capacity(workers + 1);
        jobs.push(Box::new(move || event_loop(shared, listener)));
        for _ in 0..workers {
            jobs.push(Box::new(move || worker_loop(shared)));
        }
        run_jobs(jobs, Jobs::new(workers + 1));
        Ok(())
    }
}

/// The event loop's mutable state: every parked socket it watches, the
/// idle-deadline order over them, connections stranded by a full queue,
/// and the token source.
struct LoopState {
    /// Parked connections by poller token.
    watched: HashMap<u64, ParkedConn>,
    /// Idle deadlines, soonest first. Entries whose token has already
    /// been unparked are stale and skipped (the map is authoritative).
    expiry: BinaryHeap<Reverse<(Instant, u64)>>,
    /// Read-ready connections a full admission queue refused: their
    /// next attempt is already counted, they stay *non-blocking*, and
    /// the loop retries the hand-off on the [`JAM_RETRY`] cadence.
    jammed: VecDeque<ParkedConn>,
    next_token: u64,
}

/// The event-driven core: one thread blocking on the poller, owning the
/// listener and every parked keep-alive socket. Accepts are admitted or
/// shed; parked sockets are unparked the instant their next request's
/// bytes arrive and retired when their idle window passes. On drain it
/// retires everything and closes the queue so workers finish the
/// backlog and exit.
fn event_loop(shared: &Shared, listener: &TcpListener) {
    let mut state = LoopState {
        watched: HashMap::new(),
        expiry: BinaryHeap::new(),
        jammed: VecDeque::new(),
        next_token: FIRST_CONN_TOKEN,
    };
    let mut ready: Vec<u64> = Vec::new();
    while !shared.draining() {
        let timeout = wait_timeout(&state);
        if shared.poller.wait(&mut ready, timeout).is_err() {
            // A broken poller cannot be recovered mid-flight; drain.
            shared.shutdown.store(true, Ordering::SeqCst);
            break;
        }
        shared.metrics.poller_wakeups_total.fetch_add(1, Ordering::Relaxed);
        for &token in &ready {
            match token {
                LISTENER_TOKEN => accept_ready(shared, listener),
                token => unpark_ready(shared, &mut state, token),
            }
        }
        absorb_inbox(shared, &mut state);
        expire_idle(shared, &mut state);
        retry_jammed(shared, &mut state);
        let expired = shared.sessions.sweep(Instant::now());
        if expired > 0 {
            trace::instant("sessions_expired", || vec![("count", (expired as u64).into())]);
        }
        shared.metrics.poller_parked.store(state.watched.len() as u64, Ordering::Relaxed);
    }
    // Drain: closing the lot refuses late parkers under the lot's own
    // lock, so no connection can slip in behind this retirement and
    // leak. Parked connections carry no pending attempt — quiet closes;
    // jammed ones do — their stranded attempts end as idle closes.
    for p in shared.parked.close() {
        close_conn_quiet(shared, p.conn);
    }
    for (_, p) in state.watched.drain() {
        let _ = shared.poller.deregister(&p.conn.writer);
        close_conn_quiet(shared, p.conn);
    }
    for p in state.jammed {
        close_conn(shared, p.conn, Some(CloseReason::Idle));
    }
    shared.metrics.poller_parked.store(0, Ordering::Relaxed);
    shared.queue.close();
}

/// How long the event loop may block: the baseline tick, cut to the
/// next idle expiry, or the jam-retry cadence while hand-offs are
/// pending.
fn wait_timeout(state: &LoopState) -> Duration {
    let mut timeout = POLL_TICK;
    if let Some(Reverse((due, _))) = state.expiry.peek() {
        timeout = timeout.min(due.saturating_duration_since(Instant::now()));
    }
    if !state.jammed.is_empty() {
        timeout = timeout.min(JAM_RETRY);
    }
    timeout
}

/// Services a listener readiness event: accepts (bounded by
/// [`ACCEPT_BURST`]), counts, and enqueues or sheds each connection.
fn accept_ready(shared: &Shared, listener: &TcpListener) {
    for _ in 0..ACCEPT_BURST {
        if shared.draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Responses are written whole; without TCP_NODELAY the
                // kernel would sit on the final short segment of a
                // keep-alive response waiting for the peer's delayed ACK.
                let _ = stream.set_nodelay(true);
                let m = &shared.metrics;
                m.connections_total.fetch_add(1, Ordering::Relaxed);
                m.connections_open.fetch_add(1, Ordering::Relaxed);
                m.requests_total.fetch_add(1, Ordering::Relaxed);
                let req_id = shared.req_seq.fetch_add(1, Ordering::Relaxed) + 1;
                // Both halves are cloned up front; a clone that fails
                // here is a connection that died before it carried
                // anything — counted, never silently dropped.
                let reader = match stream.try_clone() {
                    Ok(s) => BufReader::new(s),
                    Err(_) => {
                        m.record_close(CloseReason::Aborted);
                        m.connections_open.fetch_sub(1, Ordering::Relaxed);
                        continue;
                    }
                };
                let conn = QueuedConn {
                    reader,
                    writer: stream,
                    anchor: Instant::now(),
                    req_id,
                    served: 0,
                };
                if let Err(mut rejected) = shared.queue.try_push(conn) {
                    m.queue_rejected_total.fetch_add(1, Ordering::Relaxed);
                    trace::instant("queue_shed", || vec![("req", req_id.into())]);
                    respond(shared, &mut rejected, 503, &error_body("queue full"), false);
                    // Shortened linger: this is the event-loop thread,
                    // and a shed storm must not stall accepts or parked
                    // readiness.
                    close_conn_within(shared, rejected, None, SHED_LINGER_BUDGET);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Descriptor exhaustion (EMFILE/ENFILE): accepting is
            // impossible until something closes, but the pending
            // connection keeps the level-triggered listener readable —
            // without a pause the event loop would spin hot on failing
            // accepts. Back off a beat; retirements free descriptors.
            Err(e) if matches!(e.raw_os_error(), Some(EMFILE) | Some(ENFILE)) => {
                std::thread::sleep(ACCEPT_FD_BACKOFF);
                return;
            }
            // Transient accept failures (e.g. the peer reset before the
            // handshake finished) should not kill the server; the
            // level-triggered listener will report again if more wait.
            Err(_) => return,
        }
    }
}

/// Moves connections a worker just parked from the lot inbox into the
/// poller's watch set. [`MAX_WATCHED`] bounds the watch set (the inbox
/// itself is drained every pass): past it, parked connections are
/// refused and retired quietly, exactly as a full lot refused them
/// pre-epoll.
fn absorb_inbox(shared: &Shared, state: &mut LoopState) {
    for p in shared.parked.take_all() {
        if state.watched.len() >= MAX_WATCHED {
            shared.metrics.poller_park_refused_total.fetch_add(1, Ordering::Relaxed);
            close_conn_quiet(shared, p.conn);
            continue;
        }
        let token = state.next_token;
        state.next_token += 1;
        match shared.poller.register(&p.conn.writer, token) {
            Ok(()) => {
                state.expiry.push(Reverse((p.idle_deadline, token)));
                state.watched.insert(token, p);
            }
            // A socket that cannot be watched cannot be resumed; no
            // attempt is pending, so it retires quietly.
            Err(_) => close_conn_quiet(shared, p.conn),
        }
    }
}

/// Services a readiness event on a parked connection: EOF retires it
/// quietly (the peer finished the conversation; no attempt was
/// pending), bytes begin its next counted attempt and hand it to the
/// admission queue.
fn unpark_ready(shared: &Shared, state: &mut LoopState, token: u64) {
    // Tokens can go stale (unparked by an earlier event this round, or
    // expired): the watch map is authoritative.
    let Some(mut p) = state.watched.remove(&token) else { return };
    let _ = shared.poller.deregister(&p.conn.writer);
    let mut probe = [0u8; 1];
    match p.conn.writer.peek(&mut probe) {
        Ok(0) => close_conn_quiet(shared, p.conn),
        Ok(_) => {
            begin_next_attempt(shared, &mut p.conn);
            enqueue_unparked(shared, state, p);
        }
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted) => {
            // Spurious readiness: re-watch under the same deadline.
            match shared.poller.register(&p.conn.writer, token) {
                Ok(()) => {
                    state.expiry.push(Reverse((p.idle_deadline, token)));
                    state.watched.insert(token, p);
                }
                Err(_) => close_conn_quiet(shared, p.conn),
            }
        }
        Err(_) => close_conn_quiet(shared, p.conn),
    }
}

/// Hands an unparked connection (attempt already counted) to the
/// admission queue. The socket is made blocking only when the queue
/// actually takes it; when the queue is full it *stays non-blocking*
/// and waits on the jam list — the pre-epoll parker flipped it to
/// blocking before the push and re-parked it that way on failure,
/// leaving a socket whose next sweep `peek` could stall the parker
/// thread for its stale read timeout.
fn enqueue_unparked(shared: &Shared, state: &mut LoopState, p: ParkedConn) {
    let ParkedConn { conn, idle_deadline } = p;
    if conn.writer.set_nonblocking(false).is_err() {
        return close_conn(shared, conn, Some(CloseReason::Aborted));
    }
    match shared.queue.try_push(conn) {
        Ok(()) => {
            shared.metrics.poller_unparked_total.fetch_add(1, Ordering::Relaxed);
        }
        Err(conn) => {
            if conn.writer.set_nonblocking(true).is_err() {
                return close_conn(shared, conn, Some(CloseReason::Aborted));
            }
            state.jammed.push_back(ParkedConn { conn, idle_deadline });
        }
    }
}

/// Retires watched connections whose idle window has passed. No attempt
/// is pending on a parked connection, so these are quiet closes,
/// surfaced via `poller.expired` instead of the request ledger.
fn expire_idle(shared: &Shared, state: &mut LoopState) {
    let now = Instant::now();
    while let Some(Reverse((due, token))) = state.expiry.peek().copied() {
        if due > now {
            break;
        }
        state.expiry.pop();
        // Already unparked or retired → stale entry, skip.
        if let Some(p) = state.watched.remove(&token) {
            let _ = shared.poller.deregister(&p.conn.writer);
            shared.metrics.poller_expired_total.fetch_add(1, Ordering::Relaxed);
            close_conn_quiet(shared, p.conn);
        }
    }
}

/// Retries the queue hand-off for jam-stranded connections; ones whose
/// idle window passed while stranded close with their counted attempt
/// recorded as an idle close (the bound on how long a jam can strand
/// them).
fn retry_jammed(shared: &Shared, state: &mut LoopState) {
    let now = Instant::now();
    for p in std::mem::take(&mut state.jammed) {
        if p.idle_deadline <= now {
            close_conn(shared, p.conn, Some(CloseReason::Idle));
        } else {
            enqueue_unparked(shared, state, p);
        }
    }
}

/// Counts and ids a keep-alive connection's next request attempt. Called
/// only once the attempt's existence is evidenced by buffered or
/// arrived bytes — a dead or silent connection never counts a reuse.
fn begin_next_attempt(shared: &Shared, conn: &mut QueuedConn) {
    shared.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
    shared.metrics.keepalive_reuses_total.fetch_add(1, Ordering::Relaxed);
    conn.req_id = shared.req_seq.fetch_add(1, Ordering::Relaxed) + 1;
    // Anchor at the bytes' arrival: deadlines and queue-wait measure
    // this request, not the client's think time.
    conn.anchor = Instant::now();
}

/// Drains the queue until it is closed and empty.
fn worker_loop(shared: &Shared) {
    while let Some(conn) = shared.queue.pop() {
        handle_connection(shared, conn);
    }
}

/// Writes a JSON response with the decided connection disposition,
/// counting it; write errors only mean the peer went away, which the
/// server must survive. Returns whether the write succeeded (a failed
/// write poisons the connection — it must not be reused).
fn respond(shared: &Shared, conn: &mut QueuedConn, status: u16, body: &str, keep: bool) -> bool {
    shared.metrics.record_response(status);
    conn.served += 1;
    let _ = conn.writer.set_write_timeout(Some(Duration::from_secs(10)));
    write_json_response_conn(&mut conn.writer, status, body, keep).is_ok()
}

/// Retires a connection. `unanswered` records an attempt that ends
/// without a response (abort or idle close) so request accounting stays
/// exact; `None` means the last attempt was answered.
///
/// A connection that served responses ends with a *lingering close*:
/// half-close the write side, then drain whatever the peer already sent
/// before dropping the socket. A 503 is written before the request has
/// been read at all — closing with unread bytes in the receive buffer
/// makes the kernel send RST, which can discard the very response the
/// peer is about to read.
fn close_conn(shared: &Shared, conn: QueuedConn, unanswered: Option<CloseReason>) {
    close_conn_within(shared, conn, unanswered, LINGER_BUDGET);
}

/// [`close_conn`] with an explicit wall-clock budget for the lingering
/// drain. The drain is bounded in bytes *and* time: the byte cap alone
/// would let a peer trickling one byte per sub-timeout read pin the
/// closing thread for hours.
fn close_conn_within(
    shared: &Shared,
    mut conn: QueuedConn,
    unanswered: Option<CloseReason>,
    linger: Duration,
) {
    if let Some(reason) = unanswered {
        shared.metrics.record_close(reason);
    }
    shared.metrics.connections_open.fetch_sub(1, Ordering::Relaxed);
    shared.metrics.requests_per_conn_max.fetch_max(u64::from(conn.served), Ordering::Relaxed);
    if conn.served == 0 || unanswered.is_some() {
        return; // nothing was answered; nothing to protect with a linger
    }
    // The socket may arrive here still in non-blocking mode (a parked
    // connection the lot refused, a jam-stranded one): restore blocking
    // so the drain reads below honor their timeouts. Treating the
    // resulting `WouldBlock` as a fatal error instead used to skip the
    // linger entirely — an immediate close whose RST could eat the very
    // response the linger exists to protect.
    if conn.writer.set_nonblocking(false).is_err() {
        return;
    }
    let _ = conn.writer.shutdown(Shutdown::Write);
    let linger_deadline = Instant::now() + linger;
    let mut scratch = [0u8; 4096];
    let mut drained = 0usize;
    // Stop at the peer's close, an error, one body's worth, or the
    // linger budget — whichever comes first. A timed-out read is not an
    // error: it spends its slice of the budget and the loop head decides
    // whether any remains.
    while drained <= MAX_BODY_BYTES {
        let remaining = linger_deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break;
        }
        let _ = conn.writer.set_read_timeout(Some(remaining.min(Duration::from_millis(500))));
        match io::Read::read(&mut conn.writer, &mut scratch) {
            Ok(0) => break,
            Ok(n) => drained += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
    }
}

/// Retires a connection with *no* request attempt pending: the peer went
/// silent or hung up between requests, after its last response was
/// answered. Nothing is recorded against the request ledger (no attempt
/// was counted for it), and there is no linger — the quiet paths are
/// reached only when a peek found silence or EOF, so no unread bytes
/// can trigger an RST that would eat a response.
fn close_conn_quiet(shared: &Shared, conn: QueuedConn) {
    shared.metrics.connections_open.fetch_sub(1, Ordering::Relaxed);
    shared.metrics.requests_per_conn_max.fetch_max(u64::from(conn.served), Ordering::Relaxed);
}

/// Disposes of a connection after a keep-alive response: a connection
/// whose next request is already buffered or arrives within
/// [`PARK_GRACE`] begins its next *counted* attempt and re-enters the
/// admission queue — it waits its turn behind every other queued
/// connection — while a silent one is [`park`]ed with the event loop
/// until its next request's first byte arrives. The next attempt is
/// counted only once its bytes exist: a connection that turns out dead
/// here never inflates `keepalive_reuses_total` with a reuse that
/// carried no request, and a parked retirement stays off the request
/// ledger entirely. A full (or closed) queue or lot ends the
/// conversation instead — bounded state beats unbounded politeness.
fn requeue_or_park(shared: &Shared, mut conn: QueuedConn) {
    if conn.reader.buffer().is_empty() {
        // A closed-loop client's next request lands within a round-trip:
        // one short readiness wait catches it and keeps the connection
        // on the hot path. Silence past the grace parks it — this is the
        // only wait an idle connection ever costs a worker. The wait is
        // `poll(2)`, not a blocking peek under `SO_RCVTIMEO`: socket
        // timeouts round up to kernel timer ticks (~8 ms for a 2 ms
        // grace), which would cap one worker at ~125 parks/s.
        match poller::wait_readable(&conn.writer, PARK_GRACE) {
            Ok(false) => return park(shared, conn),
            Ok(true) => {}
            Err(_) => return close_conn_quiet(shared, conn),
        }
        // Readable: bound the peek so a spurious readiness on a
        // blocking socket cannot stall the worker.
        let _ = conn.writer.set_read_timeout(Some(PARK_GRACE));
        let mut probe = [0u8; 1];
        match conn.writer.peek(&mut probe) {
            // The peer finished the conversation (EOF) before any next
            // request existed: nothing is pending, retire quietly.
            Ok(0) => return close_conn_quiet(shared, conn),
            Ok(_) => {}
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                return park(shared, conn)
            }
            Err(_) => return close_conn_quiet(shared, conn),
        }
    }
    // Bytes exist (buffered pipeline or grace-peek arrival): this is a
    // real next attempt.
    begin_next_attempt(shared, &mut conn);
    if let Err(conn) = shared.queue.try_push(conn) {
        close_conn(shared, conn, Some(CloseReason::Idle));
    }
}

/// Parks a silent keep-alive connection, non-blocking, in the lot inbox
/// for the event loop to watch; a full or closed lot retires it quietly.
fn park(shared: &Shared, conn: QueuedConn) {
    let idle_deadline = Instant::now() + Duration::from_millis(shared.config.idle_timeout_ms);
    if conn.writer.set_nonblocking(true).is_err() {
        return close_conn_quiet(shared, conn);
    }
    match shared.parked.try_park(ParkedConn { conn, idle_deadline }) {
        // The event loop may be mid-wait: wake it to absorb the inbox
        // and register the socket.
        Ok(()) => shared.poller.wake(),
        Err(p) => {
            shared.metrics.poller_park_refused_total.fetch_add(1, Ordering::Relaxed);
            close_conn_quiet(shared, p.conn);
        }
    }
}

/// Serves one request off a dequeued connection, then re-enqueues, parks
/// or retires it. Every queued connection is *live*: its request bytes
/// are buffered, arriving, or expected imminently — idle ones wait in
/// the parking lot instead, so a worker here never babysits silence.
fn handle_connection(shared: &Shared, mut conn: QueuedConn) {
    let dequeued_at = Instant::now();

    // The socket read budget is whatever remains of the request
    // deadline, re-armed before *every* read: a peer trickling bytes
    // just under each read timeout is still cut off once the budget
    // (plus the grace that lets an expired-while-queued request be
    // answered 504) is gone — not indulged one timeout per byte.
    let read_deadline =
        conn.anchor + Duration::from_millis(shared.config.deadline_ms) + READ_GRACE;
    let writer = &conn.writer;
    let mut tick = move || -> io::Result<()> {
        let remaining = read_deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request deadline exceeded during read",
            ));
        }
        let _ = writer.set_read_timeout(Some(
            remaining.clamp(Duration::from_millis(10), Duration::from_secs(10)),
        ));
        Ok(())
    };

    let request = match read_request_with(&mut conn.reader, &mut tick) {
        Err(ReadError::Idle) => return close_conn(shared, conn, Some(CloseReason::Idle)),
        Err(ReadError::Io(_)) => return close_conn(shared, conn, Some(CloseReason::Aborted)),
        Ok(Err(BadRequest { status, message })) => {
            // The framing is no longer trustworthy — answer and close;
            // reusing the stream could misread the next request's head.
            respond(shared, &mut conn, status, &error_body(&message), false);
            return close_conn(shared, conn, None);
        }
        Ok(Ok(req)) => req,
    };

    // Connection disposition: what the client asked for, bounded by the
    // server's drain state and per-connection request cap.
    let mut keep = request.keep_alive()
        && !shared.draining()
        && conn.served + 1 < shared.config.max_requests_per_conn;

    // Session routes carry an id path segment, so they dispatch on
    // canonicalized segments; everything else matches the literal path.
    let segs = path_segments(&request.path);
    let (body, anchor) = (request.body.as_slice(), conn.anchor);
    let healthy = match (request.method.as_str(), segs.as_slice()) {
        ("POST", ["session"]) => {
            serve(shared, &mut conn, dequeued_at, keep, "session_create", || {
                let text = decode(shared, body, dequeued_at, utf8)?;
                Ok(stage(shared, Stage::Evaluate, || {
                    session::handle_create(&shared.sessions, text, Instant::now())
                }))
            })
        }
        ("POST", ["session", id, "frame"]) => {
            serve(shared, &mut conn, dequeued_at, keep, "session_frame", || {
                let text = decode(shared, body, dequeued_at, utf8)?;
                Ok(stage(shared, Stage::Evaluate, || {
                    session::handle_frame(&shared.sessions, &shared.cache, id, text, Instant::now())
                }))
            })
        }
        ("DELETE", ["session", id]) => {
            serve(shared, &mut conn, dequeued_at, keep, "session_close", || {
                // No body to read: the parse stage is the socket read.
                decode(shared, body, dequeued_at, |_| Ok(()))?;
                Ok(stage(shared, Stage::Evaluate, || session::handle_close(&shared.sessions, id)))
            })
        }
        (_, ["session"] | ["session", _] | ["session", _, "frame"]) => {
            respond(shared, &mut conn, 405, &error_body("method not allowed"), keep)
        }
        _ => match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/evaluate") => {
                serve(shared, &mut conn, dequeued_at, keep, "evaluate", || {
                    let req = decode(shared, body, dequeued_at, json(EvalRequest::from_json))?;
                    let artifact = stage(shared, Stage::Evaluate, || {
                        evaluate_one(shared, &req, anchor, req.deadline_ms)
                    })
                    .map_err(|(status, e)| (status, error_body(&e)))?;
                    let body = stage(shared, Stage::Serialize, || artifact.body().to_owned());
                    Ok((200, body))
                })
            }
            ("POST", "/evaluate/batch") => {
                serve(shared, &mut conn, dequeued_at, keep, "batch", || {
                    evaluate_batch(shared, body, anchor, dequeued_at)
                })
            }
            ("GET", "/trace") => {
                let body = trace::Collector::global().snapshot().to_chrome_json().to_json();
                respond(shared, &mut conn, 200, &body, keep)
            }
            ("GET", "/metrics") => {
                let body = shared
                    .metrics
                    .to_json(
                        shared.queue.depth(),
                        shared.config.queue_depth,
                        shared.cache.stats(),
                        shared.sessions.stats(),
                    )
                    .to_json();
                respond(shared, &mut conn, 200, &body, keep)
            }
            ("GET", "/healthz") => {
                let draining = shared.draining();
                let body = JsonValue::object(vec![
                    ("status", JsonValue::from(if draining { "draining" } else { "ok" })),
                ])
                .to_json();
                respond(shared, &mut conn, 200, &body, keep)
            }
            ("POST", "/shutdown") => {
                shared.shutdown.store(true, Ordering::SeqCst);
                keep = false;
                let body = JsonValue::object(vec![("draining", JsonValue::Bool(true))]).to_json();
                respond(shared, &mut conn, 200, &body, false)
            }
            ("POST" | "GET", "/evaluate" | "/evaluate/batch" | "/metrics" | "/healthz"
            | "/shutdown" | "/trace") => {
                respond(shared, &mut conn, 405, &error_body("method not allowed"), keep)
            }
            _ => respond(shared, &mut conn, 404, &error_body("no such endpoint"), keep),
        },
    };

    if keep && healthy {
        requeue_or_park(shared, conn);
    } else {
        close_conn(shared, conn, None);
    }
}

/// A response: status and JSON body.
type Reply = (u16, String);

/// The one frame of every traced route, `kind` naming it in the trace:
/// the `request` span from the connection's anchor, the queue-wait
/// stage, one panic fence around the whole route, the timed response
/// write and the latency sample. A route answers `Err` when it stops
/// early (a body that does not decode, an expired deadline, a failed
/// evaluation) and `Ok` when it ran to the end; either way its stages
/// run inside the span, so they tile the request from anchor to written
/// response and sum to the latency sample up to span overhead.
fn serve(
    shared: &Shared,
    conn: &mut QueuedConn,
    dequeued_at: Instant,
    keep: bool,
    kind: &'static str,
    route: impl FnOnce() -> Result<Reply, Reply>,
) -> bool {
    let (anchor, req_id) = (conn.anchor, conn.req_id);
    let collector = trace::Collector::global();
    let _request = collector.span_from("request", collector.ns_of(anchor), || {
        vec![("req", req_id.into()), ("kind", kind.into())]
    });
    record_stage(shared, Stage::QueueWait, anchor, dequeued_at);
    let (status, body) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(route))
        .unwrap_or_else(|_| Err((500, error_body("request failed"))))
        .unwrap_or_else(|early| early);
    let healthy = stage(shared, Stage::Write, || respond(shared, conn, status, &body, keep));
    shared.metrics.latency.record(anchor.elapsed());
    healthy
}

/// Runs `work` as one stage: its span and its histogram sample share one
/// start.
fn stage<T>(shared: &Shared, stage: Stage, work: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let collector = trace::Collector::global();
    let out = {
        let _span = collector.span_from(stage.name(), collector.ns_of(start), Vec::new);
        work()
    };
    shared.metrics.stage(stage).record(start.elapsed());
    out
}

/// Records a stage that began before the route ran (queue wait, parse)
/// as one span and one histogram sample over `start..end`.
fn record_stage(shared: &Shared, stage: Stage, start: Instant, end: Instant) {
    let elapsed = end.saturating_duration_since(start);
    shared.metrics.stage(stage).record(elapsed);
    let collector = trace::Collector::global();
    let dur_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    collector.record_manual(stage.name(), collector.ns_of(start), dur_ns, Vec::new);
}

/// Decodes a request body, answering 400 with the decoder's reason. The
/// parse stage runs from dequeue, so it covers the socket read, to the
/// end of the decode.
fn decode<'b, T>(
    shared: &Shared,
    body: &'b [u8],
    dequeued_at: Instant,
    decoder: impl FnOnce(&'b [u8]) -> Result<T, String>,
) -> Result<T, Reply> {
    let decoded = decoder(body).map_err(|e| (400, error_body(&e)));
    record_stage(shared, Stage::Parse, dequeued_at, Instant::now());
    decoded
}

/// The body as text: the decoder of the session routes, whose handlers
/// parse their own JSON.
fn utf8(body: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(body).map_err(|_| "body must be UTF-8 JSON".to_string())
}

/// The decoder of a JSON body that `from_json` validates.
fn json<T>(
    from_json: fn(&JsonValue) -> Result<T, String>,
) -> impl FnOnce(&[u8]) -> Result<T, String> {
    move |body| protocol::decode(utf8(body)?, from_json)
}

/// Prices one decoded request within its deadline — `deadline_ms`,
/// clamped to the server's, from the connection's `anchor`: a request
/// that waited out its budget is never evaluated, and a result finished
/// past it is answered 504, counted here once per request or batch item.
/// The tiered evaluation is panic-fenced on its own, so one failing
/// batch item does not take its siblings down.
fn evaluate_one(
    shared: &Shared,
    req: &EvalRequest,
    anchor: Instant,
    deadline_ms: Option<u64>,
) -> Result<Arc<EvalArtifact>, (u16, String)> {
    let max_ms = shared.config.deadline_ms;
    let deadline = anchor + Duration::from_millis(deadline_ms.unwrap_or(max_ms).min(max_ms));
    let expired = |when: &str| {
        shared.metrics.deadline_expired_total.fetch_add(1, Ordering::Relaxed);
        Err((504, format!("deadline exceeded ({when})")))
    };
    if Instant::now() >= deadline {
        return expired("queued");
    }
    if shared.config.test_hooks {
        if let Some(ms) = req.test_sleep_ms {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
    // Memory result store, then disk artifacts, then compute — which
    // draws traces and term planes from the stores the sweeps use.
    let (workload, eval) = (req.workload(), req.eval_options());
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shared.cache.evaluate_keyed(req.model, req.dataset, req.sample, &workload, &eval)
    }));
    let Ok(artifact) = run else {
        return Err((500, "evaluation failed".to_string()));
    };
    if Instant::now() >= deadline {
        return expired("evaluated");
    }
    Ok(artifact)
}

/// The `/evaluate/batch` route: one decoded batch fans its items over
/// the same `run_jobs` pool and shared `SweepCache` the sweeps use, so
/// weights, traces and per-layer term planes are built once per key
/// across the whole batch. Items are independent: each reports its own
/// result or error, in request order — `{"status": 200, "result": {…}}`,
/// the object byte-identical to the standalone `POST /evaluate` body, or
/// `{"status": s, "error": "…"}` — under the batch's one deadline.
fn evaluate_batch(
    shared: &Shared,
    body: &[u8],
    anchor: Instant,
    dequeued_at: Instant,
) -> Result<Reply, Reply> {
    let batch = decode(shared, body, dequeued_at, json(BatchRequest::from_json))?;
    shared.metrics.batch_items_total.fetch_add(batch.items.len() as u64, Ordering::Relaxed);
    // Fan the items over the pool, bounded *globally*: the batch always
    // gets this serving worker (fan 1 runs inline) plus however many
    // extra-thread permits remain server-wide, so W workers all serving
    // batches at once cannot stack W² evaluation threads. Results come
    // back in item order (run_jobs is order-stable at any parallelism).
    let want = batch.items.len().min(shared.config.workers.get()).saturating_sub(1);
    let permits =
        PermitGuard { permits: &shared.batch_fan, n: shared.batch_fan.acquire_up_to(want) };
    let tasks: Vec<_> = batch
        .items
        .iter()
        .map(|item| {
            move || {
                item.as_ref()
                    .map_err(|e| (400, e.clone()))
                    .and_then(|req| evaluate_one(shared, req, anchor, batch.deadline_ms))
            }
        })
        .collect();
    let outcomes = stage(shared, Stage::Evaluate, || run_jobs(tasks, Jobs::new(1 + permits.n)));
    drop(permits);
    Ok((200, stage(shared, Stage::Serialize, || batch_response(&outcomes))))
}

/// The batch response body, spliced as text from each item's stored
/// result body or its error: the bytes `JsonValue` renders for
/// `{"count": n, "errors": e, "items": […]}`, without re-rendering any
/// result.
fn batch_response(outcomes: &[Result<Arc<EvalArtifact>, (u16, String)>]) -> String {
    let errors = outcomes.iter().filter(|o| o.is_err()).count();
    let mut body = format!("{{\"count\":{},\"errors\":{errors},\"items\":[", outcomes.len());
    for (i, outcome) in outcomes.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        match outcome {
            Ok(artifact) => {
                body.push_str("{\"status\":200,\"result\":");
                body.push_str(artifact.body());
                body.push('}');
            }
            Err((status, e)) => body.push_str(
                &JsonValue::object(vec![
                    ("status", u64::from(*status).into()),
                    ("error", e.as_str().into()),
                ])
                .to_json(),
            ),
        }
    }
    body.push_str("]}");
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    #[test]
    fn queue_sheds_above_capacity_and_drains_after_close() {
        // Pure queue-discipline test with synthetic connections: use a
        // real loopback listener only as a TcpStream factory.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mk = || {
            let _client = TcpStream::connect(addr).unwrap();
            let (server_side, _) = listener.accept().unwrap();
            let reader = BufReader::new(server_side.try_clone().unwrap());
            QueuedConn {
                reader,
                writer: server_side,
                anchor: Instant::now(),
                req_id: 0,
                served: 0,
            }
        };
        let q = ConnQueue::new(2);
        assert!(q.try_push(mk()).is_ok());
        assert!(q.try_push(mk()).is_ok());
        assert!(q.try_push(mk()).is_err(), "third admit must shed");
        assert_eq!(q.depth(), 2);
        q.close();
        assert!(q.try_push(mk()).is_err(), "closed queue admits nothing");
        assert!(q.pop().is_some(), "backlog drains after close");
        assert!(q.pop().is_some());
        assert!(q.pop().is_none(), "drained + closed ends the workers");
    }

    #[test]
    fn fan_permits_bound_total_extra_threads() {
        let permits = FanPermits::new(3);
        assert_eq!(permits.acquire_up_to(2), 2, "takes what it asks for while available");
        assert_eq!(permits.acquire_up_to(5), 1, "then only what remains");
        assert_eq!(permits.acquire_up_to(4), 0, "exhausted pool degrades to inline");
        permits.release(1);
        assert_eq!(permits.acquire_up_to(4), 1, "released permits come back");
        permits.release(3);
    }

    #[test]
    fn parking_lot_is_bounded_and_closes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mk = || {
            let _client = TcpStream::connect(addr).unwrap();
            let (server_side, _) = listener.accept().unwrap();
            let reader = BufReader::new(server_side.try_clone().unwrap());
            ParkedConn {
                conn: QueuedConn {
                    reader,
                    writer: server_side,
                    anchor: Instant::now(),
                    req_id: 0,
                    served: 1,
                },
                idle_deadline: Instant::now() + Duration::from_secs(1),
            }
        };
        let lot = ParkingLot::new(2);
        assert!(lot.try_park(mk()).is_ok());
        assert!(lot.try_park(mk()).is_ok());
        assert!(lot.try_park(mk()).is_err(), "third park must be refused");
        assert_eq!(lot.close().len(), 2, "close returns the backlog");
        assert!(lot.try_park(mk()).is_err(), "closed lot refuses late parkers");
    }

    #[test]
    fn lingering_close_is_bounded_in_wall_clock_not_just_bytes() {
        // A peer that trickles bytes keeps every drain read succeeding;
        // only the linger's wall-clock budget may end it. Byte budget
        // alone would run this for MAX_BODY_BYTES reads.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let conn = QueuedConn {
            reader: BufReader::new(server_side.try_clone().unwrap()),
            writer: server_side,
            anchor: Instant::now(),
            req_id: 1,
            served: 1, // answered: close_conn will linger
        };
        let trickler = std::thread::spawn(move || {
            // ~2 s of trickle, one byte every 50 ms; stop on EPIPE.
            for _ in 0..40 {
                if client.write_all(b"x").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let shared = test_shared();
        shared.metrics.connections_open.fetch_add(1, Ordering::Relaxed);
        let closing = Instant::now();
        close_conn_within(&shared, conn, None, Duration::from_millis(200));
        let held = closing.elapsed();
        assert!(
            held < Duration::from_millis(1_500),
            "linger must stop at its budget, held {held:?}"
        );
        trickler.join().unwrap();
    }

    fn test_shared() -> Shared {
        Shared {
            queue: ConnQueue::new(1),
            parked: ParkingLot::new(1),
            poller: Poller::new().unwrap(),
            batch_fan: FanPermits::new(0),
            metrics: Metrics::new(),
            cache: SweepCache::bounded(1, 1),
            sessions: SessionStore::new(1, Duration::from_secs(1)),
            config: ServeConfig::default(),
            shutdown: AtomicBool::new(false),
            req_seq: AtomicU64::new(0),
        }
    }

    #[test]
    fn lingering_close_drains_a_nonblocking_socket_against_its_budget() {
        // Regression: a connection can reach its close while the socket
        // is still in non-blocking mode (a parked connection the lot
        // refused, a jam-stranded one). The drain loop used to treat the
        // resulting `WouldBlock` as `Err(_) => break`, skipping the
        // linger entirely — the close raced the peer's final read and an
        // RST could eat the response. The close must restore blocking
        // mode and drain against its budget.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap(); // as a parked socket would be
        let conn = QueuedConn {
            reader: BufReader::new(server_side.try_clone().unwrap()),
            writer: server_side,
            anchor: Instant::now(),
            req_id: 1,
            served: 1, // answered: close_conn must linger
        };
        let peer = std::thread::spawn(move || {
            // The peer is mid-send when the server decides to close: its
            // trailing bytes land 150 ms in, then it hangs up.
            std::thread::sleep(Duration::from_millis(150));
            let _ = client.write_all(b"tail");
            std::thread::sleep(Duration::from_millis(30));
        });
        let shared = test_shared();
        shared.metrics.connections_open.fetch_add(1, Ordering::Relaxed);
        let closing = Instant::now();
        close_conn_within(&shared, conn, None, Duration::from_millis(1_000));
        let held = closing.elapsed();
        peer.join().unwrap();
        assert!(
            held >= Duration::from_millis(100),
            "nonblocking socket must not skip the linger (returned in {held:?})"
        );
        assert!(held < Duration::from_millis(1_500), "and the budget still bounds it: {held:?}");
    }

    #[test]
    fn default_config_is_sane() {
        let c = ServeConfig::default();
        assert!(c.queue_depth >= 1);
        assert!(c.workers.get() >= 1);
        assert!(c.deadline_ms > 0);
        assert!(c.max_requests_per_conn >= 1);
        assert!(c.idle_timeout_ms >= 1);
        assert!(!c.test_hooks);
    }
}
