//! Multi-client batch server over plain `std::net` TCP, scheduled by
//! socket readiness (the `readiness` module).
//!
//! The listener and every connection are registered with one shared
//! poller and armed one-shot; a fixed pool of workers blocks in it. A
//! worker woken for a connection takes it out of the parked table, pulls
//! whatever bytes are ready, answers every completed request in place,
//! files it back and re-arms it — for readability, or for writability
//! while a response that outgrew the socket buffer is parked mid-write.
//! Every response is encoded once into one contiguous frame
//! ([`Response::encode_frame`]) and written with plain `write` from a byte
//! offset, so a parked response is that buffer and how much has left.
//! The kernel mutes a reported socket until it is re-armed, so a
//! connection is only ever in one worker's hands, scheduling stays
//! **request**-granular (a busy peer rejoins the ready list behind
//! everyone else after each visit), and a connection idle between
//! requests costs nothing — which lets one server hold many trainer
//! sockets with a pool far smaller than its connection count.
//! Nothing sleeps: worker 0 bounds its wait by the timer tick and expires
//! silent, write-stalled and shed connections from the parked table;
//! shutdown is an `eventfd` latch that wakes every waiter.
//!
//! Error handling contract: a *request* failure (unknown shard, malformed
//! frame, a batch too large to frame) is answered with an error frame and
//! the connection stays usable;
//! a *connection* failure (EOF, injected drop, idle expiry) closes only
//! that connection. Overload is answered with a `Busy` error frame at
//! accept time — explicit backpressure, never a silent drop. The server
//! never dies because a client did.
//!
//! Fault injection: a [`FaultPlan`] entry `drop@C:R` severs connection `C`
//! mid-way through the response to its `R`-th request (a partial frame is
//! written, then the socket is shut down), exercising client
//! reconnect-and-retry. `delay@C:R:ms` stalls a response; `kill@C:R`
//! closes the connection before responding. Poison entries are ignored —
//! the data plane has no in-place result to corrupt.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sickle_hpc::fault::{FaultAction, FaultInjector, FaultPlan};
use sickle_obs::TraceContext;

use crate::batching::{assemble_batch, batch_keys, num_batches, BatchShape, BatchSpec};
use crate::cache::DecodedShard;
use crate::manifest::ShardKey;
use crate::prefetch::Prefetcher;
use crate::protocol::{
    batch_payload_len, Request, Response, WireErrorKind, FRAME_HEADER, MAX_FRAME,
};
use crate::readiness::{Interest, Poller};
use crate::stats::{ConnGuard, ConnRegistry, StatsSnapshot};
use crate::store::ShardStore;

/// Server tuning.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads. Workers multiplex all open connections, so this
    /// bounds concurrent *request handling*, not connection count.
    pub threads: usize,
    /// The timer tick, and the unit of the idle window: parked connections
    /// are checked once per `read_timeout`, and a silent one is closed
    /// after `read_timeout * idle_timeouts` without a byte.
    pub read_timeout: Duration,
    /// Multiplier on `read_timeout` for the idle window.
    pub idle_timeouts: u32,
    /// How many upcoming batches to hint to the prefetcher after serving a
    /// `GetBatch` (0 disables lookahead).
    pub lookahead: usize,
    /// Optional fault plan (`drop@conn:request`, `kill@conn:request`, ...)
    /// for resilience tests.
    pub fault_plan: Option<FaultPlan>,
    /// Honor `Request::Shutdown` (off by default: a shared server should
    /// not be stoppable by any client that can reach it).
    pub allow_shutdown: bool,
    /// Admission bound: past this many open connections, new arrivals are
    /// answered with one `Busy` error frame and closed (`0` = unlimited).
    /// Explicit shedding keeps overload visible to clients as retryable
    /// backpressure instead of connect timeouts.
    pub max_conns: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 8,
            read_timeout: Duration::from_millis(250),
            idle_timeouts: 40,
            lookahead: 1,
            fault_plan: None,
            allow_shutdown: false,
            max_conns: 1024,
        }
    }
}

/// A peer that stops reading mid-response is cut after this long.
const WRITE_DEADLINE: Duration = Duration::from_secs(30);

/// The listener's poller token (connections count up from 0).
const LISTENER: u64 = u64::MAX - 1;

/// Arrivals taken per listener wake-up before it rejoins the ready list,
/// so a connect flood cannot starve established connections.
const ACCEPT_BURST: usize = 64;

struct Shared {
    store: Arc<ShardStore>,
    keys: Vec<ShardKey>,
    injector: FaultInjector,
    prefetcher: Prefetcher,
    cfg: ServeConfig,
    write_deadline: Duration,
    conns: ConnRegistry,
    listener: TcpListener,
    /// Shared with the handle, whose `shutdown` stops it.
    poller: Arc<Poller>,
    /// Armed connections, by poller token. A worker removes the one it was
    /// woken for and files it back when done; what is in here is exactly
    /// what the timer sweep may expire.
    parked: Mutex<HashMap<u64, Conn>>,
    next_token: AtomicU64,
    next_conn: AtomicUsize,
    /// `accept` failed hard (descriptor exhaustion) and left the listener
    /// muted; the next sweep re-arms it — one retry per tick, no spinning.
    accept_stalled: AtomicBool,
}

/// One open connection's state, owned by the worker currently serving it
/// or by the parked table.
struct Conn {
    stream: TcpStream,
    token: u64,
    /// Admission order among served connections — the fault plan's index.
    id: usize,
    /// Partially assembled inbound frame bytes.
    buf: Vec<u8>,
    /// Last instant a byte arrived; drives idle expiry.
    last_activity: Instant,
    /// Accept instant, consumed by the first service to report the wait.
    accepted: Option<Instant>,
    /// In-flight response. While `Some`, the connection is armed for
    /// writability and no further request on it is read.
    out: Option<PendingWrite>,
    /// Bytes moved in either direction since accept; a wake-up that leaves
    /// it unchanged (and closes nothing) was fruitless.
    moved: u64,
    /// `None` marks a shed arrival: its `Busy` frame is out and whatever
    /// the peer sends is discarded until it hangs up.
    guard: Option<ConnGuard>,
}

/// A response mid-write: its whole frame and how much of it has left.
/// Every writable wake-up resumes there until the frame drains or the
/// sweep finds it older than the write deadline — a non-reading peer
/// cannot hold the buffer longer.
struct PendingWrite {
    frame: Vec<u8>,
    sent: usize,
    started: Instant,
}

/// Advances the pending write with as many `write` calls as the socket
/// accepts. `Ok(true)` = fully flushed, `Ok(false)` = would block (arm for
/// writability); an error means the connection must close.
fn try_flush(conn: &mut Conn) -> io::Result<bool> {
    let Some(out) = conn.out.as_mut() else {
        return Ok(true);
    };
    while out.sent < out.frame.len() {
        match conn.stream.write(&out.frame[out.sent..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                out.sent += n;
                conn.moved += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    conn.out = None;
    Ok(true)
}

/// A running server. [`shutdown`](Self::shutdown) (or drop) wakes and
/// joins every worker; a request being handled finishes first.
pub struct ServerHandle {
    addr: SocketAddr,
    poller: Arc<Poller>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks on the stop latch until the stop flag is set — by
    /// [`shutdown`](Self::shutdown) or by a client's `Request::Shutdown`
    /// when `allow_shutdown` is on — or `deadline` passes (`None`: no
    /// deadline); returns whether the stop came. Lets a hosting process
    /// (the `sickle-serve` binary) exit the moment a client's `Shutdown`
    /// lands instead of sleeping out its window; a past deadline makes it
    /// a non-blocking check.
    ///
    /// # Errors
    /// A failed `poll` on the latch.
    pub fn wait_for_stop(&self, deadline: Option<Instant>) -> io::Result<bool> {
        self.poller.wait_stopped(deadline)
    }

    /// Signals every worker to stop and joins them; the last one out
    /// closes the listener and every parked connection.
    pub fn shutdown(&mut self) {
        self.poller.stop();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds and starts serving a store.
///
/// # Errors
/// I/O errors from binding the listener or setting up the poller.
pub fn serve(store: Arc<ShardStore>, cfg: ServeConfig) -> io::Result<ServerHandle> {
    serve_with(store, cfg, WRITE_DEADLINE)
}

/// [`serve`] with the write deadline as a parameter, so the unit test can
/// watch a non-reading peer being cut without waiting out the real one.
fn serve_with(
    store: Arc<ShardStore>,
    cfg: ServeConfig,
    write_deadline: Duration,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    sickle_obs::info!("serve", "listening on {addr}");

    let poller = Arc::new(Poller::new()?);
    poller.arm(&listener, LISTENER, Interest::Readable)?;
    let plan = cfg.fault_plan.clone().unwrap_or_else(FaultPlan::none);
    let threads = cfg.threads.max(1);
    let shared = Arc::new(Shared {
        keys: store.keys(),
        prefetcher: Prefetcher::new(Arc::clone(&store)),
        injector: FaultInjector::new(plan),
        store,
        cfg,
        write_deadline,
        conns: ConnRegistry::default(),
        listener,
        poller: Arc::clone(&poller),
        parked: Mutex::new(HashMap::new()),
        next_token: AtomicU64::new(0),
        next_conn: AtomicUsize::new(0),
        accept_stalled: AtomicBool::new(false),
    });

    let mut handle = ServerHandle {
        addr,
        poller,
        workers: Vec::with_capacity(threads),
    };
    for w in 0..threads {
        let shared = Arc::clone(&shared);
        // A spawn can fail under fd/thread exhaustion; returning drops the
        // handle, which stops and joins the part of the pool that started.
        let worker = std::thread::Builder::new()
            .name(format!("sickle-serve-worker-{w}"))
            .spawn(move || worker_loop(&shared, w == 0))?;
        handle.workers.push(worker);
    }
    Ok(handle)
}

fn parked(shared: &Shared) -> MutexGuard<'_, HashMap<u64, Conn>> {
    shared.parked.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arms `conn` and files it in the parked table, under one lock hold: the
/// worker the next event goes to must find it there, and the sweep must
/// not close (and the kernel reuse) the descriptor between the two steps.
/// A connection that cannot be armed is dropped, which closes it.
fn park(shared: &Shared, conn: Conn, interest: Interest) {
    let mut table = parked(shared);
    let armed = shared.poller.arm(&conn.stream, conn.token, interest);
    if armed.is_ok() {
        table.insert(conn.token, conn);
    }
}

/// One worker: block until something is ready, serve exactly that, re-arm
/// it, repeat. The `timekeeper` (worker 0) also bounds its wait by the
/// timer tick and runs the sweep when it is due; the others wait without
/// a timeout, so an idle server wakes once per tick, not once per worker.
fn worker_loop(shared: &Shared, timekeeper: bool) {
    let tick = shared.cfg.read_timeout.max(Duration::from_millis(1));
    let mut next_sweep = Instant::now() + tick;
    loop {
        let timeout = timekeeper.then(|| next_sweep.saturating_duration_since(Instant::now()));
        let event = shared.poller.wait(timeout);
        if shared.poller.stopped() {
            return;
        }
        let mut useful = match event {
            Ok(Some(LISTENER)) => accept_ready(shared),
            Ok(Some(token)) => serve_ready(shared, token),
            Ok(None) => false,
            Err(e) => {
                sickle_obs::info!("serve", "poller failed, stopping: {e}");
                shared.poller.stop();
                return;
            }
        };
        if timekeeper && Instant::now() >= next_sweep {
            useful |= sweep(shared);
            next_sweep = Instant::now() + tick;
        }
        shared.conns.note_wakeup(useful);
    }
}

/// Takes up to [`ACCEPT_BURST`] arrivals off the listener and re-arms it.
/// Returns whether any arrived.
fn accept_ready(shared: &Shared) -> bool {
    let mut arrived = false;
    for _ in 0..ACCEPT_BURST {
        match shared.listener.accept() {
            Ok((stream, _peer)) => {
                arrived = true;
                admit(stream, shared);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
            Err(_) => {
                shared.accept_stalled.store(true, Ordering::SeqCst);
                return arrived;
            }
        }
    }
    arm_listener(shared);
    arrived
}

fn arm_listener(shared: &Shared) {
    let armed = shared
        .poller
        .arm(&shared.listener, LISTENER, Interest::Readable);
    if let Err(e) = armed {
        sickle_obs::info!("serve", "cannot re-arm the listener: {e}");
    }
}

/// Registers one arrival: as a served connection, or — past the admission
/// bound — as a shed one that got its `Busy` frame and now only drains.
fn admit(mut stream: TcpStream, shared: &Shared) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let bound = shared.cfg.max_conns;
    let (id, guard) = if bound > 0 && shared.conns.open_count() >= bound {
        if !send_busy(&mut stream, bound) {
            return;
        }
        (usize::MAX, None)
    } else {
        sickle_obs::counter!("serve.conn.accepted", 1usize);
        let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        (id, Some(shared.conns.register()))
    };
    let now = Instant::now();
    let conn = Conn {
        stream,
        token: shared.next_token.fetch_add(1, Ordering::Relaxed),
        id,
        buf: Vec::new(),
        last_activity: now,
        accepted: Some(now),
        out: None,
        moved: 0,
        guard,
    };
    park(shared, conn, Interest::Readable);
}

/// Answers an over-bound arrival with one `Busy` frame and half-closes.
/// The socket is fresh from accept with an empty send buffer, so the small
/// frame goes out whole or fails on the spot, and the counter only moves
/// when it went out: the overload test equates it with client-observed
/// busy retries. The caller keeps the connection parked until the peer
/// hangs up (or one `read_timeout` passes): closing with unread request
/// bytes in the receive buffer would RST the connection and could destroy
/// the `Busy` frame before the peer reads it — breaking that ledger.
fn send_busy(stream: &mut TcpStream, bound: usize) -> bool {
    let frame = Response::Error {
        kind: WireErrorKind::Busy,
        message: format!("server at its {bound}-connection admission bound; retry with backoff"),
    }
    .encode_frame();
    if stream.write_all(&frame).is_err() {
        return false;
    }
    sickle_obs::counter!("serve.shed", 1usize);
    let _ = stream.shutdown(Shutdown::Write);
    true
}

/// Serves the connection a wake-up named, then parks or closes it.
/// Returns whether the wake-up achieved anything.
fn serve_ready(shared: &Shared, token: u64) -> bool {
    // Absent: the sweep expired it after the kernel had queued the event.
    let Some(mut conn) = parked(shared).remove(&token) else {
        return false;
    };
    if let Some(accepted) = conn.accepted.take() {
        sickle_obs::histogram!("serve.queue_wait_us", accepted.elapsed().as_micros() as f64);
    }
    let before = conn.moved;
    match service(&mut conn, shared) {
        Some(interest) => {
            let moved = conn.moved != before;
            park(shared, conn, interest);
            moved
        }
        None => true, // dropping `conn` closes the socket and deregisters
    }
}

/// Closes what is overdue in the parked table — a response older than the
/// write deadline, a served connection silent for the idle window, a shed
/// one silent for one `read_timeout` — and re-arms a listener that
/// `accept_ready` left muted. Returns whether anything was closed.
fn sweep(shared: &Shared) -> bool {
    if shared.accept_stalled.swap(false, Ordering::SeqCst) {
        arm_listener(shared);
    }
    let window = shared.cfg.read_timeout * shared.cfg.idle_timeouts.max(1);
    let mut table = parked(shared);
    let before = table.len();
    table.retain(|_, conn| {
        if let Some(out) = &conn.out {
            // Mid-write the peer's buffer is full, not the peer silent:
            // the write deadline bounds this state, not the idle window.
            let stalled = out.started.elapsed() >= shared.write_deadline;
            if stalled {
                sickle_obs::counter!("serve.conn.write_stalled", 1usize);
            }
            !stalled
        } else if conn.guard.is_some() {
            let idle = conn.last_activity.elapsed() > window;
            if idle {
                sickle_obs::counter!("serve.conn.idle_closed", 1usize);
            }
            !idle
        } else {
            conn.last_activity.elapsed() <= shared.cfg.read_timeout
        }
    });
    table.len() != before
}

/// One visit to a ready connection: finish any in-flight response, pull
/// whatever bytes are ready, answer every complete frame. Returns what to
/// arm the connection for next, or `None` to close it (peer gone, fault
/// fired, protocol breach).
fn service(conn: &mut Conn, shared: &Shared) -> Option<Interest> {
    // Drain the pending write before touching reads: responses must leave
    // in order, and the request/response protocol means the peer is
    // blocked on this response anyway.
    if conn.out.is_some() {
        match try_flush(conn) {
            Ok(true) => conn.last_activity = Instant::now(),
            Ok(false) => return Some(Interest::Writable),
            Err(_) => {
                sickle_obs::counter!("serve.conn.write_stalled", 1usize);
                return None;
            }
        }
    }
    let mut chunk = [0u8; 16 * 1024];
    loop {
        // A hostile length prefix closes the connection before any
        // allocation — same discipline as the blocking read_frame had.
        if conn.buf.len() >= FRAME_HEADER {
            let len = frame_len(&conn.buf);
            if len > MAX_FRAME {
                sickle_obs::counter!("serve.request.malformed", 1usize);
                return None;
            }
            if conn.buf.len() >= FRAME_HEADER + len {
                break; // complete frame buffered; go answer it
            }
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => return None, // EOF: client is gone
            Ok(n) => {
                conn.moved += n as u64;
                if conn.guard.is_some() {
                    conn.buf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    // Answer every complete frame (the protocol is request/response per
    // connection, so normally at most one is waiting). The request is
    // decoded straight out of the connection buffer — no payload copy —
    // and the loop stops if an answer parks a pending write.
    while conn.out.is_none()
        && conn.buf.len() >= FRAME_HEADER
        && conn.buf.len() >= FRAME_HEADER + frame_len(&conn.buf)
    {
        let len = frame_len(&conn.buf);
        let tag = conn.buf[0];
        let decoded =
            Request::decode_with_context(tag, &conn.buf[FRAME_HEADER..FRAME_HEADER + len]);
        conn.buf.drain(..FRAME_HEADER + len);
        if !handle_request(conn, decoded, len, shared) || shared.poller.stopped() {
            return None;
        }
    }
    Some(if conn.out.is_some() {
        Interest::Writable
    } else {
        Interest::Readable
    })
}

fn frame_len(buf: &[u8]) -> usize {
    u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize
}

/// Answers one request on `conn`. Returns `false` when the connection
/// must close (fault fired, write failed).
fn handle_request(
    conn: &mut Conn,
    decoded: io::Result<(Request, Option<TraceContext>)>,
    payload_len: usize,
    shared: &Shared,
) -> bool {
    let t0 = Instant::now();
    match shared.injector.on_cube(conn.id) {
        FaultAction::Proceed | FaultAction::Poison => {}
        FaultAction::Delay(d) => std::thread::sleep(d),
        FaultAction::Kill => {
            sickle_obs::counter!("serve.conn.killed", 1usize);
            let _ = conn.stream.shutdown(Shutdown::Both);
            return false;
        }
        FaultAction::Drop => {
            sickle_obs::counter!("serve.conn.dropped", 1usize);
            sever_mid_response(conn, decoded, shared);
            return false;
        }
    }

    // A request carrying a trace context parents this span under the
    // *client's* span (cross-process link in the merged trace).
    let parent = match &decoded {
        Ok((_, Some(ctx))) => ctx.span_id,
        _ => sickle_obs::current_span_id(),
    };
    let req_span = sickle_obs::child_span!(parent, "serve.request", conn = conn.id);
    if decoded.is_err() {
        sickle_obs::counter!("serve.request.malformed", 1usize);
    }
    let resp = answer(decoded, shared);

    // The response goes out as one contiguous frame; a short write parks
    // continuation state on the connection instead of pinning this worker.
    let enc0 = Instant::now();
    let frame = {
        let _s = sickle_obs::span!("serve.encode");
        resp.encode_frame()
    };
    sickle_obs::histogram!("serve.encode_us", enc0.elapsed().as_micros() as f64);
    let bytes_out = frame.len() as u64;
    conn.out = Some(PendingWrite {
        frame,
        sent: 0,
        started: Instant::now(),
    });
    // The request is answered once its bytes are queued, so it is counted
    // before the first write: a client can hold the whole response only
    // after the counters show it. An unflushed tail drains on later
    // writable wake-ups.
    let bytes_in = (FRAME_HEADER + payload_len) as u64;
    if let Some(guard) = &conn.guard {
        guard.counters().record(bytes_in, bytes_out);
    }
    sickle_obs::counter!("store.serve.requests", 1usize);
    sickle_obs::counter!("store.serve.bytes_in", bytes_in);
    sickle_obs::counter!("store.serve.bytes_out", bytes_out);
    let flushed = {
        let _s = sickle_obs::span!("serve.write", bytes = bytes_out as usize - FRAME_HEADER);
        try_flush(conn)
    };
    drop(req_span);
    if flushed.is_err() {
        sickle_obs::counter!("serve.conn.write_stalled", 1usize);
        return false;
    }
    sickle_obs::histogram!("serve.request_us", t0.elapsed().as_micros() as f64);
    sickle_obs::counter!("serve.request.ok", 1usize);
    true
}

/// Builds the real response, writes a deliberately truncated frame, and
/// cuts the socket — the injected `drop` fault. The client observes a
/// mid-frame EOF, which its retry loop must treat as transient. This is
/// the server's one blocking write, bounded by a socket timeout: a
/// connection about to be cut has no continuation worth parking.
fn sever_mid_response(
    conn: &mut Conn,
    decoded: io::Result<(Request, Option<TraceContext>)>,
    shared: &Shared,
) {
    let mut frame = answer(decoded, shared).encode_frame();
    frame.truncate(FRAME_HEADER + (frame.len() - FRAME_HEADER) / 2);
    let _ = conn.stream.set_nonblocking(false);
    let _ = conn.stream.set_write_timeout(Some(shared.cfg.read_timeout));
    let _ = conn.stream.write_all(&frame);
    let _ = conn.stream.shutdown(Shutdown::Both);
}

fn answer(decoded: io::Result<(Request, Option<TraceContext>)>, shared: &Shared) -> Response {
    decoded
        .and_then(|(req, _)| serve_request(req, shared))
        .unwrap_or_else(|e| Response::from_error(&e))
}

fn serve_request(req: Request, shared: &Shared) -> io::Result<Response> {
    match req {
        Request::Manifest => {
            let json = serde_json::to_string(shared.store.manifest())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            Ok(Response::Manifest(json.into_bytes()))
        }
        Request::GetBatch { spec, index } => {
            let index = usize::try_from(index).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "batch index overflows usize")
            })?;
            let keys = batch_keys(&shared.keys, spec, index).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!(
                        "batch {index} out of range ({} batches per epoch)",
                        num_batches(shared.keys.len(), spec.batch_size)
                    ),
                )
            })?;
            // Hint only once this batch is in hand: the prefetcher's reads
            // then overlap the response write and the client's think time,
            // not this request's own cache misses.
            let reply = assemble(shared, &keys, spec.tokens)?;
            hint_lookahead(shared, spec, index);
            Ok(reply)
        }
        Request::GetTensors { tokens, keys } => assemble(shared, &keys, tokens as usize),
        Request::Stats => Ok(Response::Stats(
            StatsSnapshot::collect(&shared.conns)
                .with_manifest(shared.store.manifest())
                .to_json(),
        )),
        Request::Shutdown => {
            if !shared.cfg.allow_shutdown {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "shutdown not enabled on this server (start with allow_shutdown)",
                ));
            }
            // Snapshot first, then raise the stop flag: the response still
            // goes out (the worker re-checks stop only after answering),
            // and it doubles as the server's final stats.
            let snap = StatsSnapshot::collect(&shared.conns).with_manifest(shared.store.manifest());
            sickle_obs::info!("serve", "shutdown requested by client");
            shared.poller.stop();
            Ok(Response::Stats(snap.to_json()))
        }
    }
}

/// Fetches each key's decoded set and cached targets through the store, in
/// order, and hands the pairs to the one batch assembler. `GetBatch`
/// (server-chosen keys) and `GetTensors` (client-chosen keys) both answer
/// with its `Batch` frame, so the two cannot disagree on a byte.
///
/// `tokens` and the key count come off the wire, so the frame is sized
/// first, from the features the manifest names: a batch that could not be
/// framed is refused with `InvalidData` before anything is fetched or
/// allocated (`u32::MAX` tokens would ask for tens of GB).
fn assemble(shared: &Shared, keys: &[ShardKey], tokens: usize) -> io::Result<Response> {
    let features = shared.store.manifest().feature_names.len();
    let shape = BatchShape {
        batch: keys.len(),
        tokens,
        features,
        outputs: features,
    };
    if batch_payload_len(shape).is_none_or(|len| len > MAX_FRAME) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "a batch of {} samples x {tokens} tokens x {features} features \
                 exceeds the {MAX_FRAME}-byte frame cap",
                keys.len()
            ),
        ));
    }
    let resident = keys
        .iter()
        .map(|&k| shared.store.resident(k))
        .collect::<io::Result<Vec<_>>>()?;
    let _s = sickle_obs::span!("serve.assemble_batch");
    let pairs: Vec<_> = resident.iter().map(DecodedShard::pair).collect();
    Ok(Response::Batch(assemble_batch(&pairs, tokens)?))
}

/// Warms the cache for the batches this stream will likely ask for next.
fn hint_lookahead(shared: &Shared, spec: BatchSpec, index: usize) {
    for ahead in 1..=shared.cfg.lookahead {
        if let Some(next) = batch_keys(&shared.keys, spec, index + ahead) {
            let cold: Vec<ShardKey> = next
                .into_iter()
                .filter(|&k| !shared.store.is_cached(k))
                .collect();
            shared.prefetcher.hint(&cold);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::StoreClient;
    use crate::protocol::write_frame;
    use crate::store::StoreConfig;

    /// A peer that pipelines large `GetBatch`es and never reads leaves a
    /// response parked on writability for good; only the sweep can end
    /// that, and it must — at the write deadline, here shortened through
    /// `serve_with`.
    #[test]
    fn peer_that_never_reads_is_cut_at_the_write_deadline() {
        let root = std::env::temp_dir().join(format!("sickle_write_cut_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let out = crate::testutil::small_output(1, 1, 1 << 16);
        let store = ShardStore::ingest(&root, &out, StoreConfig::default()).unwrap();
        let cfg = ServeConfig {
            read_timeout: Duration::from_millis(10),
            ..ServeConfig::default()
        };
        let handle = serve_with(Arc::new(store), cfg, Duration::from_millis(100)).unwrap();

        let mut peer = TcpStream::connect(handle.addr()).unwrap();
        // One set, 2^17 tokens of 2 features: a 1 MiB frame per request.
        let (tag, payload) = Request::GetBatch {
            spec: BatchSpec {
                seed: 0,
                batch_size: 1,
                tokens: 1 << 17,
            },
            index: 0,
        }
        .encode();
        for _ in 0..64 {
            write_frame(&mut peer, tag, &payload).unwrap();
        }
        // Each stats round trip paces the wait; no timer on this side.
        let mut observer = StoreClient::connect(handle.addr().to_string());
        let give_up = Instant::now() + Duration::from_secs(5);
        while observer.stats().unwrap().connections_open > 1 {
            assert!(Instant::now() < give_up, "the stalled peer was never cut");
        }
        // What the kernel had buffered is still readable; then the stream
        // ends (EOF or reset) far short of the 64 responses.
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let (mut sink, mut got) = (vec![0u8; 1 << 16], 0usize);
        while let Ok(n @ 1..) = peer.read(&mut sink) {
            got += n;
        }
        assert!(got > 0 && got < 32 << 20, "{got} bytes of 64 x 1 MiB");
        drop(handle);
        std::fs::remove_dir_all(&root).ok();
    }
}
