//! Streaming client for the serving plane, with reconnect-and-retry.
//!
//! Transient failures — a refused or dropped connection, a timeout, a
//! frame cut off mid-read (exactly what the `drop@conn:request` fault
//! injects) — are retried on a **fresh connection** with seeded
//! decorrelated-jitter backoff ([`Backoff`]), so a fleet of clients
//! recovering from the same outage spreads its retries instead of
//! re-forming a thundering herd. Retries are safe because every request is
//! a pure read: refetching batch `i` returns the same bytes, so a retry
//! can neither duplicate nor lose samples. An error *frame* from the
//! server is a definitive answer (the request itself is wrong) and is
//! returned immediately — with one exception: a
//! [`Busy`](crate::protocol::WireErrorKind::Busy) frame is the server's
//! explicit backpressure signal and is retried under its own (larger)
//! budget, since overload clears on a different timescale than a flaky
//! network. (`shutdown` is the one non-read request; it is idempotent —
//! stop is a latch — so the same retry loop is still safe.)
//!
//! When tracing is enabled, every request opens a `client.request` span
//! and ships its [`TraceContext`](sickle_obs::TraceContext) in the frame
//! trailer, so the server's per-request spans nest under this client's in
//! a merged trace. With tracing disabled the frames are byte-identical to
//! an un-instrumented client's.

use std::io;
use std::net::TcpStream;
use std::time::Duration;

use sickle_field::io::fnv1a64;

use crate::backoff::Backoff;
use crate::batching::{Batch, BatchSpec};
use crate::manifest::{ShardKey, StoreManifest};
use crate::protocol::{read_frame, write_frame, Request, Response, WireErrorKind};
use crate::stats::StatsSnapshot;

/// Client retry/timeout tuning.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Additional attempts after the first *transport* failure.
    pub retries: u32,
    /// Base retry delay: each sleep is drawn from `[backoff, prev * 3]`
    /// capped at `backoff_cap` (decorrelated jitter).
    pub backoff: Duration,
    /// Ceiling on any single retry delay.
    pub backoff_cap: Duration,
    /// How many `Busy` frames to absorb per request before giving up.
    /// Deliberately larger than `retries`: overload is expected to clear.
    pub busy_budget: u32,
    /// Seed for the jitter schedule. Give each client of a fleet its own
    /// seed so their retry schedules decollide; the server address is
    /// mixed in, so one seed already decollides across servers.
    pub seed: u64,
    /// Socket read timeout per response.
    pub timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            retries: 3,
            backoff: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            busy_budget: 32,
            seed: 0,
            timeout: Duration::from_secs(5),
        }
    }
}

/// A connection-caching client for one server address.
pub struct StoreClient {
    addr: String,
    cfg: ClientConfig,
    conn: Option<TcpStream>,
    backoff: Backoff,
    busy_retries: u64,
}

impl StoreClient {
    /// Creates a client for `addr` (`host:port`). No connection is made
    /// until the first request.
    pub fn new(addr: impl Into<String>, cfg: ClientConfig) -> Self {
        let addr = addr.into();
        let seed = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(fnv1a64(addr.as_bytes()));
        StoreClient {
            backoff: Backoff::new(seed, cfg.backoff, cfg.backoff_cap),
            addr,
            cfg,
            conn: None,
            busy_retries: 0,
        }
    }

    /// Client with default tuning.
    pub fn connect(addr: impl Into<String>) -> Self {
        Self::new(addr, ClientConfig::default())
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// How many `Busy` frames this client has absorbed and retried over
    /// its lifetime. The overload test reconciles the sum across clients
    /// against the server's shed counter.
    pub fn busy_retries(&self) -> u64 {
        self.busy_retries
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        match &mut self.conn {
            Some(stream) => Ok(stream),
            conn @ None => {
                let stream = TcpStream::connect(&self.addr)?;
                stream.set_read_timeout(Some(self.cfg.timeout))?;
                stream.set_nodelay(true)?;
                Ok(conn.insert(stream))
            }
        }
    }

    fn try_once(&mut self, tag: u8, payload: &[u8]) -> io::Result<Response> {
        let stream = self.stream()?;
        write_frame(stream, tag, payload)?;
        let (rtag, rpayload) = read_frame(stream)?;
        Response::decode(rtag, &rpayload)
    }

    /// Sends one request, retrying transient failures on a fresh
    /// connection and `Busy` backpressure under its own budget.
    ///
    /// # Errors
    /// The server's error frame mapped back to an [`io::Error`], the last
    /// transport error once retries are exhausted, or `WouldBlock` once
    /// the busy budget is exhausted.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        // Span first, then capture the context, so the trailer names this
        // request's own span as the server's parent.
        let _span = sickle_obs::span!("client.request");
        let ctx = sickle_obs::enabled().then(sickle_obs::current_context);
        let (tag, payload) = req.encode_traced(ctx);
        let mut transport_attempts = 0u32;
        let mut busy_seen = 0u32;
        loop {
            match self.try_once(tag, &payload) {
                Ok(Response::Error { kind, message }) if kind == WireErrorKind::Busy => {
                    // A shed server closes right after the Busy frame, so
                    // the cached connection is dead either way.
                    self.conn = None;
                    if busy_seen >= self.cfg.busy_budget {
                        return Err(io::Error::new(kind.to_io(), message));
                    }
                    busy_seen += 1;
                    self.busy_retries += 1;
                    sickle_obs::counter!("store.client.busy_retry", 1usize);
                    std::thread::sleep(self.backoff.next_delay());
                }
                Ok(Response::Error { kind, message }) => {
                    return Err(io::Error::new(kind.to_io(), message));
                }
                Ok(resp) => {
                    self.backoff.reset();
                    return Ok(resp);
                }
                Err(e) => {
                    // Any transport/decode failure makes the cached
                    // connection suspect; the next attempt reconnects.
                    if self.conn.take().is_some() {
                        sickle_obs::counter!("store.client.reconnect", 1usize);
                    }
                    if transport_attempts >= self.cfg.retries {
                        return Err(e);
                    }
                    transport_attempts += 1;
                    sickle_obs::counter!("store.client.retry", 1usize);
                    std::thread::sleep(self.backoff.next_delay());
                }
            }
        }
    }

    /// Fetches and parses the store manifest.
    ///
    /// # Errors
    /// Transport errors or `InvalidData` on unparseable JSON.
    pub fn manifest(&mut self) -> io::Result<StoreManifest> {
        match self.request(&Request::Manifest)? {
            Response::Manifest(json) => serde_json::from_str(
                std::str::from_utf8(&json)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
            )
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            other => Err(unexpected(&other, "manifest")),
        }
    }

    /// Fetches batch `index` of the epoch described by `spec`.
    ///
    /// # Errors
    /// `NotFound` past the last batch; transport errors.
    pub fn batch(&mut self, spec: BatchSpec, index: usize) -> io::Result<Batch> {
        match self.request(&Request::GetBatch {
            spec,
            index: index as u64,
        })? {
            Response::Batch(batch) => Ok(batch),
            other => Err(unexpected(&other, "batch")),
        }
    }

    /// Fetches the batch made of an explicit key list, sample `i` being
    /// key `i` — the keyed counterpart of [`batch`](Self::batch), answered
    /// with the same frame.
    ///
    /// # Errors
    /// `NotFound` for an unknown key, `InvalidData` for an empty key list;
    /// transport errors.
    pub fn tensors(&mut self, tokens: usize, keys: &[ShardKey]) -> io::Result<Batch> {
        match self.request(&Request::GetTensors {
            tokens: tokens as u32,
            keys: keys.to_vec(),
        })? {
            Response::Batch(batch) => Ok(batch),
            other => Err(unexpected(&other, "batch")),
        }
    }

    /// Fetches the server's live stats snapshot.
    ///
    /// # Errors
    /// Transport errors or `InvalidData` on unparseable stats JSON.
    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        match self.request(&Request::Stats)? {
            Response::Stats(json) => StatsSnapshot::from_json(&json)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
            other => Err(unexpected(&other, "stats")),
        }
    }

    /// Asks the server to stop, returning its final stats snapshot. The
    /// server must have been started with `allow_shutdown`; otherwise this
    /// returns the server's `InvalidData` error frame.
    ///
    /// # Errors
    /// `InvalidData` when the server refuses; transport errors.
    pub fn shutdown_server(&mut self) -> io::Result<StatsSnapshot> {
        match self.request(&Request::Shutdown)? {
            Response::Stats(json) => StatsSnapshot::from_json(&json)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
            other => Err(unexpected(&other, "stats")),
        }
    }
}

fn unexpected(resp: &Response, wanted: &str) -> io::Error {
    let got = match resp {
        Response::Manifest(_) => "manifest",
        Response::Batch(_) => "batch",
        Response::Stats(_) => "stats",
        Response::Error { .. } => "error",
    };
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("expected {wanted} response, got {got}"),
    )
}
