//! Blocking wire client: one TCP connection, synchronous calls plus
//! explicit pipelining primitives for throughput-oriented callers.
//!
//! ## Failure model
//!
//! The client is built for an impolite network. Every socket operation is
//! bounded by a [`ClientConfig`] timeout, and the **idempotent**
//! synchronous calls ([`WireClient::ping`], [`WireClient::list_models`],
//! [`WireClient::stats`], [`WireClient::health`], [`WireClient::infer`])
//! are retried over a fresh connection with capped exponential backoff —
//! but only while it is provably safe: a call is retried **only if no
//! byte of its reply has arrived and no pipelined request is
//! outstanding**. Once reply bytes exist, the server may have executed
//! the request and the stream position is unknown, so the connection is
//! hard-closed instead and the error is returned. Pipelined
//! [`WireClient::send_infer`] traffic is **never** retried — replaying a
//! stream with unknown server progress could pair replies with the wrong
//! requests.
//!
//! Any framing or decode error likewise hard-closes the connection: a
//! desynchronized stream can never return a wrong-request reply, it can
//! only fail typed.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use circnn_serve::ServeStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::WireError;
use crate::frame::{self, HealthInfo, ModelInfo, Reply, Request, MAX_PAYLOAD};

/// Timeout and retry policy of a [`WireClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection (per resolved address);
    /// `None` blocks indefinitely.
    pub connect_timeout: Option<Duration>,
    /// Bound on waiting for reply bytes; `None` blocks indefinitely.
    pub read_timeout: Option<Duration>,
    /// Bound on writing request bytes (a peer that stops reading cannot
    /// wedge the caller); `None` blocks indefinitely.
    pub write_timeout: Option<Duration>,
    /// Retry budget for idempotent synchronous calls: how many times a
    /// safely-retryable failure is retried over a fresh connection before
    /// surfacing as [`WireError::RetriesExhausted`]. `0` disables retries.
    pub retries: u32,
    /// First backoff delay; each retry doubles it (capped at
    /// [`ClientConfig::backoff_cap`]) and applies jitter in `[0.5, 1.5)`.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff delay.
    pub backoff_cap: Duration,
    /// Seed of the deterministic jitter stream (two clients with the same
    /// seed back off identically — tests stay reproducible).
    pub retry_seed: u64,
}

impl Default for ClientConfig {
    /// 10 s connect, 30 s read/write, 2 retries backing off from 10 ms
    /// (capped at 1 s).
    fn default() -> Self {
        Self {
            connect_timeout: Some(Duration::from_secs(10)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            retries: 2,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
            retry_seed: 0x5eed_c1bc,
        }
    }
}

/// What kind of pipelined request one outstanding slot holds — receives
/// must redeem slots in send order and with the matching `recv_*` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingKind {
    Infer,
    Segment {
        row_start: u32,
        row_end: u32,
        batch: u32,
    },
}

/// One pipelined request awaiting its reply.
struct PendingReq {
    id: u64,
    kind: PendingKind,
}

/// Counts the bytes pulled through a reader, so the retry logic can
/// distinguish "the reply never started" (safe to retry an idempotent
/// call) from "the reply was cut off mid-frame" (the server may have
/// executed the request; never retry).
struct TrackedReader<'a> {
    inner: &'a mut TcpStream,
    progressed: &'a mut bool,
}

impl Read for TrackedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 {
            *self.progressed = true;
        }
        Ok(n)
    }
}

/// A blocking client over one connection.
///
/// Simple callers use the synchronous round-trip methods
/// ([`WireClient::infer`], [`WireClient::list_models`], …). A caller can
/// also pipeline: issue several [`WireClient::send_infer`]s, then collect
/// the matching [`WireClient::recv_infer`]s in the same order — that is
/// what keeps the server's batcher fed from a single socket. Every
/// request carries an id, so replies that complete out of order on the
/// socket are still handed back in send order.
///
/// See [`ClientConfig`] for the timeout/retry failure model; configure
/// it with [`WireClient::connect_with`].
pub struct WireClient {
    stream: TcpStream,
    /// Reused frame buffer (encode and decode share it).
    buf: Vec<u8>,
    cfg: ClientConfig,
    /// Resolved peer addresses, kept for reconnection.
    addrs: Vec<SocketAddr>,
    /// Set once the stream can no longer be trusted (I/O failure, torn or
    /// malformed frame). A broken stream is never read again; the next
    /// idempotent call reconnects.
    broken: bool,
    /// Pipelined requests sent but not yet received, in send order.
    /// While nonempty, no call is retried (a replay could re-pair
    /// replies with requests).
    pending: VecDeque<PendingReq>,
    /// Replies that arrived out of order, parked until their `recv_*`
    /// call claims them by id.
    ready: HashMap<u64, Reply>,
    /// Next request id. Monotonic per connection from 1; ids of in-flight
    /// requests are unique, which is all the pairing needs.
    next_id: u64,
    /// Deterministic backoff jitter.
    rng: StdRng,
    /// Whether the last receive attempt saw any reply bytes.
    reply_started: bool,
}

impl core::fmt::Debug for WireClient {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("WireClient")
            .field("peer", &self.stream.peer_addr().ok())
            .field("broken", &self.broken)
            .field("in_flight", &self.pending.len())
            .finish()
    }
}

impl WireClient {
    /// Connects to an [`EventServer`](crate::EventServer) with the default
    /// [`ClientConfig`] — bounded connect/read/write and a small retry
    /// budget, so a black-holed address fails in seconds instead of
    /// hanging forever.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with an explicit timeout/retry policy.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; fails with [`WireError::Malformed`] if
    /// `addr` resolves to no addresses.
    pub fn connect_with(addr: impl ToSocketAddrs, cfg: ClientConfig) -> Result<Self, WireError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = Self::open_stream(&addrs, &cfg)?;
        let rng = StdRng::seed_from_u64(cfg.retry_seed);
        Ok(Self {
            stream,
            buf: Vec::new(),
            cfg,
            addrs,
            broken: false,
            pending: VecDeque::new(),
            ready: HashMap::new(),
            next_id: 1,
            rng,
            reply_started: false,
        })
    }

    /// Opens and configures one TCP stream, trying every resolved address.
    fn open_stream(addrs: &[SocketAddr], cfg: &ClientConfig) -> Result<TcpStream, WireError> {
        let mut last: Option<io::Error> = None;
        for addr in addrs {
            let attempt = match cfg.connect_timeout {
                Some(t) => TcpStream::connect_timeout(addr, t),
                None => TcpStream::connect(addr),
            };
            match attempt {
                Ok(stream) => {
                    // Frames are single contiguous writes; coalescing them
                    // behind Nagle only adds latency.
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(cfg.read_timeout);
                    let _ = stream.set_write_timeout(cfg.write_timeout);
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(match last {
            Some(e) => WireError::Io(e),
            None => WireError::Malformed("address resolved to no socket addresses"),
        })
    }

    /// Marks the stream untrustworthy and closes it. After a framing or
    /// decode failure the stream position is unknown — reading on could
    /// pair a stale reply with the wrong request, so the connection dies
    /// instead.
    fn hard_close(&mut self) {
        self.broken = true;
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Replaces a broken stream with a freshly connected one. Any
    /// pipelined requests outstanding on the old stream are lost (their
    /// [`WireClient::recv_infer`]s fail typed).
    fn reconnect(&mut self) -> Result<(), WireError> {
        let stream = Self::open_stream(&self.addrs, &self.cfg)?;
        self.stream = stream;
        self.broken = false;
        self.pending.clear();
        self.ready.clear();
        Ok(())
    }

    /// Whether `e` is safe to retry: the failure must be at the transport
    /// level, before any reply byte arrived, with no pipelined request
    /// outstanding. Anything else either already has an answer (a typed
    /// remote error) or has unknown server-side progress.
    fn retryable(&self, e: &WireError) -> bool {
        self.pending.is_empty() && !self.reply_started && matches!(e, WireError::Io(_))
    }

    /// Sleeps the capped exponential backoff delay for retry `attempt`
    /// (1-based), with deterministic jitter in `[0.5, 1.5)`.
    fn backoff(&mut self, attempt: u32) {
        let base = self.cfg.backoff_base.as_secs_f64();
        let cap = self.cfg.backoff_cap.as_secs_f64();
        let exp = base * f64::powi(2.0, attempt.saturating_sub(1).min(31) as i32);
        let jitter = 0.5 + self.rng.gen::<f64>();
        let delay = (exp * jitter).min(cap);
        if delay > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(delay));
        }
    }

    /// One request/reply round trip with no retry.
    fn attempt(&mut self, req: &Request) -> Result<Reply, WireError> {
        if self.broken {
            self.reconnect()?;
        }
        let id = self.send(req)?;
        self.recv(id)
    }

    /// Round-trips an **idempotent** request, retrying safely-retryable
    /// failures over fresh connections within the configured budget.
    fn call_idempotent(&mut self, req: &Request) -> Result<Reply, WireError> {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match self.attempt(req) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    if !self.retryable(&e) || self.cfg.retries == 0 {
                        return Err(e);
                    }
                    if attempts > self.cfg.retries {
                        return Err(WireError::RetriesExhausted {
                            attempts,
                            last: Box::new(e),
                        });
                    }
                    self.backoff(attempts);
                }
            }
        }
    }

    /// The reply was structurally valid but of the wrong kind — the stream
    /// is answering some other request, i.e. desynchronized. Hard-close so
    /// it can never mis-pair another reply.
    fn desync(&mut self, why: &'static str) -> WireError {
        self.hard_close();
        WireError::Malformed(why)
    }

    /// Encodes and writes one request, returning the id it was sent under
    /// (the reply must echo it).
    fn send(&mut self, req: &Request) -> Result<u64, WireError> {
        // Oversized requests would be rejected by the peer anyway; fail
        // before writing a frame that desynchronizes the stream. The name
        // bound also keeps the encoder's u16 string prefix exact (the
        // registry rejects names over MAX_NAME_LEN at registration, so a
        // longer name could never match a model).
        let model_len = match req {
            Request::Stats { model }
            | Request::Infer { model, .. }
            | Request::InferBatch { model, .. }
            | Request::InferSegment { model, .. } => model.len(),
            _ => 0,
        };
        if model_len > crate::MAX_NAME_LEN {
            return Err(WireError::Malformed("model name exceeds MAX_NAME_LEN"));
        }
        if let Request::Infer { model, input, .. }
        | Request::InferBatch { model, input, .. }
        | Request::InferSegment { model, input, .. } = req
        {
            // 32 bytes cover every fixed field of these frames.
            let payload = input.len() * 4 + model.len() + 32;
            if payload > MAX_PAYLOAD {
                return Err(WireError::Oversized {
                    len: payload,
                    max: MAX_PAYLOAD,
                });
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        frame::encode_request_v3(id, req, &mut self.buf);
        // The new round trip has not seen reply bytes yet.
        self.reply_started = false;
        if let Err(e) = frame::write_frame(&mut self.stream, &self.buf) {
            // Part of a frame may be on the wire; the stream cannot carry
            // another request.
            self.broken = true;
            return Err(e);
        }
        Ok(id)
    }

    /// Receives the reply for request `expected`. Replies for *other*
    /// outstanding pipelined requests may arrive first (out-of-order
    /// completion); they are parked in the ready stash by id. A reply
    /// whose id matches nothing outstanding means the stream is
    /// answering some other conversation — hard-close.
    fn recv(&mut self, expected: u64) -> Result<Reply, WireError> {
        loop {
            let mut progressed = false;
            let read = {
                let mut tracked = TrackedReader {
                    inner: &mut self.stream,
                    progressed: &mut progressed,
                };
                frame::read_frame(&mut tracked, &mut self.buf)
            };
            self.reply_started |= progressed;
            if let Err(e) = read {
                // EOF, timeout or a malformed header: either way the
                // stream cannot be re-synchronized.
                self.hard_close();
                return Err(e);
            }
            let (tag, reply) = match frame::decode_reply_tagged(&self.buf) {
                Ok(ok) => ok,
                Err(e) => {
                    // A structurally invalid reply payload: close rather
                    // than guess where the next frame starts.
                    self.hard_close();
                    return Err(e);
                }
            };
            if tag == Some(expected) {
                return match reply {
                    Reply::Error { code, message } => Err(WireError::Remote { code, message }),
                    reply => Ok(reply),
                };
            }
            match tag {
                // An id belonging to another outstanding request: park
                // its reply (typed errors included — the owning `recv_*`
                // surfaces them) and keep reading for ours.
                Some(id)
                    if self.pending.iter().any(|p| p.id == id) && !self.ready.contains_key(&id) =>
                {
                    self.ready.insert(id, reply);
                }
                // An untagged error: the server could not attribute the
                // failure to a request (a malformed frame verdict) and is
                // about to hang up.
                None => {
                    if let Reply::Error { code, message } = reply {
                        self.hard_close();
                        return Err(WireError::Remote { code, message });
                    }
                    return Err(self.desync("reply missing its request id"));
                }
                _ => return Err(self.desync("reply carries an unexpected request id")),
            }
        }
    }

    /// Liveness round trip (idempotent: retried per [`ClientConfig`]).
    ///
    /// # Errors
    ///
    /// Socket/protocol errors, or the server's typed error.
    pub fn ping(&mut self) -> Result<(), WireError> {
        match self.call_idempotent(&Request::Ping)? {
            Reply::Pong => Ok(()),
            _ => Err(self.desync("expected Pong")),
        }
    }

    /// Enumerates the registered models (name, geometry, queue depth).
    /// Idempotent: retried per [`ClientConfig`].
    ///
    /// # Errors
    ///
    /// Socket/protocol errors, or the server's typed error.
    pub fn list_models(&mut self) -> Result<Vec<ModelInfo>, WireError> {
        match self.call_idempotent(&Request::ListModels)? {
            Reply::ModelList(models) => Ok(models),
            _ => Err(self.desync("expected ModelList")),
        }
    }

    /// Fetches the server health snapshot: registry size plus per-tenant
    /// queue depths and shed/rejected/expired/panic counters. Idempotent:
    /// retried per [`ClientConfig`].
    ///
    /// # Errors
    ///
    /// Socket/protocol errors, or the server's typed error.
    pub fn health(&mut self) -> Result<HealthInfo, WireError> {
        match self.call_idempotent(&Request::Health)? {
            Reply::Health(health) => Ok(health),
            _ => Err(self.desync("expected Health")),
        }
    }

    /// A cheap readiness probe: one `Health` round trip bounded by
    /// `timeout`, **no retry budget consumed** — a single attempt that
    /// either answers within the bound or fails. This is what a router's
    /// health poller calls to decide whether a replica is routable: a
    /// down or wedged replica must cost one bounded probe, not a retry
    /// loop's worth of backoff.
    ///
    /// The configured [`ClientConfig::read_timeout`] is restored after
    /// the probe, so regular calls on the same connection are unaffected.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors (including the probe timeout, surfaced as
    /// [`WireError::Io`]), or the server's typed error.
    pub fn probe_health(&mut self, timeout: Duration) -> Result<HealthInfo, WireError> {
        if self.broken {
            self.reconnect()?;
        }
        let _ = self.stream.set_read_timeout(Some(timeout));
        let result = self.send(&Request::Health).and_then(|id| self.recv(id));
        // Restore the configured timeout (harmless on a hard-closed
        // stream; the next reconnect re-applies the config anyway).
        let _ = self.stream.set_read_timeout(self.cfg.read_timeout);
        match result? {
            Reply::Health(health) => Ok(health),
            _ => Err(self.desync("expected Health")),
        }
    }

    /// Fetches one model's per-tenant serving statistics. Idempotent:
    /// retried per [`ClientConfig`].
    ///
    /// # Errors
    ///
    /// Socket/protocol errors, or `Remote { code: UnknownModel, .. }`.
    pub fn stats(&mut self, model: &str) -> Result<ServeStats, WireError> {
        let req = Request::Stats {
            model: model.to_string(),
        };
        match self.call_idempotent(&req)? {
            Reply::Stats { stats, .. } => Ok(stats),
            _ => Err(self.desync("expected Stats")),
        }
    }

    /// One synchronous inference round trip without a deadline.
    ///
    /// Retried per [`ClientConfig`] **only while provably safe**: no
    /// reply byte arrived and no pipelined request is outstanding (the
    /// server executes a request at most once per delivery; a retry after
    /// reply bytes could double-execute, so it hard-closes instead).
    ///
    /// # Errors
    ///
    /// Socket/protocol errors, or the server's typed error (unknown
    /// model, bad input length, queue full, …).
    pub fn infer(&mut self, model: &str, input: &[f32]) -> Result<Vec<f32>, WireError> {
        self.infer_deadline(model, input, None)
    }

    /// One synchronous inference round trip with an optional deadline
    /// budget: the server must dispatch within `budget` of receipt or
    /// answer `Remote { code: DeadlineExceeded, .. }`.
    ///
    /// The wire carries microseconds; a nonzero sub-microsecond budget
    /// rounds **up** to 1 µs (rounding down would silently mean "no
    /// deadline").
    ///
    /// # Errors
    ///
    /// As [`WireClient::infer`].
    pub fn infer_deadline(
        &mut self,
        model: &str,
        input: &[f32],
        budget: Option<Duration>,
    ) -> Result<Vec<f32>, WireError> {
        let req = Request::Infer {
            model: model.to_string(),
            deadline_micros: budget.map_or(0, |b| (b.as_micros() as u64).max(1)),
            input: input.to_vec(),
        };
        match self.call_idempotent(&req)? {
            Reply::Infer { output } => Ok(output),
            _ => Err(self.desync("expected Infer")),
        }
    }

    /// A synchronous client-side batch: `input` is row-major
    /// `[batch, n]`; the reply is row-major `[batch, m]`. Not retried
    /// (one call fans out to `batch` scheduler submissions).
    ///
    /// # Errors
    ///
    /// As [`WireClient::infer`].
    pub fn infer_batch(
        &mut self,
        model: &str,
        batch: usize,
        input: &[f32],
        budget: Option<Duration>,
    ) -> Result<Vec<f32>, WireError> {
        let req = Request::InferBatch {
            model: model.to_string(),
            deadline_micros: budget.map_or(0, |b| (b.as_micros() as u64).max(1)),
            batch: batch as u32,
            input: input.to_vec(),
        };
        match self.attempt(&req)? {
            Reply::InferBatch { output, .. } => Ok(output),
            _ => Err(self.desync("expected InferBatch")),
        }
    }

    /// One scatter leg of a sharded request: asks the server's registered
    /// row-segment for logical output rows `row_start .. row_end` of the
    /// shared `[batch, n]` input. The reply's echoed range and length are
    /// verified here, so a stitching router can never attribute a segment
    /// to the wrong rows — a mismatch hard-closes the connection and
    /// fails typed.
    ///
    /// Idempotent (the segment computation is pure), so it is retried per
    /// [`ClientConfig`] under the same provably-safe conditions as
    /// [`WireClient::infer`].
    ///
    /// # Errors
    ///
    /// Socket/protocol errors, or the server's typed error (unknown
    /// model, range mismatch, bad input length, queue full, …).
    pub fn infer_segment(
        &mut self,
        model: &str,
        row_start: usize,
        row_end: usize,
        batch: usize,
        input: &[f32],
        budget: Option<Duration>,
    ) -> Result<Vec<f32>, WireError> {
        let req = Request::InferSegment {
            model: model.to_string(),
            deadline_micros: budget.map_or(0, |b| (b.as_micros() as u64).max(1)),
            row_start: row_start as u32,
            row_end: row_end as u32,
            batch: batch as u32,
            input: input.to_vec(),
        };
        match self.call_idempotent(&req)? {
            Reply::InferSegment {
                row_start: rs,
                row_end: re,
                batch: b,
                output,
            } => {
                let rows = row_end.saturating_sub(row_start);
                if (rs as usize, re as usize, b as usize) != (row_start, row_end, batch)
                    || output.len() != batch * rows
                {
                    return Err(self.desync("segment reply does not match the request"));
                }
                Ok(output)
            }
            _ => Err(self.desync("expected InferSegment")),
        }
    }

    /// Pipelining: sends one inference request without waiting for the
    /// reply. Collect replies with [`WireClient::recv_infer`] **in send
    /// order**; replies that arrive earlier are held by id until claimed.
    ///
    /// Pipelined requests are **never retried**: after a connection
    /// failure the outstanding tail is lost and each pending
    /// [`WireClient::recv_infer`] fails typed. (Replaying a pipeline
    /// would re-pair replies with the wrong requests.)
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn send_infer(
        &mut self,
        model: &str,
        input: &[f32],
        budget: Option<Duration>,
    ) -> Result<(), WireError> {
        self.send_pipelined(
            &Request::Infer {
                model: model.to_string(),
                deadline_micros: budget.map_or(0, |b| (b.as_micros() as u64).max(1)),
                input: input.to_vec(),
            },
            PendingKind::Infer,
        )
    }

    /// Pipelining: sends one segment request without waiting for the
    /// reply — how a router scatters one request across shards from a
    /// single thread. Collect with [`WireClient::recv_infer_segment`] in
    /// send order. Never retried, like [`WireClient::send_infer`].
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn send_infer_segment(
        &mut self,
        model: &str,
        row_start: usize,
        row_end: usize,
        batch: usize,
        input: &[f32],
        budget: Option<Duration>,
    ) -> Result<(), WireError> {
        self.send_pipelined(
            &Request::InferSegment {
                model: model.to_string(),
                deadline_micros: budget.map_or(0, |b| (b.as_micros() as u64).max(1)),
                row_start: row_start as u32,
                row_end: row_end as u32,
                batch: batch as u32,
                input: input.to_vec(),
            },
            PendingKind::Segment {
                row_start: row_start as u32,
                row_end: row_end as u32,
                batch: batch as u32,
            },
        )
    }

    /// Shared pipelined-send path: reconnects when safe, refuses when a
    /// pipeline is stranded on a broken stream.
    fn send_pipelined(&mut self, req: &Request, kind: PendingKind) -> Result<(), WireError> {
        if self.broken && self.pending.is_empty() {
            // Safe to transparently reconnect: nothing is outstanding.
            self.reconnect()?;
        }
        if self.broken {
            return Err(WireError::Malformed(
                "connection broken with pipelined requests outstanding",
            ));
        }
        let id = self.send(req)?;
        self.pending.push_back(PendingReq { id, kind });
        Ok(())
    }

    /// Pipelining: receives the next inference reply (matching the oldest
    /// outstanding [`WireClient::send_infer`]).
    ///
    /// # Errors
    ///
    /// As [`WireClient::infer`]; additionally fails typed (instead of
    /// blocking) when no pipelined request is outstanding — including
    /// after a reconnect dropped the outstanding tail.
    pub fn recv_infer(&mut self) -> Result<Vec<f32>, WireError> {
        match self.recv_pipelined(PendingKind::Infer)? {
            (_, Reply::Infer { output }) => Ok(output),
            _ => Err(self.desync("expected Infer")),
        }
    }

    /// Pipelining: receives the next segment reply (matching the oldest
    /// outstanding [`WireClient::send_infer_segment`]). The echoed row
    /// range and length are verified exactly as in
    /// [`WireClient::infer_segment`].
    ///
    /// # Errors
    ///
    /// As [`WireClient::infer_segment`]; additionally fails typed when no
    /// pipelined segment request is outstanding.
    pub fn recv_infer_segment(&mut self) -> Result<Vec<f32>, WireError> {
        let want = PendingKind::Segment {
            row_start: 0,
            row_end: 0,
            batch: 0,
        };
        let (kind, reply) = self.recv_pipelined(want)?;
        let PendingKind::Segment {
            row_start,
            row_end,
            batch,
        } = kind
        else {
            unreachable!("recv_pipelined matched the slot kind");
        };
        match reply {
            Reply::InferSegment {
                row_start: rs,
                row_end: re,
                batch: b,
                output,
            } => {
                let rows = (row_end as usize).saturating_sub(row_start as usize);
                if (rs, re, b) != (row_start, row_end, batch)
                    || output.len() != batch as usize * rows
                {
                    return Err(self.desync("segment reply does not match the request"));
                }
                Ok(output)
            }
            _ => Err(self.desync("expected InferSegment")),
        }
    }

    /// Shared pipelined-receive path: pops the oldest outstanding slot
    /// (which must match `kind`'s variant), then claims its reply from
    /// the ready stash or the socket. Returns the slot's recorded kind
    /// alongside the reply (the segment receive verifies the echo
    /// against it).
    fn recv_pipelined(&mut self, kind: PendingKind) -> Result<(PendingKind, Reply), WireError> {
        let Some(front) = self.pending.front() else {
            return Err(WireError::Malformed("no pipelined request is outstanding"));
        };
        if core::mem::discriminant(&front.kind) != core::mem::discriminant(&kind) {
            return Err(WireError::Malformed(
                "pipelined replies must be received in send order and kind",
            ));
        }
        let PendingReq { id, kind } = self.pending.pop_front().expect("front exists");
        if let Some(reply) = self.ready.remove(&id) {
            return match reply {
                Reply::Error { code, message } => Err(WireError::Remote { code, message }),
                reply => Ok((kind, reply)),
            };
        }
        self.recv(id).map(|reply| (kind, reply))
    }

    /// Pipelined requests sent but not yet received.
    pub fn pipelined(&self) -> usize {
        self.pending.len()
    }
}
