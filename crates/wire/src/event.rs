//! The TCP front end: a fixed pool of I/O threads multiplexing every
//! connection over a readiness loop.
//!
//! ## Why
//!
//! A thread (or two) per connection is simple, but at thousands of
//! mostly-idle connections the scheduler burns its time context-switching
//! parked readers, and the thread cap becomes the connection cap. This
//! front end holds 10k+ connections on [`EventConfig::io_threads`]
//! threads: each runs an epoll (or poll) readiness loop over nonblocking
//! sockets and drives a small state machine per connection.
//!
//! ## Per-connection state machine
//!
//! ```text
//!            readable                    frame complete
//!   ┌──────┐ bytes    ┌────────────┐ decode   ┌──────────┐
//!   │ idle ├─────────►│ assembling ├─────────►│ dispatch │
//!   └──▲───┘          └────────────┘          └────┬─────┘
//!      │     all replies flushed                   │ tenant queue full
//!      │  ┌─────────┐ completion  ┌───────────┐    ▼ (Block policy)
//!      └──┤ writing │◄────────────┤ in-flight │ ┌────────┐
//!         └─────────┘             └─────▲─────┘ │ parked │ READABLE off,
//!                                       └───────┴────────┘ re-offered on
//!                                                           a short tick
//! ```
//!
//! * **Reads** go through a [`frame::FrameAssembler`]: a frame may arrive
//!   split at any byte boundary over any number of readable events.
//! * **Dispatch** hands the decoded request to an [`EventDispatch`] with
//!   a [`ReplyTicket`]; completions come back through a queue, so worker
//!   threads never touch a socket. Once per pass, after the pass's
//!   requests are dispatched, the loop calls [`EventDispatch::end_pass`]:
//!   the registry's dispatcher then runs a short slab on this thread if
//!   the pool is idle, or wakes the pool's workers (see
//!   [`circnn_serve::MultiServer::serve_idle`]).
//! * **Wakeups**: a completion pushed while the loop is between a poll
//!   return and its next poll needs no pipe write — the loop drains the
//!   completion queue before it polls again. Only a completion that finds
//!   the loop asleep (or about to sleep) writes the wakeup pipe.
//! * **Writes** are buffered; on `WouldBlock` the loop registers
//!   `WRITABLE` interest and resumes when the socket drains.
//! * **Backpressure**: a parked request (tenant queue full under the
//!   `Block` overload policy), a full pipeline
//!   ([`EventConfig::max_pipeline`]) or a write backlog past
//!   `MAX_UNSENT_BYTES` (a peer that pipelines without reading) pauses
//!   `READABLE` interest — the kernel socket buffer fills and the client
//!   stalls, without holding a thread; a peer that stays stalled is
//!   reaped by the idle timeout. Input resumes in the same pass that
//!   frees the room (replies encoded, backlog flushed): frames already
//!   read off the socket would get no further readiness event.
//!
//! ## Reply ordering
//!
//! Every request carries a client-chosen `u64` id, and its reply is
//! encoded under that id into the connection's write buffer the moment
//! it completes. Replies therefore leave in completion order: a slow
//! tenant's request never holds a fast tenant's reply behind it on the
//! same connection, and one tenant's replies, which complete in order,
//! leave in order.
//!
//! ## A lone request
//!
//! On an idle pool a request decoded by a loop is run by that loop:
//! read → decode → offer → [`EventDispatch::end_pass`] runs the slab →
//! the reply is queued → the same pass encodes and flushes it. No thread
//! hand-off and no wakeup pipe write. A slab runs inline only when its
//! tenant's measured cost is within the tenant's `max_wait`, so the loop
//! stops reading for no longer than the batching slack the tenant already
//! grants; anything longer, larger or concurrent goes to a worker.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use circnn_serve::{ResponseHandle, Runner, ServeError};
use polling::{Event, Interest, Poller, WakeReader};

use crate::error::{ErrorCode, WireError};
use crate::frame::{self, budget_of, FrameAssembler, Reply, Request, NO_REQUEST};
use crate::registry::ModelRegistry;

/// Front-end knobs.
#[derive(Debug, Clone)]
pub struct EventConfig {
    /// Number of I/O threads (readiness loops). Connections are assigned
    /// round-robin at accept and stay on their loop for life. Clamped to
    /// at least 1.
    pub io_threads: usize,
    /// Per-connection in-flight request cap: once this many requests
    /// await replies, the loop stops reading that connection until
    /// replies flush.
    pub max_pipeline: usize,
    /// Idle timeout: a connection that delivers no bytes for this long is
    /// closed by the loop's timer wheel — a slow-loris peer trickling a
    /// half frame costs one slab slot, never a thread. `None` disables.
    pub idle_timeout: Option<Duration>,
    /// Hard cap on concurrent connections across all loops; beyond it,
    /// accepts are immediately closed (the peer sees EOF).
    pub max_connections: usize,
}

impl Default for EventConfig {
    /// 2 I/O threads, 256 in-flight per connection, 120 s idle timeout,
    /// 4096 connections.
    fn default() -> Self {
        Self {
            io_threads: 2,
            max_pipeline: 256,
            idle_timeout: Some(Duration::from_secs(120)),
            max_connections: 4096,
        }
    }
}

/// [`EventConfig`] under its older name: the repo benchmark (`benchmark/`,
/// frozen) spells the router's config this way.
pub type WireConfig = EventConfig;

/// Per-connection cap on encoded-but-unsent reply bytes. Requests leave
/// the in-flight count when their reply is encoded into the write buffer,
/// so `max_pipeline` alone does not bound a peer that pipelines requests
/// and never reads: past this backlog the loop stops reading the
/// connection, TCP backpressures the peer, and — since only reads refresh
/// the idle clock — the idle timeout reaps it if it never drains.
const MAX_UNSENT_BYTES: usize = 1 << 20;

/// How quickly a loop with parked (backpressured) requests re-offers
/// them to the dispatcher. Parked requests have no drain notification —
/// the loop polls on this tick instead of blocking indefinitely.
const PARK_RETRY_TICK: Duration = Duration::from_millis(1);

/// What [`EventDispatch::dispatch`] did with a request.
pub enum Dispatched {
    /// The dispatcher owns the request; it will complete (or drop) the
    /// ticket when the reply is ready.
    Accepted,
    /// The dispatcher cannot take the request right now (downstream queue
    /// full under a blocking policy). Both the request and the ticket
    /// come back; the loop parks the request, pauses reads on its
    /// connection, and re-offers it on the next tick.
    Busy(Request, ReplyTicket),
}

/// A request sink for the event loop: the bridge between socket-facing
/// I/O threads and whatever executes requests.
///
/// Implementations must **never block**: `dispatch` and `end_pass` run on
/// an I/O thread that is multiplexing thousands of connections. Answer
/// inline (control frames), hand off to a queue/scheduler and complete
/// the ticket later from any thread, or return [`Dispatched::Busy`] to
/// backpressure the connection. The one bounded exception is
/// `end_pass`: it may run a request's computation on the loop thread when
/// the computation is expected to finish within the request's own
/// batching slack (its tenant's `max_wait`).
pub trait EventDispatch: Send + Sync + 'static {
    /// Handles one decoded request. The ticket routes the reply back to
    /// the right connection and request slot; dropping it without
    /// completing answers a typed `Internal` error (no request is ever
    /// silently swallowed).
    fn dispatch(&self, req: Request, ticket: ReplyTicket) -> Dispatched;

    /// Called once per loop pass, after the pass's requests were
    /// dispatched and before the loop polls again, with the loop's own
    /// [`Runner`]. A dispatcher that defers work (the registry's defers
    /// its pool wake) finishes it here; the default does nothing.
    fn end_pass(&self, _runner: &mut Runner) {}
}

/// One completed reply travelling from a worker back to its loop.
struct Completion {
    slot: usize,
    conn_id: u64,
    id: u64,
    reply: Reply,
}

/// The half of a loop's state that other threads touch: completed
/// replies, connections handed over from the accepting loop, and the
/// wakeup pipe that makes the loop notice either.
struct LoopShared {
    completions: Mutex<Vec<Completion>>,
    injected: Mutex<Vec<TcpStream>>,
    waker: polling::Waker,
    /// Set while the loop is between a poll return and its next poll:
    /// it will drain `completions` before polling, so a completion needs
    /// no pipe write.
    in_pass: AtomicBool,
}

impl LoopShared {
    fn complete(&self, slot: usize, conn_id: u64, id: u64, reply: Reply) {
        let was_empty = {
            let mut list = self.completions.lock().unwrap_or_else(|e| e.into_inner());
            let was_empty = list.is_empty();
            list.push(Completion {
                slot,
                conn_id,
                id,
                reply,
            });
            was_empty
        };
        // One pipe write per drained batch, not per reply: the loop takes
        // the whole list at once, so whoever pushed onto a non-empty list
        // knows the wake for it is still pending. And none while the loop
        // is in a pass: it looks at the list after clearing `in_pass`, so
        // a push that lands after that look sees the flag clear and
        // writes the pipe.
        if was_empty && !self.in_pass.load(Ordering::SeqCst) {
            self.waker.wake();
        }
    }
}

/// Routes one reply to the request it answers: the connection, and the
/// request id the reply is encoded under. Completing is fire-and-forget
/// from any thread; if the connection died meanwhile the reply is
/// discarded (the `conn_id` generation check makes a recycled slot
/// unmistakable for its previous tenant).
pub struct ReplyTicket {
    shared: Arc<LoopShared>,
    slot: usize,
    conn_id: u64,
    id: u64,
    armed: bool,
}

impl core::fmt::Debug for ReplyTicket {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ReplyTicket")
            .field("slot", &self.slot)
            .field("conn_id", &self.conn_id)
            .field("id", &self.id)
            .finish()
    }
}

impl ReplyTicket {
    /// Delivers the reply for this request and consumes the ticket.
    pub fn complete(mut self, reply: Reply) {
        self.armed = false;
        self.shared
            .complete(self.slot, self.conn_id, self.id, reply);
    }

    /// Defuses the ticket without answering — only for the `Busy` path,
    /// where the request goes back to its connection unanswered.
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for ReplyTicket {
    /// A dropped ticket still answers: the client gets a typed `Internal`
    /// error instead of a reply that never comes (mirrors the serve
    /// layer's drop-cancel guarantee).
    fn drop(&mut self) {
        if self.armed {
            self.armed = false;
            self.shared.complete(
                self.slot,
                self.conn_id,
                self.id,
                Reply::Error {
                    code: ErrorCode::Internal,
                    message: "request dropped by the dispatcher without a reply".into(),
                },
            );
        }
    }
}

/// State shared by every loop thread and the server handle.
struct Global {
    dispatch: Arc<dyn EventDispatch>,
    cfg: EventConfig,
    stop: AtomicBool,
    conn_count: AtomicUsize,
    next_conn_id: AtomicU64,
    rr: AtomicUsize,
    loops: Vec<Arc<LoopShared>>,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Generation stamp: completions carry it so a reply for a closed
    /// connection can never reach the slot's next occupant.
    conn_id: u64,
    asm: FrameAssembler,
    /// Buffered outgoing bytes; `wbuf[wpos..]` is unsent.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Requests dispatched and not yet answered.
    inflight: usize,
    /// A decoded request (and its id) the dispatcher refused (`Busy`):
    /// re-offered on the park tick; while set, the connection is not read.
    parked: Option<(u64, Request)>,
    last_activity: Instant,
    /// Stop reading, flush what is owed, then close (protocol error).
    closing: bool,
    /// The protocol error's verdict, held until the last reply owed ahead
    /// of it is encoded, so it is the last frame before the hang-up.
    verdict: Option<Reply>,
    /// Peer half-closed its write side; drain replies, then close.
    read_eof: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    /// Whether another request fits: the pipeline has a free entry and
    /// the write backlog is under its cap.
    fn has_room(&self, max_pipeline: usize) -> bool {
        !self.closing
            && self.inflight < max_pipeline
            && self.wbuf.len() - self.wpos < MAX_UNSENT_BYTES
    }

    /// Whether the loop should pull more requests off this connection.
    fn accepts_input(&self, max_pipeline: usize) -> bool {
        self.has_room(max_pipeline) && self.parked.is_none()
    }
}

/// The serving front end over a shared [`ModelRegistry`] (or any
/// [`EventDispatch`]).
///
/// Replies are id-tagged and leave as they complete.
/// [`EventServer::shutdown`] wakes every loop through its pipe and joins
/// them — no timeout-based teardown.
pub struct EventServer {
    addr: SocketAddr,
    global: Arc<Global>,
    threads: Vec<JoinHandle<()>>,
}

impl core::fmt::Debug for EventServer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventServer")
            .field("addr", &self.addr)
            .field("io_threads", &self.threads.len())
            .finish()
    }
}

impl EventServer {
    /// Binds a listener and starts the I/O loops, dispatching to the
    /// registry's scheduler. Bind to port 0 for an ephemeral port.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<ModelRegistry>,
        cfg: EventConfig,
    ) -> Result<Self, WireError> {
        Self::bind_with_dispatcher(addr, Arc::new(RegistryDispatch { registry }), cfg)
    }

    /// Binds with a custom request sink — how the shard router reuses
    /// this loop for its own fan-out logic.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind.
    pub fn bind_with_dispatcher(
        addr: impl ToSocketAddrs,
        dispatch: Arc<dyn EventDispatch>,
        cfg: EventConfig,
    ) -> Result<Self, WireError> {
        let cfg = EventConfig {
            io_threads: cfg.io_threads.max(1),
            max_pipeline: cfg.max_pipeline.max(1),
            max_connections: cfg.max_connections.max(1),
            ..cfg
        };
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut loops = Vec::with_capacity(cfg.io_threads);
        let mut wake_readers = Vec::with_capacity(cfg.io_threads);
        for _ in 0..cfg.io_threads {
            let (waker, reader) = polling::waker()?;
            loops.push(Arc::new(LoopShared {
                completions: Mutex::new(Vec::new()),
                injected: Mutex::new(Vec::new()),
                waker,
                in_pass: AtomicBool::new(false),
            }));
            wake_readers.push(reader);
        }
        let global = Arc::new(Global {
            dispatch,
            cfg,
            stop: AtomicBool::new(false),
            conn_count: AtomicUsize::new(0),
            next_conn_id: AtomicU64::new(1),
            rr: AtomicUsize::new(0),
            loops,
        });
        let mut listener = Some(listener);
        let threads = wake_readers
            .into_iter()
            .enumerate()
            .map(|(index, wake_rx)| {
                let global = Arc::clone(&global);
                // The accept socket lives on loop 0; other loops receive
                // their connections through the injection queue.
                let listener = listener.take();
                std::thread::Builder::new()
                    .name(format!("circnn-wire-ev{index}"))
                    .spawn(move || run_loop(&global, index, &wake_rx, listener.as_ref()))
                    .expect("spawning an event-loop thread")
            })
            .collect();
        Ok(Self {
            addr,
            global,
            threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently held across all loops.
    pub fn connection_count(&self) -> usize {
        self.global.conn_count.load(Ordering::SeqCst)
    }

    /// Stops the loops and closes every connection. Deterministic: each
    /// loop is woken through its pipe and joined — no second-long write
    /// timeouts on the teardown path.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.global.stop.store(true, Ordering::SeqCst);
        for l in &self.global.loops {
            l.waker.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for EventServer {
    /// Dropping without [`EventServer::shutdown`] still closes everything.
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Token of the wakeup pipe in each loop's poller.
const TOKEN_WAKER: usize = usize::MAX;
/// Token of the accept socket (loop 0 only).
const TOKEN_LISTENER: usize = usize::MAX - 1;

/// Everything one readiness loop owns.
struct IoLoop<'a> {
    global: &'a Global,
    shared: &'a Arc<LoopShared>,
    index: usize,
    poller: Poller,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Lazy idle-deadline heap: entries are (deadline, slot, conn_id);
    /// a popped entry whose connection has been active since is pushed
    /// back with the refreshed deadline instead of closing it.
    timers: BinaryHeap<Reverse<(Instant, usize, u64)>>,
    /// Scratch for socket reads.
    rdbuf: Vec<u8>,
    /// Completions taken from [`LoopShared::completions`], swapped with it
    /// each drain so neither list reallocates.
    batch: Vec<Completion>,
    /// Slots [`IoLoop::apply_completions`] has to drive this drain.
    touched: Vec<usize>,
    /// Staging for slabs the dispatcher runs on this thread.
    runner: Runner,
}

fn run_loop(global: &Global, index: usize, wake_rx: &WakeReader, listener: Option<&TcpListener>) {
    let Ok(poller) = Poller::new() else { return };
    if poller
        .register(wake_rx.raw_fd(), TOKEN_WAKER, Interest::READABLE)
        .is_err()
    {
        return;
    }
    if let Some(l) = listener {
        if poller
            .register(l.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)
            .is_err()
        {
            return;
        }
    }
    let mut lp = IoLoop {
        global,
        shared: &global.loops[index],
        index,
        poller,
        conns: Vec::new(),
        free: Vec::new(),
        timers: BinaryHeap::new(),
        rdbuf: vec![0u8; 64 * 1024],
        batch: Vec::new(),
        touched: Vec::new(),
        runner: Runner::default(),
    };
    let mut events: Vec<Event> = Vec::new();
    while !global.stop.load(Ordering::SeqCst) {
        // Leave the pass, then look at the completion list once more: a
        // completion pushed before the flag cleared wrote no pipe byte,
        // so the poll must not block on it.
        lp.shared.in_pass.store(false, Ordering::SeqCst);
        let timeout = if lp.completions_owed() {
            Some(Duration::ZERO)
        } else {
            lp.next_timeout()
        };
        let _ = lp.poller.wait(&mut events, timeout);
        lp.shared.in_pass.store(true, Ordering::SeqCst);
        if global.stop.load(Ordering::SeqCst) {
            break;
        }
        let mut accept_ready = false;
        for i in 0..events.len() {
            let ev = events[i];
            match ev.token {
                TOKEN_WAKER => wake_rx.drain(),
                TOKEN_LISTENER => accept_ready = true,
                slot => lp.drive(slot),
            }
        }
        if accept_ready {
            lp.accept_burst(listener.expect("listener events only on loop 0"));
        }
        lp.adopt_injected();
        lp.apply_completions();
        lp.retry_parked();
        lp.finish_pass();
        lp.expire_idle();
    }
    // Teardown: close every connection this loop holds. In-flight
    // completions still in the queue are dropped with it; their tickets
    // were already consumed, and the sockets are gone anyway.
    for slot in 0..lp.conns.len() {
        lp.close(slot);
    }
}

impl IoLoop<'_> {
    /// Poll timeout: the nearest idle deadline, tightened to the park
    /// tick while any request is parked (parked requests have no drain
    /// notification), unbounded otherwise.
    fn next_timeout(&self) -> Option<Duration> {
        let mut timeout = None;
        if self
            .conns
            .iter()
            .flatten()
            .any(|c| c.parked.is_some() && !c.closing)
        {
            timeout = Some(PARK_RETRY_TICK);
        }
        if let Some(&Reverse((at, _, _))) = self.timers.peek() {
            let until = at.saturating_duration_since(Instant::now());
            timeout = Some(timeout.map_or(until, |t: Duration| t.min(until)));
        }
        timeout
    }

    /// Accepts until `WouldBlock`, spreading connections round-robin over
    /// the loops.
    fn accept_burst(&mut self, listener: &TcpListener) {
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            // At capacity: hang up instead of admitting (the peer sees an
            // immediate EOF).
            if self.global.conn_count.load(Ordering::SeqCst) >= self.global.cfg.max_connections {
                let _ = stream.shutdown(Shutdown::Both);
                continue;
            }
            self.global.conn_count.fetch_add(1, Ordering::SeqCst);
            let nloops = self.global.loops.len();
            let target = self.global.rr.fetch_add(1, Ordering::Relaxed) % nloops;
            if target == self.index {
                self.adopt(stream);
            } else {
                let peer = &self.global.loops[target];
                peer.injected
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(stream);
                peer.waker.wake();
            }
        }
    }

    /// Registers connections handed over by the accepting loop.
    fn adopt_injected(&mut self) {
        let streams: Vec<TcpStream> = std::mem::take(
            &mut *self
                .shared
                .injected
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for stream in streams {
            self.adopt(stream);
        }
    }

    /// Brings one connection under this loop's poller.
    fn adopt(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            self.global.conn_count.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let _ = stream.set_nodelay(true);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let conn_id = self.global.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if self
            .poller
            .register(stream.as_raw_fd(), slot, Interest::READABLE)
            .is_err()
        {
            let _ = stream.shutdown(Shutdown::Both);
            self.free.push(slot);
            self.global.conn_count.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let now = Instant::now();
        self.conns[slot] = Some(Conn {
            stream,
            conn_id,
            asm: FrameAssembler::new(),
            wbuf: Vec::new(),
            wpos: 0,
            inflight: 0,
            parked: None,
            last_activity: now,
            closing: false,
            verdict: None,
            read_eof: false,
            interest: Interest::READABLE,
        });
        if let Some(idle) = self.global.cfg.idle_timeout {
            self.timers.push(Reverse((now + idle, slot, conn_id)));
        }
    }

    /// Encodes completed replies under their request ids straight into
    /// their connections' write buffers, then drives each touched
    /// connection once (flush, and input the freed room lets in).
    fn apply_completions(&mut self) {
        std::mem::swap(
            &mut *self
                .shared
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
            &mut self.batch,
        );
        for c in self.batch.drain(..) {
            let Some(conn) = self.conns.get_mut(c.slot).and_then(Option::as_mut) else {
                continue; // connection closed before the reply arrived
            };
            if conn.conn_id != c.conn_id {
                continue; // slot recycled: reply belongs to a dead connection
            }
            frame::append_reply(c.id, &c.reply, &mut conn.wbuf);
            conn.inflight -= 1;
            self.touched.push(c.slot);
        }
        self.touched.sort_unstable();
        self.touched.dedup();
        for i in 0..self.touched.len() {
            self.drive(self.touched[i]);
        }
        self.touched.clear();
    }

    /// The end of a pass: the dispatcher's deferred work (a slab run here
    /// or a pool wake) for what the pass dispatched, then the replies it
    /// produced, so a slab run here is answered in the same pass. Applying
    /// replies can dispatch more requests (a connection paused on a full
    /// pipeline resumes), so the dispatcher gets a last call; what that
    /// one completes goes out next pass.
    fn finish_pass(&mut self) {
        self.global.dispatch.end_pass(&mut self.runner);
        self.apply_completions();
        self.global.dispatch.end_pass(&mut self.runner);
    }

    /// Whether completed replies are waiting to be applied.
    fn completions_owed(&self) -> bool {
        !self
            .shared
            .completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty()
    }

    /// Re-offers parked requests (the park tick).
    fn retry_parked(&mut self) {
        for slot in 0..self.conns.len() {
            let needs = matches!(&self.conns[slot], Some(c) if c.parked.is_some());
            if needs {
                self.drive(slot);
            }
        }
    }

    /// Closes connections idle past the deadline. Lazy: a popped timer
    /// whose connection saw traffic re-arms at the refreshed deadline.
    fn expire_idle(&mut self) {
        let Some(idle) = self.global.cfg.idle_timeout else {
            return;
        };
        let now = Instant::now();
        while let Some(&Reverse((at, slot, conn_id))) = self.timers.peek() {
            if at > now {
                break;
            }
            self.timers.pop();
            let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
                continue;
            };
            if conn.conn_id != conn_id {
                continue;
            }
            let deadline = conn.last_activity + idle;
            if deadline <= now {
                self.close(slot);
            } else {
                self.timers.push(Reverse((deadline, slot, conn_id)));
            }
        }
    }

    /// Runs one connection's state machine as far as it can go, then
    /// updates poller interest — the single entry point for readiness
    /// events, completions and park retries alike.
    fn drive(&mut self, slot: usize) {
        // Take the connection out of the slab while working on it: the
        // state machine needs `&mut Conn` alongside the loop's poller and
        // scratch buffers.
        let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let keep = self.progress(slot, &mut conn);
        if !keep {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.free.push(slot);
            self.global.conn_count.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        // Interest reflects what the state machine is waiting for:
        // readable while it accepts input, writable while bytes are
        // queued.
        let want = Interest {
            readable: !conn.read_eof && conn.accepts_input(self.global.cfg.max_pipeline),
            writable: conn.wpos < conn.wbuf.len(),
        };
        if want != conn.interest {
            if self
                .poller
                .reregister(conn.stream.as_raw_fd(), slot, want)
                .is_err()
            {
                let _ = self.poller.deregister(conn.stream.as_raw_fd());
                let _ = conn.stream.shutdown(Shutdown::Both);
                self.free.push(slot);
                self.global.conn_count.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            conn.interest = want;
        }
        self.conns[slot] = Some(conn);
    }

    /// Closes and frees one connection unconditionally.
    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.free.push(slot);
            self.global.conn_count.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// The state machine: take input (unpark, decode, dispatch, read),
    /// then flush — and again while that frees room for input that was
    /// paused. Returns `false` when the connection should close.
    fn progress(&mut self, slot: usize, conn: &mut Conn) -> bool {
        let max_pipeline = self.global.cfg.max_pipeline;
        loop {
            if !self.take_input(slot, conn) {
                return false;
            }
            if conn.inflight == 0 {
                if let Some(verdict) = conn.verdict.take() {
                    frame::append_reply(NO_REQUEST, &verdict, &mut conn.wbuf);
                }
            }
            // Flushing shrinks the write backlog. If input was paused on
            // it, frames already buffered in `asm` (or a parked request)
            // are owed another pass now: no readiness event will come for
            // bytes this loop has already read.
            let was_full = !conn.has_room(max_pipeline);
            if !flush_writes(conn) {
                return false;
            }
            if !(was_full && conn.has_room(max_pipeline)) {
                break;
            }
        }
        // A draining connection closes once everything owed is on the
        // wire. Bytes left over after EOF (a torn trailing frame) are
        // fine to discard — there is no request in them to answer.
        let drained = conn.inflight == 0 && conn.parked.is_none() && conn.wpos >= conn.wbuf.len();
        !((conn.closing || conn.read_eof) && drained)
    }

    /// The input half of the state machine: unpark, decode, dispatch and
    /// read until nothing more can be taken in. Returns `false` on a dead
    /// socket.
    fn take_input(&mut self, slot: usize, conn: &mut Conn) -> bool {
        let max_pipeline = self.global.cfg.max_pipeline;
        loop {
            let mut advanced = false;
            // Re-offer a parked request before reading more: ordering
            // within the connection is preserved because nothing is
            // decoded past a parked request.
            if conn.has_room(max_pipeline) {
                if let Some((id, req)) = conn.parked.take() {
                    match self.try_dispatch(slot, conn, id, req) {
                        Some(back) => conn.parked = Some(back),
                        None => advanced = true,
                    }
                }
            }
            // Decode and dispatch every complete frame already buffered.
            while conn.accepts_input(max_pipeline) {
                let decoded = match conn.asm.next_frame() {
                    Ok(Some(frame)) => frame::decode_request_id(frame),
                    Ok(None) => break,
                    Err(e) => Err(e),
                };
                advanced = true;
                match decoded {
                    Ok((id, req)) => {
                        if let Some(back) = self.try_dispatch(slot, conn, id, req) {
                            conn.parked = Some(back);
                        }
                    }
                    // Strict rejection: drain what is owed, then a typed
                    // Malformed verdict under the id that answers no
                    // request, then hang up — a peer that framed one
                    // request wrong has desynchronized the stream.
                    Err(e) => {
                        conn.verdict = Some(Reply::Error {
                            code: ErrorCode::Malformed,
                            message: e.to_string(),
                        });
                        conn.closing = true;
                    }
                }
            }
            // Pull more bytes while the machine accepts input.
            if !conn.read_eof && conn.accepts_input(max_pipeline) {
                match conn.stream.read(&mut self.rdbuf) {
                    Ok(0) => {
                        conn.read_eof = true;
                        advanced = true;
                    }
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        conn.asm.push(&self.rdbuf[..n]);
                        advanced = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => advanced = true,
                    Err(_) => return false,
                }
            }
            if !advanced {
                return true;
            }
        }
    }

    /// Offers one request to the dispatcher, counting it in flight if
    /// accepted. Returns the request back if the dispatcher is busy.
    fn try_dispatch(
        &mut self,
        slot: usize,
        conn: &mut Conn,
        id: u64,
        req: Request,
    ) -> Option<(u64, Request)> {
        let ticket = ReplyTicket {
            shared: Arc::clone(self.shared),
            slot,
            conn_id: conn.conn_id,
            id,
            armed: true,
        };
        // Counting after `dispatch` returns is safe: completions are
        // applied by this thread, never synchronously inside `dispatch`.
        match self.global.dispatch.dispatch(req, ticket) {
            Dispatched::Accepted => {
                conn.inflight += 1;
                None
            }
            Dispatched::Busy(req, ticket) => {
                ticket.disarm();
                Some((id, req))
            }
        }
    }
}

/// Writes buffered bytes until `WouldBlock` or empty. Returns `false` on
/// a dead socket.
fn flush_writes(conn: &mut Conn) -> bool {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return false,
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if conn.wpos >= conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > 64 * 1024 {
        // Reclaim the flushed prefix so a long-lived slow reader does
        // not pin an ever-growing buffer.
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
    true
}

/// Maps a scheduler error onto its wire error code.
fn error_reply(e: &ServeError) -> Reply {
    let code = match e {
        ServeError::BadInput { .. } => ErrorCode::BadInput,
        ServeError::QueueFull => ErrorCode::QueueFull,
        ServeError::ShuttingDown => ErrorCode::ShuttingDown,
        ServeError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
        ServeError::Canceled => ErrorCode::Canceled,
        ServeError::UnknownTenant => ErrorCode::UnknownModel,
        ServeError::Overloaded => ErrorCode::Overloaded,
        // Registration-time conditions; a request should never see them.
        ServeError::BadConfig(_) | ServeError::NotServable(_) => ErrorCode::Internal,
    };
    Reply::Error {
        code,
        message: e.to_string(),
    }
}

fn unknown_model(name: &str) -> Reply {
    Reply::Error {
        code: ErrorCode::UnknownModel,
        message: format!("no model named {name:?} is registered"),
    }
}

/// The standard sink: requests go to the registry's shared scheduler
/// through the policy-aware non-blocking submit; completions ride the
/// serve layer's wakers straight back to the loop.
struct RegistryDispatch {
    registry: Arc<ModelRegistry>,
}

/// One row's outcome, recorded where the batch gather can stitch it.
type RowResult = Result<Vec<f32>, ServeError>;

/// Collects a multi-row request's per-row results and completes the
/// ticket once the last row lands.
struct Gather {
    rows: Mutex<Vec<Option<RowResult>>>,
    remaining: AtomicUsize,
    ticket: Mutex<Option<ReplyTicket>>,
    shape: GatherShape,
}

enum GatherShape {
    Batch {
        batch: u32,
    },
    Segment {
        row_start: u32,
        row_end: u32,
        batch: u32,
    },
}

impl Gather {
    fn arm(self: &Arc<Self>, handles: Vec<ResponseHandle>) {
        for (i, h) in handles.into_iter().enumerate() {
            let g = Arc::clone(self);
            h.on_ready(move |r| g.fill(i, r));
        }
    }

    fn fill(&self, i: usize, r: Result<Vec<f32>, ServeError>) {
        {
            let mut rows = self.rows.lock().unwrap_or_else(|e| e.into_inner());
            rows[i] = Some(r);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.finish();
        }
    }

    fn finish(&self) {
        let Some(ticket) = self.ticket.lock().unwrap_or_else(|e| e.into_inner()).take() else {
            return;
        };
        let rows = std::mem::take(&mut *self.rows.lock().unwrap_or_else(|e| e.into_inner()));
        let mut output = Vec::new();
        for r in rows {
            match r.expect("every row filled before finish") {
                Ok(row) => output.extend_from_slice(&row),
                // All-or-nothing, first failed row (in row order) wins: a
                // reply never carries a partial row set — the router
                // either stitches a complete segment or sees a typed error.
                Err(e) => {
                    ticket.complete(error_reply(&e));
                    return;
                }
            }
        }
        ticket.complete(match self.shape {
            GatherShape::Batch { batch } => Reply::InferBatch { batch, output },
            GatherShape::Segment {
                row_start,
                row_end,
                batch,
            } => Reply::InferSegment {
                row_start,
                row_end,
                batch,
                output,
            },
        });
    }
}

impl RegistryDispatch {
    /// Offers every row of a multi-row request and arms a [`Gather`].
    /// The first row backpressures ([`Dispatched::Busy`]); a queue that
    /// fills mid-request fails the whole request typed instead (the rows
    /// already admitted still run; their handles drop harmlessly).
    #[allow(clippy::too_many_arguments)]
    fn offer_rows(
        &self,
        tenant: &circnn_serve::TenantHandle,
        input: Vec<f32>,
        n: usize,
        budget: Option<Duration>,
        ticket: ReplyTicket,
        shape: GatherShape,
        rebuild: impl FnOnce(Vec<f32>) -> Request,
    ) -> Dispatched {
        let rows = input.len() / n;
        let mut handles = Vec::with_capacity(rows);
        for i in 0..rows {
            let mut row = input[i * n..(i + 1) * n].to_vec();
            match tenant.offer_with_deadline(&mut row, budget) {
                Ok(h) => handles.push(h),
                Err(ServeError::QueueFull) if i == 0 => {
                    return Dispatched::Busy(rebuild(input), ticket);
                }
                Err(e) => {
                    ticket.complete(error_reply(&e));
                    return Dispatched::Accepted;
                }
            }
        }
        let gather = Arc::new(Gather {
            rows: Mutex::new((0..rows).map(|_| None).collect()),
            remaining: AtomicUsize::new(rows),
            ticket: Mutex::new(Some(ticket)),
            shape,
        });
        gather.arm(handles);
        Dispatched::Accepted
    }
}

impl EventDispatch for RegistryDispatch {
    fn end_pass(&self, runner: &mut Runner) {
        self.registry.serve_idle(runner);
    }

    fn dispatch(&self, req: Request, ticket: ReplyTicket) -> Dispatched {
        match req {
            Request::Ping => ticket.complete(Reply::Pong),
            Request::ListModels => ticket.complete(Reply::ModelList(self.registry.list())),
            Request::Health => ticket.complete(Reply::Health(self.registry.health())),
            Request::Stats { model } => {
                let reply = match self.registry.stats(&model) {
                    Some(stats) => Reply::Stats { model, stats },
                    None => unknown_model(&model),
                };
                ticket.complete(reply);
            }
            Request::Infer {
                model,
                deadline_micros,
                mut input,
            } => {
                let Some(tenant) = self.registry.get(&model) else {
                    ticket.complete(unknown_model(&model));
                    return Dispatched::Accepted;
                };
                // A payload inconsistent with the registered model's input
                // shape is rejected here, at the wire layer, with a typed
                // reply — it never enters the tenant queue, so no worker
                // can trip a batch-shape assertion on it.
                let n = tenant.input_len();
                if input.len() != n {
                    ticket.complete(Reply::Error {
                        code: ErrorCode::BadInput,
                        message: format!(
                            "model {model:?} expects {n} values per request, got {}",
                            input.len()
                        ),
                    });
                    return Dispatched::Accepted;
                }
                match tenant.offer_with_deadline(&mut input, budget_of(deadline_micros)) {
                    Ok(h) => h.on_ready(move |r| {
                        ticket.complete(match r {
                            Ok(output) => Reply::Infer { output },
                            Err(e) => error_reply(&e),
                        });
                    }),
                    // Queue full under the Block policy: hand the request
                    // back so the loop parks it and stops reading the
                    // connection — backpressure without a blocked thread.
                    Err(ServeError::QueueFull) => {
                        return Dispatched::Busy(
                            Request::Infer {
                                model,
                                deadline_micros,
                                input,
                            },
                            ticket,
                        );
                    }
                    Err(e) => ticket.complete(error_reply(&e)),
                }
            }
            Request::InferBatch {
                model,
                deadline_micros,
                batch,
                input,
            } => {
                let Some(tenant) = self.registry.get(&model) else {
                    ticket.complete(unknown_model(&model));
                    return Dispatched::Accepted;
                };
                let n = tenant.input_len();
                let rows = batch as usize;
                if rows == 0 || input.len() != rows * n {
                    ticket.complete(Reply::Error {
                        code: ErrorCode::BadInput,
                        message: format!(
                            "batch of {rows} rows needs {} values, got {}",
                            rows * n,
                            input.len()
                        ),
                    });
                    return Dispatched::Accepted;
                }
                let budget = budget_of(deadline_micros);
                return self.offer_rows(
                    &tenant,
                    input,
                    n,
                    budget,
                    ticket,
                    GatherShape::Batch { batch },
                    move |input| Request::InferBatch {
                        model,
                        deadline_micros,
                        batch,
                        input,
                    },
                );
            }
            Request::InferSegment {
                model,
                deadline_micros,
                row_start,
                row_end,
                batch,
                input,
            } => {
                let Some(tenant) = self.registry.get(&model) else {
                    ticket.complete(unknown_model(&model));
                    return Dispatched::Accepted;
                };
                // The tenant must be registered *as a segment* and the
                // requested range must match its recorded placement
                // exactly — a misrouted leg (stale topology, wrong shard)
                // fails typed here instead of returning rows the router
                // would stitch into the wrong place.
                let Some(seg) = self.registry.segment(&model) else {
                    ticket.complete(Reply::Error {
                        code: ErrorCode::BadInput,
                        message: format!("model {model:?} is not registered as a row segment"),
                    });
                    return Dispatched::Accepted;
                };
                if (row_start as usize, row_end as usize) != (seg.row_start, seg.row_end) {
                    ticket.complete(Reply::Error {
                        code: ErrorCode::BadInput,
                        message: format!(
                            "segment {model:?} covers rows {}..{}, request asked for \
                             {row_start}..{row_end}",
                            seg.row_start, seg.row_end
                        ),
                    });
                    return Dispatched::Accepted;
                }
                let n = tenant.input_len();
                let rows = batch as usize;
                if rows == 0 || input.len() != rows * n {
                    ticket.complete(Reply::Error {
                        code: ErrorCode::BadInput,
                        message: format!(
                            "segment batch of {rows} rows needs {} values, got {}",
                            rows * n,
                            input.len()
                        ),
                    });
                    return Dispatched::Accepted;
                }
                let budget = budget_of(deadline_micros);
                return self.offer_rows(
                    &tenant,
                    input,
                    n,
                    budget,
                    ticket,
                    GatherShape::Segment {
                        row_start,
                        row_end,
                        batch,
                    },
                    move |input| Request::InferSegment {
                        model,
                        deadline_micros,
                        row_start,
                        row_end,
                        batch,
                        input,
                    },
                );
            }
        }
        Dispatched::Accepted
    }
}
