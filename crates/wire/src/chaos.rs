//! Fault-injection test support: a chaos TCP proxy and a faulty model
//! wrapper.
//!
//! The serving stack's failure model is only trustworthy if something
//! exercises it. This module provides the two fault sources the soak
//! tests drive:
//!
//! * [`ChaosProxy`] — a TCP proxy between a client and a
//!   [`EventServer`](crate::EventServer) that injects transport faults per
//!   connection from a deterministic [`Fault`] plan: added latency with
//!   frames torn across small segments, byte truncation followed by an
//!   abrupt close (the observable shape of a connection reset), in either
//!   direction.
//! * [`FaultyModel`] — wraps any [`ServeModel`] and injects **model**
//!   faults at scheduled dispatch indices: slow batches (stragglers) and
//!   panics (poison requests), both deterministic.
//!
//! Everything here is driven by explicit schedules, never wall-clock
//! randomness, so a failing soak reproduces byte-for-byte.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use circnn_serve::ServeModel;

/// Tracking clones of every proxied socket plus the pump threads, shared
/// between the accept loop and shutdown.
type Links = Arc<Mutex<(Vec<TcpStream>, Vec<JoinHandle<()>>)>>;

/// One connection's transport fault, assigned from the proxy's plan in
/// accept order (`plan[i % plan.len()]` for the `i`-th connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Forward faithfully (the control case).
    None,
    /// Forward both directions in `chunk`-byte segments, sleeping `delay`
    /// before each — added latency, with frames torn across segments so
    /// the receiver observes partial reads mid-frame.
    Delay {
        /// Sleep before each forwarded segment.
        delay: Duration,
        /// Segment size in bytes (≥ 1).
        chunk: usize,
    },
    /// Forward only the first `after` client→server bytes, then close
    /// both directions abruptly — the server sees a frame cut off
    /// mid-read (the observable shape of a peer reset).
    TruncateToServer {
        /// Bytes forwarded before the cut.
        after: usize,
    },
    /// Forward only the first `after` server→client bytes, then close
    /// both directions abruptly — the client sees its reply cut off.
    TruncateToClient {
        /// Bytes forwarded before the cut.
        after: usize,
    },
}

/// One pump direction's share of a [`Fault`].
#[derive(Clone, Copy)]
struct PumpFault {
    delay: Option<Duration>,
    chunk: usize,
    truncate_after: Option<usize>,
}

impl Fault {
    /// Splits the fault into (client→server, server→client) pump configs.
    fn split(self) -> (PumpFault, PumpFault) {
        let plain = PumpFault {
            delay: None,
            chunk: 4096,
            truncate_after: None,
        };
        match self {
            Fault::None => (plain, plain),
            Fault::Delay { delay, chunk } => {
                let slowed = PumpFault {
                    delay: Some(delay),
                    chunk: chunk.max(1),
                    truncate_after: None,
                };
                (slowed, slowed)
            }
            Fault::TruncateToServer { after } => (
                PumpFault {
                    truncate_after: Some(after),
                    ..plain
                },
                plain,
            ),
            Fault::TruncateToClient { after } => (
                plain,
                PumpFault {
                    truncate_after: Some(after),
                    ..plain
                },
            ),
        }
    }
}

/// Copies bytes `from` → `to` under one [`PumpFault`]; closes **both**
/// sockets on exit (truncation, EOF or error), so the cut looks like a
/// reset to both peers and the sibling pump unblocks.
fn pump(mut from: TcpStream, mut to: TcpStream, fault: PumpFault) {
    let mut buf = [0u8; 4096];
    let mut copied = 0usize;
    loop {
        let want = match fault.truncate_after {
            Some(limit) if copied >= limit => break,
            Some(limit) => buf.len().min(fault.chunk).min(limit - copied),
            None => buf.len().min(fault.chunk),
        };
        let n = match from.read(&mut buf[..want]) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if let Some(d) = fault.delay {
            std::thread::sleep(d);
        }
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
        copied += n;
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// A fault-injecting TCP proxy in front of an upstream server.
///
/// Accepts connections on an ephemeral local port, opens one upstream
/// connection per accepted client, and forwards bytes both ways through
/// the connection's [`Fault`] (assigned from the plan in accept order,
/// cycling). Deterministic given a deterministic connect order.
///
/// # Examples
///
/// ```no_run
/// use circnn_wire::chaos::{ChaosProxy, Fault};
/// # fn main() -> std::io::Result<()> {
/// let upstream: std::net::SocketAddr = "127.0.0.1:4242".parse().unwrap();
/// let proxy = ChaosProxy::start(upstream, vec![
///     Fault::None,
///     Fault::TruncateToClient { after: 11 },
/// ])?;
/// // First connection is clean, second loses its reply mid-frame, third
/// // is clean again, …
/// let addr = proxy.local_addr();
/// # let _ = addr;
/// proxy.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// Tracking clones of every proxied socket pair, so shutdown can cut
    /// all live links, plus the pump threads to join.
    links: Links,
}

impl core::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ChaosProxy {
    /// Binds the proxy on an ephemeral local port in front of `upstream`.
    /// An empty `plan` forwards every connection faithfully.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind.
    pub fn start(upstream: SocketAddr, plan: Vec<Fault>) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let links: Links = Arc::new(Mutex::new((Vec::new(), Vec::new())));
        let accept_thread = {
            let (stop, links) = (Arc::clone(&stop), Arc::clone(&links));
            std::thread::Builder::new()
                .name("circnn-chaos-accept".into())
                .spawn(move || {
                    let mut conn_index = 0usize;
                    for client in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(client) = client else { continue };
                        let fault = if plan.is_empty() {
                            Fault::None
                        } else {
                            plan[conn_index % plan.len()]
                        };
                        conn_index += 1;
                        let Ok(server) = TcpStream::connect(upstream) else {
                            let _ = client.shutdown(Shutdown::Both);
                            continue;
                        };
                        let _ = client.set_nodelay(true);
                        let _ = server.set_nodelay(true);
                        let (c2s, s2c) = fault.split();
                        let (Ok(ct), Ok(st), Ok(cr), Ok(sr)) = (
                            client.try_clone(),
                            server.try_clone(),
                            client.try_clone(),
                            server.try_clone(),
                        ) else {
                            continue;
                        };
                        // Thread exhaustion sheds the link rather than
                        // killing the proxy's accept loop.
                        let up = std::thread::Builder::new()
                            .name("circnn-chaos-up".into())
                            .spawn(move || pump(client, server, c2s));
                        let down = std::thread::Builder::new()
                            .name("circnn-chaos-down".into())
                            .spawn(move || pump(sr, cr, s2c));
                        let (Ok(up), Ok(down)) = (up, down) else {
                            let _ = ct.shutdown(Shutdown::Both);
                            let _ = st.shutdown(Shutdown::Both);
                            continue;
                        };
                        let mut tracked = links.lock().unwrap_or_else(|e| e.into_inner());
                        tracked.0.push(ct);
                        tracked.0.push(st);
                        tracked.1.push(up);
                        tracked.1.push(down);
                    }
                })
                .expect("spawning the chaos accept thread")
        };
        Ok(Self {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            links,
        })
    }

    /// The proxy's listening address — point the client here.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, cuts every proxied link and joins the pumps.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let (streams, pumps) =
            std::mem::take(&mut *self.links.lock().unwrap_or_else(|e| e.into_inner()));
        for s in &streams {
            let _ = s.shutdown(Shutdown::Both);
        }
        for p in pumps {
            let _ = p.join();
        }
    }
}

impl Drop for ChaosProxy {
    /// Dropping without [`ChaosProxy::shutdown`] still cuts every link.
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Wraps a [`ServeModel`] and injects faults at scheduled **dispatch
/// indices** (a process-wide counter incremented once per `infer_batch`
/// call on this wrapper, quarantine retries included).
///
/// * a dispatch in the *slow* schedule sleeps before running (a straggler
///   batch that holds its worker);
/// * a dispatch in the *panic* schedule panics (a poison batch — the
///   server must quarantine it without taking co-batched requests down).
///
/// Deterministic: the schedules are explicit sets, not probabilities.
pub struct FaultyModel<M: ServeModel> {
    inner: M,
    slow: HashSet<u64>,
    slow_for: Duration,
    panic_on: HashSet<u64>,
    dispatches: AtomicU64,
}

impl<M: ServeModel> core::fmt::Debug for FaultyModel<M> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FaultyModel")
            .field("slow", &self.slow.len())
            .field("panic_on", &self.panic_on.len())
            .field("dispatches", &self.dispatches.load(Ordering::Relaxed))
            .finish()
    }
}

impl<M: ServeModel> FaultyModel<M> {
    /// Wraps `inner` with empty fault schedules (a faithful passthrough
    /// until schedules are added).
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            slow: HashSet::new(),
            slow_for: Duration::ZERO,
            panic_on: HashSet::new(),
            dispatches: AtomicU64::new(0),
        }
    }

    /// Schedules the dispatches with these indices to sleep `delay`
    /// before running.
    #[must_use]
    pub fn slow_at(mut self, indices: impl IntoIterator<Item = u64>, delay: Duration) -> Self {
        self.slow.extend(indices);
        self.slow_for = delay;
        self
    }

    /// Schedules the dispatches with these indices to panic.
    #[must_use]
    pub fn panic_at(mut self, indices: impl IntoIterator<Item = u64>) -> Self {
        self.panic_on.extend(indices);
        self
    }

    /// How many batch dispatches this wrapper has seen.
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }
}

impl<M: ServeModel> ServeModel for FaultyModel<M> {
    type Scratch = M::Scratch;

    fn make_scratch(&self) -> Self::Scratch {
        self.inner.make_scratch()
    }

    fn input_len(&self) -> usize {
        self.inner.input_len()
    }

    fn output_len(&self) -> usize {
        self.inner.output_len()
    }

    fn infer_batch(&self, x: &[f32], batch: usize, scratch: &mut Self::Scratch, out: &mut [f32]) {
        let i = self.dispatches.fetch_add(1, Ordering::Relaxed);
        assert!(
            !self.panic_on.contains(&i),
            "chaos: scheduled panic at dispatch {i}"
        );
        if self.slow.contains(&i) {
            std::thread::sleep(self.slow_for);
        }
        self.inner.infer_batch(x, batch, scratch, out);
    }
}
