//! The router's TCP front-end: ordinary wire-protocol clients connect
//! here and see one big server; behind it the [`ShardRouter`] scatters,
//! gathers and fails over.
//!
//! Thread model: the socket side is the event-driven front end
//! ([`circnn_wire::EventServer`]) — a fixed pool of readiness loops
//! multiplexing every connection, so ten thousand idle clients cost no
//! threads. Routing itself blocks on network calls to the shards, so it
//! cannot run on a loop thread; decoded requests are handed to a small
//! bounded worker pool instead. When every worker is busy and the queue
//! is full, the dispatcher reports [`circnn_wire::Dispatched::Busy`] and
//! the event loop parks the connection (reading pauses — natural TCP
//! backpressure) until a slot frees up.
//!
//! Replies go out tagged by request id as they complete, exactly as on
//! the model-serving [`circnn_wire::EventServer`].

use std::collections::VecDeque;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use circnn_wire::frame::{budget_of, Reply, Request};
use circnn_wire::{
    Dispatched, ErrorCode, EventConfig, EventDispatch, EventServer, ReplyTicket, WireError,
};

use crate::router::ShardRouter;

/// Worker threads executing routed calls. Each call blocks on shard
/// round trips, so this bounds the router's concurrent fan-outs, not
/// its connection count (connections are multiplexed on the event
/// loops and cost nothing while idle).
const ROUTER_WORKERS: usize = 8;

/// Queued-but-unclaimed requests allowed beyond the workers themselves.
/// Past this the dispatcher reports `Busy` and connections park.
const ROUTER_QUEUE_DEPTH: usize = ROUTER_WORKERS * 4;

/// Maps a router failure onto a typed wire error reply. Remote typed
/// rejections pass through unchanged (the shard already said precisely
/// what is wrong); transport-level failures — every replica of some
/// shard unreachable — surface as `Internal` with the underlying cause.
fn to_error_reply(e: WireError) -> Reply {
    match e {
        WireError::Remote { code, message } => Reply::Error { code, message },
        other => Reply::Error {
            code: ErrorCode::Internal,
            message: format!("shard call failed: {other}"),
        },
    }
}

/// The request sink bridging the event loops to the routing workers: a
/// bounded queue plus a condvar the workers sleep on.
struct RouterDispatch {
    router: Arc<ShardRouter>,
    queue: Mutex<VecDeque<(Request, ReplyTicket)>>,
    available: Condvar,
    stop: AtomicBool,
}

impl RouterDispatch {
    /// Worker loop: claim a queued request, route it (blocking on shard
    /// round trips), answer the ticket. Runs until shutdown drains the
    /// queue and flips `stop`.
    fn work(&self) {
        loop {
            let claimed = {
                let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(job) = queue.pop_front() {
                        break Some(job);
                    }
                    if self.stop.load(Ordering::SeqCst) {
                        break None;
                    }
                    queue = self
                        .available
                        .wait(queue)
                        .unwrap_or_else(|e| e.into_inner());
                }
            };
            let Some((req, ticket)) = claimed else { return };
            ticket.complete(process(req, &self.router));
        }
    }
}

impl EventDispatch for RouterDispatch {
    fn dispatch(&self, req: Request, ticket: ReplyTicket) -> Dispatched {
        // Cheap introspection never waits behind blocking fan-outs.
        match &req {
            Request::Ping => {
                ticket.complete(Reply::Pong);
                return Dispatched::Accepted;
            }
            Request::ListModels => {
                ticket.complete(Reply::ModelList(self.router.list()));
                return Dispatched::Accepted;
            }
            _ => {}
        }
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if queue.len() >= ROUTER_QUEUE_DEPTH {
            return Dispatched::Busy(req, ticket);
        }
        queue.push_back((req, ticket));
        drop(queue);
        self.available.notify_one();
        Dispatched::Accepted
    }
}

/// A running wire-protocol front-end over a [`ShardRouter`].
///
/// Bind with [`RouterServer::bind`]; clients connect with an ordinary
/// [`circnn_wire::WireClient`] — the sharding is invisible on the wire.
/// [`RouterServer::shutdown`] closes the listener and every connection;
/// the router (and its pools) stays up, owned by the caller.
pub struct RouterServer {
    inner: Option<EventServer>,
    dispatch: Arc<RouterDispatch>,
    workers: Vec<JoinHandle<()>>,
}

impl core::fmt::Debug for RouterServer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RouterServer")
            .field("addr", &self.local_addr())
            .finish()
    }
}

impl RouterServer {
    /// Binds a listener and starts the event loops (configured by `cfg`)
    /// plus the routing workers. Port 0 binds an ephemeral port.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind.
    pub fn bind(
        addr: impl ToSocketAddrs,
        router: Arc<ShardRouter>,
        cfg: EventConfig,
    ) -> Result<Self, WireError> {
        let dispatch = Arc::new(RouterDispatch {
            router,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let inner = EventServer::bind_with_dispatcher(
            addr,
            Arc::clone(&dispatch) as Arc<dyn EventDispatch>,
            cfg,
        )?;
        let workers = (0..ROUTER_WORKERS)
            .map(|i| {
                let dispatch = Arc::clone(&dispatch);
                std::thread::Builder::new()
                    .name(format!("circnn-route{i}"))
                    .spawn(move || dispatch.work())
                    .expect("spawning a router worker thread")
            })
            .collect();
        Ok(Self {
            inner: Some(inner),
            dispatch,
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner
            .as_ref()
            .map(EventServer::local_addr)
            .expect("the event front end lives as long as the server")
    }

    /// Connections currently multiplexed on the event loops.
    pub fn connection_count(&self) -> usize {
        self.inner.as_ref().map_or(0, EventServer::connection_count)
    }

    /// Stops accepting, closes every connection and joins the loops and
    /// workers. The router stays alive (it belongs to the caller).
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        // The event loops go first so no new work arrives, then the
        // workers drain what they already claimed. Queued-but-unclaimed
        // tickets drop harmlessly — their connections are already gone.
        if let Some(inner) = self.inner.take() {
            inner.shutdown();
        }
        self.dispatch.stop.store(true, Ordering::SeqCst);
        self.dispatch.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let mut queue = self
            .dispatch
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        queue.clear();
    }
}

impl Drop for RouterServer {
    /// Dropping without [`RouterServer::shutdown`] still closes
    /// everything.
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Routes one decoded request.
fn process(req: Request, router: &ShardRouter) -> Reply {
    match req {
        Request::Ping => Reply::Pong,
        Request::ListModels => Reply::ModelList(router.list()),
        Request::Health => Reply::Health(router.cluster_health()),
        Request::Stats { model } => match router.stats(&model) {
            Ok(stats) => Reply::Stats { model, stats },
            Err(e) => to_error_reply(e),
        },
        Request::Infer {
            model,
            deadline_micros,
            input,
        } => match router.infer_deadline(&model, &input, budget_of(deadline_micros)) {
            Ok(output) => Reply::Infer { output },
            Err(e) => to_error_reply(e),
        },
        Request::InferBatch {
            model,
            deadline_micros,
            batch,
            input,
        } => match router.infer_batch(&model, batch as usize, &input, budget_of(deadline_micros)) {
            Ok(output) => Reply::InferBatch { batch, output },
            Err(e) => to_error_reply(e),
        },
        // The router is the gathering side of the segment protocol; it
        // never serves segments itself.
        Request::InferSegment { model, .. } => Reply::Error {
            code: ErrorCode::BadInput,
            message: format!(
                "the router serves whole models; segment requests for {model:?} \
                 belong on a shard server"
            ),
        },
    }
}
