//! The scheduler: many named models, one shared worker pool, deadline-aware
//! dynamic batching.
//!
//! [`MultiServer`] runs a fixed pool of workers over any number of
//! **tenants** (one is the common case), each with its own bounded queue,
//! batching policy ([`TenantConfig`]) and statistics. Requests may carry
//! an optional **deadline**; the scheduling rule is:
//!
//! 1. every request has an *effective deadline* — its explicit deadline, or
//!    `enqueued + max_wait` (its batching slack) if it has none, whichever
//!    is tighter;
//! 2. a free worker always serves the queue whose tightest effective
//!    deadline is earliest;
//! 3. batching is **work-conserving**: a slab that has drained its queue
//!    dispatches at once when no other slab is running — waiting could
//!    only idle the pool. While other slabs run, a worker's slab keeps
//!    filling, bounded by its own tightest effective deadline *and* by any
//!    other queue's urgency (a tight-deadline tenant preempts a slack
//!    tenant's batching slack), and a finishing slab wakes the collecting
//!    worker to re-evaluate. On an idle pool the thread that queued the
//!    request may run that slab itself ([`MultiServer::serve_idle`], the
//!    inline rule below);
//! 4. a request whose explicit deadline has already passed is failed fast
//!    with [`ServeError::DeadlineExceeded`] instead of running late (and
//!    counted in [`ServeStats::expired`](crate::ServeStats::expired)).
//!
//! **Seats.** At most `workers` slabs run at once, inline ones included: a
//! worker picks a queue only while the running and collecting slabs leave
//! it a seat, and a slab gives its seat back only after its replies are
//! fulfilled, so a later slab on the same pool can never deliver ahead of
//! an earlier one that has finished computing.
//!
//! **The inline rule.** [`TenantHandle::offer_with_deadline`] (the event
//! loop's submit) does not wake the workers; the caller follows its
//! offers with one [`MultiServer::serve_idle`], which runs a slab on the
//! calling thread when all of these hold, and wakes the workers otherwise:
//!
//! * no slab is running and no worker is collecting one;
//! * the slab is the most urgent queue by rule 2 (after expiry), and it
//!   flushes as `Idle`: the queue holds fewer than `max_batch` requests;
//! * its estimated cost — the tenant's measured model time per request
//!   times the slab size — is below the tenant's `max_wait`. A tenant with
//!   no measurement yet, or with `max_wait = 0`, never runs inline.
//!
//! The last condition bounds how long the calling thread (an I/O loop)
//! stops reading by the batching slack its tenant already grants: short
//! slabs cross no thread, long or batched ones go to a worker, where the
//! hand-off is amortised.
//!
//! Tenants can be added and removed while the pool is serving (hot model
//! swap); removal fails that tenant's parked requests with
//! [`ServeError::ShuttingDown`] and drops the model scratches it kept.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::config::{OverloadPolicy, TenantConfig};
use crate::error::ServeError;
use crate::handle::{completion_pair, lock, CompletionCell, ResponseHandle};
use crate::model::{ErasedModel, ServeModel};
use crate::stats::{FlushReason, ServeStats, StatsAccum};

/// One request parked in a tenant queue.
struct Pending {
    input: Vec<f32>,
    enqueued: Instant,
    /// Explicit client deadline; `None` means "whenever the batcher is
    /// ready" (bounded only by the tenant's `max_wait` slack).
    deadline: Option<Instant>,
    done: CompletionCell,
}

impl Pending {
    /// The instant by which this request wants to be dispatched: the
    /// explicit deadline capped by the batching slack.
    fn effective_deadline(&self, max_wait: Duration) -> Instant {
        let flush = self.enqueued + max_wait;
        match self.deadline {
            Some(d) => d.min(flush),
            None => flush,
        }
    }
}

/// A model's scratch, created by the model (so the erased downcast is
/// infallible).
type Scratch = Box<dyn Any + Send>;

/// One registered model: queue + policy + stats.
struct Tenant {
    id: u64,
    model: Arc<dyn ErasedModel>,
    cfg: TenantConfig,
    queue: VecDeque<Pending>,
    stats: StatsAccum,
    /// Scratches not in use: a slab takes one (or makes one) and gives it
    /// back when it settles, so there are never more than the slabs of
    /// this tenant that ran at once, and they go with the tenant.
    scratches: Vec<Scratch>,
}

impl Tenant {
    /// The tightest effective deadline over the parked requests (`None`
    /// when the queue is empty).
    fn urgency(&self) -> Option<Instant> {
        self.queue
            .iter()
            .map(|r| r.effective_deadline(self.cfg.max_wait))
            .min()
    }

    /// Fails every parked request whose explicit deadline has passed,
    /// removing it from the queue. Returns how many were expired.
    fn expire_overdue(&mut self, now: Instant) -> usize {
        let mut expired = 0;
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].deadline.is_some_and(|d| d <= now) {
                let r = self.queue.remove(i).expect("index checked in bounds");
                r.done.fulfill(Err(ServeError::DeadlineExceeded));
                self.stats.record_expired();
                expired += 1;
            } else {
                i += 1;
            }
        }
        expired
    }

    /// The inline rule's cost test: a slab of `b` requests, at this
    /// tenant's measured model time per request, runs within its
    /// `max_wait`. Unmeasured tenants do not pass.
    fn fits_slack(&self, b: usize) -> bool {
        let s = &self.stats;
        s.requests > 0
            && s.infer_ns * b as u128 / u128::from(s.requests) < self.cfg.max_wait.as_nanos()
    }
}

/// Everything behind the one pool mutex.
struct PoolState {
    tenants: Vec<Tenant>,
    next_id: u64,
    shutdown: bool,
    /// Slabs running outside the lock, on workers and inline alike.
    busy: usize,
    /// Workers between picking a queue and dispatching its slab.
    collecting: usize,
}

impl PoolState {
    fn tenant_mut(&mut self, id: u64) -> Option<&mut Tenant> {
        self.tenants.iter_mut().find(|t| t.id == id)
    }

    fn tenant(&self, id: u64) -> Option<&Tenant> {
        self.tenants.iter().find(|t| t.id == id)
    }
}

/// State shared by the pool handle, the workers and every tenant handle.
struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for requests (and for shutdown).
    wake_workers: Condvar,
    /// Backpressured submitters wait here for queue space.
    space: Condvar,
    /// Slab seats: the worker count.
    seats: usize,
    /// Set by [`TenantHandle::offer_with_deadline`], whose wake is
    /// deferred to the next [`MultiServer::serve_idle`]. The offer's
    /// `Release` store pairs with `serve_idle`'s `AcqRel` swap: a thread
    /// that takes the flag then locks the pool after the offer unlocked
    /// it, so it sees the offered request.
    unwoken: AtomicBool,
}

/// A multi-tenant inference server: one shared worker pool serving many
/// named models with deadline-aware scheduling.
///
/// # Examples
///
/// ```
/// use circnn_core::BlockCirculantMatrix;
/// use circnn_serve::{MultiServer, TenantConfig};
/// use circnn_tensor::init::seeded_rng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pool = MultiServer::start(2)?;
/// let a = pool.add_tenant(
///     BlockCirculantMatrix::random(&mut seeded_rng(0), 32, 64, 8)?,
///     TenantConfig::default(),
/// )?;
/// let b = pool.add_tenant(
///     BlockCirculantMatrix::random(&mut seeded_rng(1), 16, 32, 8)?,
///     TenantConfig::default(),
/// )?;
/// let ya = a.submit(vec![0.5; 64])?;
/// let yb = b.submit(vec![0.5; 32])?;
/// assert_eq!(ya.wait()?.len(), 32);
/// assert_eq!(yb.wait()?.len(), 16);
/// pool.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct MultiServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl core::fmt::Debug for MultiServer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MultiServer")
            .field("workers", &self.workers.len())
            .field("tenants", &self.tenant_count())
            .finish()
    }
}

impl MultiServer {
    /// Starts the shared worker pool (no tenants yet).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] if `workers` is zero.
    pub fn start(workers: usize) -> Result<Self, ServeError> {
        if workers == 0 {
            return Err(ServeError::BadConfig("workers must be ≥ 1"));
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                tenants: Vec::new(),
                next_id: 0,
                shutdown: false,
                busy: 0,
                collecting: 0,
            }),
            wake_workers: Condvar::new(),
            space: Condvar::new(),
            seats: workers,
            unwoken: AtomicBool::new(false),
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("circnn-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker")
            })
            .collect();
        Ok(Self { shared, workers })
    }

    /// Registers a model as a new tenant and returns its handle.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for zero-valued policy knobs or
    /// [`ServeError::ShuttingDown`] after shutdown began.
    pub fn add_tenant<M: ServeModel>(
        &self,
        model: M,
        cfg: TenantConfig,
    ) -> Result<TenantHandle, ServeError> {
        self.add_tenant_shared(Arc::new(model), cfg)
    }

    /// [`MultiServer::add_tenant`] around an already-shared model (so the
    /// caller can keep a reference for direct comparison).
    ///
    /// # Errors
    ///
    /// As [`MultiServer::add_tenant`].
    pub fn add_tenant_shared<M: ServeModel>(
        &self,
        model: Arc<M>,
        cfg: TenantConfig,
    ) -> Result<TenantHandle, ServeError> {
        cfg.validate()?;
        let model: Arc<dyn ErasedModel> = model;
        let (input_len, output_len) = (model.input_len(), model.output_len());
        let mut st = lock(&self.shared.state);
        if st.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        let id = st.next_id;
        st.next_id += 1;
        st.tenants.push(Tenant {
            id,
            model,
            cfg,
            queue: VecDeque::new(),
            stats: StatsAccum::default(),
            scratches: Vec::new(),
        });
        Ok(TenantHandle {
            shared: Arc::clone(&self.shared),
            id,
            input_len,
            output_len,
        })
    }

    /// Unregisters a tenant (hot removal). Requests still parked in its
    /// queue fail with [`ServeError::ShuttingDown`]; a batch already
    /// dispatched completes normally. The tenant's idle model scratches
    /// are dropped now, a running slab's when it settles. Returns `false`
    /// if the tenant was already gone.
    pub fn remove_tenant(&self, handle: &TenantHandle) -> bool {
        let mut st = lock(&self.shared.state);
        let Some(pos) = st.tenants.iter().position(|t| t.id == handle.id) else {
            return false;
        };
        let tenant = st.tenants.remove(pos);
        drop(st);
        self.shared.space.notify_all();
        for r in tenant.queue {
            r.done.fulfill(Err(ServeError::ShuttingDown));
        }
        true
    }

    /// Runs one slab on the calling thread if the pool is idle, and wakes
    /// the workers otherwise: the deferred wake of every
    /// [`TenantHandle::offer_with_deadline`] since the last call (see the
    /// module doc's inline rule). Returns whether a slab ran here; its
    /// replies are fulfilled before it returns. Cheap when nothing was
    /// offered since the last call.
    ///
    /// An event loop calls this once per pass, after dispatching the
    /// pass's requests, with the [`Runner`] it owns.
    pub fn serve_idle(&self, runner: &mut Runner) -> bool {
        let shared = &*self.shared;
        if !shared.unwoken.swap(false, Ordering::AcqRel) {
            return false;
        }
        let mut st = lock(&shared.state);
        let Some(i) = most_urgent(&mut st, &shared.space) else {
            return false;
        };
        let t = &st.tenants[i];
        let inline = !st.shutdown
            && st.busy == 0
            && st.collecting == 0
            && t.queue.len() < t.cfg.max_batch
            && t.fits_slack(t.queue.len());
        if !inline {
            drop(st);
            shared.wake_workers.notify_all();
            return false;
        }
        let t = &mut st.tenants[i];
        runner.batch.extend(t.queue.drain(..));
        let slab = Slab {
            tid: t.id,
            model: Arc::clone(&t.model),
            reason: FlushReason::Idle,
            scratch: t.scratches.pop(),
        };
        st.busy += 1;
        let more = st.tenants.iter().any(|t| !t.queue.is_empty());
        drop(st);
        shared.space.notify_all();
        if more {
            // Another tenant's queue is waiting: a free seat serves it.
            shared.wake_workers.notify_all();
        }
        run_slab(shared, runner, slab);
        true
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        lock(&self.shared.state).tenants.len()
    }

    /// Graceful shutdown: stop accepting requests, drain every queue
    /// (every outstanding [`ResponseHandle`] resolves), and join the
    /// workers. Tenant handles remain valid for [`TenantHandle::stats`].
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn begin_shutdown(&self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.wake_workers.notify_all();
        self.shared.space.notify_all();
    }
}

impl Drop for MultiServer {
    /// Dropping the pool without [`MultiServer::shutdown`] still drains
    /// gracefully.
    fn drop(&mut self) {
        self.begin_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// What a submission does when the tenant queue is at capacity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SubmitMode {
    /// Apply the overload policy; park on the space condvar under
    /// [`OverloadPolicy::Block`].
    Block,
    /// `QueueFull` immediately, before the policy gets a say.
    FailFast,
    /// Apply the overload policy, but never park: `Block` maps to
    /// `QueueFull` (the caller backpressures its own source).
    Policy,
}

/// A tenant's submission interface, returned by
/// [`MultiServer::add_tenant`]. Cloneable — a serving front-end hands one
/// clone to every connection.
#[derive(Clone)]
pub struct TenantHandle {
    shared: Arc<Shared>,
    id: u64,
    input_len: usize,
    output_len: usize,
}

impl core::fmt::Debug for TenantHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TenantHandle")
            .field("id", &self.id)
            .field("input_len", &self.input_len)
            .field("output_len", &self.output_len)
            .finish()
    }
}

impl TenantHandle {
    /// Length of one request vector (`n`).
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Length of one response vector (`m`).
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// Submits one `[n]` request with no deadline, blocking while this
    /// tenant's queue is full (backpressure).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] on a mis-sized vector,
    /// [`ServeError::UnknownTenant`] after removal, or
    /// [`ServeError::ShuttingDown`] after pool shutdown began.
    pub fn submit(&self, mut input: Vec<f32>) -> Result<ResponseHandle, ServeError> {
        self.enqueue(&mut input, None, SubmitMode::Block)
    }

    /// Submits with an optional deadline **budget**: the request must be
    /// dispatched within `budget` of now or it fails fast with
    /// [`ServeError::DeadlineExceeded`]. Tighter budgets are scheduled
    /// ahead of slacker queues.
    ///
    /// # Errors
    ///
    /// As [`TenantHandle::submit`]; the deadline error surfaces through
    /// the returned handle's `wait`.
    pub fn submit_with_deadline(
        &self,
        mut input: Vec<f32>,
        budget: Option<Duration>,
    ) -> Result<ResponseHandle, ServeError> {
        self.enqueue(
            &mut input,
            budget.map(|b| Instant::now() + b),
            SubmitMode::Block,
        )
    }

    /// Non-blocking [`TenantHandle::submit_with_deadline`].
    ///
    /// # Errors
    ///
    /// As [`TenantHandle::submit_with_deadline`], plus
    /// [`ServeError::QueueFull`] instead of blocking.
    pub fn try_submit_with_deadline(
        &self,
        mut input: Vec<f32>,
        budget: Option<Duration>,
    ) -> Result<ResponseHandle, ServeError> {
        self.enqueue(
            &mut input,
            budget.map(|b| Instant::now() + b),
            SubmitMode::FailFast,
        )
    }

    /// Policy-aware non-blocking submit: at capacity, `Reject` and
    /// `ShedOldest` behave exactly as a blocking submission would
    /// (recorded rejection / shed-then-admit), while the `Block` policy —
    /// which cannot block here — surfaces [`ServeError::QueueFull`] so
    /// the caller applies its own backpressure (an event loop stops
    /// reading the connection and re-offers when the queue drains).
    ///
    /// `input` is passed by mutable reference so the caller keeps the
    /// vector on rejection (and can park it for a later re-offer without
    /// a copy); on success it is taken and left empty.
    ///
    /// An offer does **not** wake the workers: the caller follows its
    /// offers with [`MultiServer::serve_idle`], which either runs the slab
    /// on the calling thread or wakes them. An event loop calls it once
    /// per pass, so a pass's offers cost one wake at most.
    ///
    /// # Errors
    ///
    /// As [`TenantHandle::submit_with_deadline`], plus
    /// [`ServeError::QueueFull`] under the `Block` policy at capacity.
    pub fn offer_with_deadline(
        &self,
        input: &mut Vec<f32>,
        budget: Option<Duration>,
    ) -> Result<ResponseHandle, ServeError> {
        self.enqueue(
            input,
            budget.map(|b| Instant::now() + b),
            SubmitMode::Policy,
        )
    }

    fn enqueue(
        &self,
        input: &mut Vec<f32>,
        deadline: Option<Instant>,
        mode: SubmitMode,
    ) -> Result<ResponseHandle, ServeError> {
        if input.len() != self.input_len {
            return Err(ServeError::BadInput {
                expected: self.input_len,
                got: input.len(),
            });
        }
        let mut st = lock(&self.shared.state);
        loop {
            if st.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            let Some(pos) = st.tenants.iter().position(|t| t.id == self.id) else {
                return Err(ServeError::UnknownTenant);
            };
            let t = &mut st.tenants[pos];
            if t.queue.len() >= t.cfg.queue_capacity {
                // The queue is at capacity: the overload policy decides.
                // Fail-fast submitters asked for `QueueFull` regardless.
                if mode == SubmitMode::FailFast {
                    return Err(ServeError::QueueFull);
                }
                match t.cfg.overload {
                    OverloadPolicy::Block => {
                        // A policy-aware non-blocking submitter cannot
                        // park here; `QueueFull` tells it to backpressure
                        // its own source instead.
                        if mode == SubmitMode::Policy {
                            return Err(ServeError::QueueFull);
                        }
                        st = self
                            .shared
                            .space
                            .wait(st)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        continue;
                    }
                    OverloadPolicy::Reject => {
                        t.stats.record_rejected();
                        return Err(ServeError::Overloaded);
                    }
                    OverloadPolicy::ShedOldest => {
                        // Cancel the queued request that is worst off
                        // against its staleness deadline (the earliest
                        // effective deadline — it would be answered
                        // uselessly late anyway), then fall through and
                        // admit the fresh one.
                        let max_wait = t.cfg.max_wait;
                        if let Some(worst) = (0..t.queue.len())
                            .min_by_key(|&i| t.queue[i].effective_deadline(max_wait))
                        {
                            let r = t.queue.remove(worst).expect("index in bounds");
                            r.done.fulfill(Err(ServeError::Overloaded));
                            t.stats.record_shed();
                        }
                    }
                }
            }
            let (done, handle) = completion_pair();
            t.queue.push_back(Pending {
                input: std::mem::take(input),
                enqueued: Instant::now(),
                deadline,
                done,
            });
            drop(st);
            if mode == SubmitMode::Policy {
                // The wake is deferred to the caller's `serve_idle`.
                self.shared.unwoken.store(true, Ordering::Release);
            } else {
                // notify_all, not notify_one: a single wakeup could land
                // on a worker mid-collection for a *different* tenant,
                // which absorbs it without re-notifying — leaving an idle
                // worker parked while this request ages toward its
                // deadline.
                self.shared.wake_workers.notify_all();
            }
            return Ok(handle);
        }
    }

    /// Requests currently parked in this tenant's queue.
    pub fn pending(&self) -> usize {
        lock(&self.shared.state)
            .tenant(self.id)
            .map_or(0, |t| t.queue.len())
    }

    /// Snapshot of this tenant's serving statistics (occupancy, flush
    /// reasons, expirations, latency — per tenant, not pool-global).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownTenant`] after removal.
    pub fn stats(&self) -> Result<ServeStats, ServeError> {
        lock(&self.shared.state)
            .tenant(self.id)
            .map(|t| t.stats.snapshot())
            .ok_or(ServeError::UnknownTenant)
    }
}

/// The grow-only staging one slab-running thread reuses across slabs:
/// the batch taken from a queue and its `[B, n]` / `[B, m]` slabs. Each
/// pool worker owns one, and so does each thread that calls
/// [`MultiServer::serve_idle`]. Model scratches are not here: they stay
/// with their tenant.
#[derive(Default)]
pub struct Runner {
    batch: Vec<Pending>,
    slab: Vec<f32>,
    out: Vec<f32>,
}

impl core::fmt::Debug for Runner {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Runner")
            .field("slab_floats", &self.slab.len())
            .field("out_floats", &self.out.len())
            .finish()
    }
}

/// A slab taken from its queue (its requests are in the runner's
/// `batch`), holding one seat until it settles.
struct Slab {
    tid: u64,
    model: Arc<dyn ErasedModel>,
    reason: FlushReason,
    /// The tenant's idle scratch, if it had one.
    scratch: Option<Scratch>,
}

/// Fails every overdue request (rule 4), then returns the index of the
/// queue whose tightest effective deadline is earliest (rule 2).
fn most_urgent(st: &mut PoolState, space: &Condvar) -> Option<usize> {
    let now = Instant::now();
    let mut expired = 0;
    for t in st.tenants.iter_mut() {
        expired += t.expire_overdue(now);
    }
    if expired > 0 {
        // Expiry freed queue capacity.
        space.notify_all();
    }
    st.tenants
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.queue.is_empty())
        .min_by_key(|(_, t)| t.urgency().expect("queue is non-empty"))
        .map(|(i, _)| i)
}

/// One pool worker: pick the tightest queue → collect → run, until
/// shutdown has drained every queue.
fn worker_loop(shared: &Shared) {
    let mut runner = Runner::default();
    while let Some(slab) = collect_slab(shared, &mut runner.batch) {
        run_slab(shared, &mut runner, slab);
    }
}

/// A worker's pick and collection phases: waits for a queue and a free
/// seat, then fills `batch` by rule 3. `None` once shutdown has drained
/// every queue.
fn collect_slab(shared: &Shared, batch: &mut Vec<Pending>) -> Option<Slab> {
    let mut st = lock(&shared.state);
    let picked = loop {
        match most_urgent(&mut st, &shared.space) {
            Some(i) if st.busy + st.collecting < shared.seats => break i,
            None if st.shutdown => return None,
            _ => {}
        }
        st = shared
            .wake_workers
            .wait(st)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    };
    st.collecting += 1;
    let t = &mut st.tenants[picked];
    let tid = t.id;
    let model = Arc::clone(&t.model);
    let max_batch = t.cfg.max_batch;
    let max_wait = t.cfg.max_wait;
    while batch.len() < max_batch {
        match t.queue.pop_front() {
            Some(r) => batch.push(r),
            None => break,
        }
    }
    // Every pop frees queue capacity — wake blocked submitters now.
    shared.space.notify_all();
    // Collection wait: fill the slab until it is full, the pool would
    // otherwise idle, its own tightest effective deadline arrives, or
    // another queue becomes more urgent than waiting any longer would
    // allow.
    let reason = loop {
        if batch.len() >= max_batch {
            break FlushReason::Full;
        }
        if st.shutdown {
            break FlushReason::Drain;
        }
        if st.busy == 0 {
            // Queue drained, no slab running: waiting overlaps nothing.
            break FlushReason::Idle;
        }
        let flush_at = batch
            .iter()
            .map(|r| r.effective_deadline(max_wait))
            .min()
            .expect("batch is non-empty");
        let other_urgent = st
            .tenants
            .iter()
            .filter(|t| t.id != tid && !t.queue.is_empty())
            .filter_map(Tenant::urgency)
            .min();
        let wait_until = match other_urgent {
            // A tighter queue elsewhere: stop batching as soon as its
            // deadline bites, so this worker frees up for it.
            Some(u) if u < flush_at => u,
            _ => flush_at,
        };
        let now = Instant::now();
        if now >= wait_until {
            break FlushReason::Timeout;
        }
        let (guard, _) = shared
            .wake_workers
            .wait_timeout(st, wait_until - now)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st = guard;
        // Drain newly arrived requests (the tenant may have been
        // hot-removed while the lock was released).
        let Some(t) = st.tenant_mut(tid) else {
            break FlushReason::Timeout;
        };
        let now = Instant::now();
        while batch.len() < max_batch {
            match t.queue.pop_front() {
                Some(r) if r.deadline.is_some_and(|d| d <= now) => {
                    r.done.fulfill(Err(ServeError::DeadlineExceeded));
                    t.stats.record_expired();
                }
                Some(r) => batch.push(r),
                None => break,
            }
        }
        shared.space.notify_all();
    };
    st.collecting -= 1;
    st.busy += 1;
    let scratch = st.tenant_mut(tid).and_then(|t| t.scratches.pop());
    Some(Slab {
        tid,
        model,
        reason,
        scratch,
    })
}

/// Runs one slab outside the lock — copy-in, the model call, quarantine
/// on a panic, stats, fulfil — then gives its seat back. The one slab
/// body of both callers: pool workers and [`MultiServer::serve_idle`].
fn run_slab(shared: &Shared, runner: &mut Runner, slab: Slab) {
    let Runner {
        batch,
        slab: xs,
        out,
    } = runner;
    let Slab {
        tid,
        model,
        reason,
        scratch,
    } = slab;
    let (n, m) = (model.input_len(), model.output_len());
    let b = batch.len();
    if xs.len() < b * n {
        xs.resize(b * n, 0.0);
    }
    if out.len() < b * m {
        out.resize(b * m, 0.0);
    }
    for (i, r) in batch.iter().enumerate() {
        xs[i * n..(i + 1) * n].copy_from_slice(&r.input);
    }
    let mut scratch = scratch.unwrap_or_else(|| model.make_scratch_box());
    let t0 = Instant::now();
    // A panicking model must not take the running thread down (a worker
    // would starve every tenant, an I/O loop every connection): cancel
    // this batch, discard the possibly inconsistent scratch, keep serving.
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        model.infer_batch_erased(&xs[..b * n], b, scratch.as_mut(), &mut out[..b * m]);
    }));
    let infer = t0.elapsed();
    if ran.is_err() {
        // The batch is poisoned: some member crashed the model. Drop the
        // scratch, then quarantine — retry each member alone with a fresh
        // scratch so one poison request cannot take its healthy
        // co-batched neighbors down with it.
        drop(scratch);
        settle(shared, tid, None, StatsAccum::record_panic);
        if b == 1 {
            // The lone member *is* the poison; retrying it alone would
            // only panic again.
            for r in batch.drain(..) {
                r.done.fulfill(Err(ServeError::Canceled));
            }
            release_seat(shared);
            return;
        }
        let mut succeeded = 0u64;
        let mut repanics = 0u64;
        for (i, r) in batch.drain(..).enumerate() {
            let mut scratch = model.make_scratch_box();
            let one = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                model.infer_batch_erased(
                    &xs[i * n..(i + 1) * n],
                    1,
                    scratch.as_mut(),
                    &mut out[..m],
                );
            }));
            match one {
                Ok(()) => {
                    succeeded += 1;
                    r.done.fulfill(Ok(out[..m].to_vec()));
                }
                Err(_) => {
                    repanics += 1;
                    r.done.fulfill(Err(ServeError::Canceled));
                }
            }
        }
        // The slab held its seat through the quarantine pass.
        settle(shared, tid, None, |stats| {
            stats.record_retries(b as u64, succeeded);
            for _ in 0..repanics {
                stats.record_panic();
            }
        });
        release_seat(shared);
        return;
    }
    let completed = Instant::now();
    let mut latency_sum = Duration::ZERO;
    let mut latency_max = Duration::ZERO;
    for r in batch.iter() {
        let waited = completed.saturating_duration_since(r.enqueued);
        latency_sum += waited;
        latency_max = latency_max.max(waited);
    }
    // Per-tenant accounting BEFORE fulfilling: a client that has its
    // reply in hand must see this batch in the tenant's stats. (The
    // tenant may have been removed while the batch ran; its stats die
    // with it.)
    settle(shared, tid, Some(scratch), |stats| {
        stats.record_batch(b, reason, infer, latency_sum, latency_max);
    });
    for (i, r) in batch.drain(..).enumerate() {
        r.done.fulfill(Ok(out[i * m..(i + 1) * m].to_vec()));
    }
    // The seat goes back only now: a slab that starts after this one
    // cannot deliver ahead of it.
    release_seat(shared);
}

/// A slab has run: `record` folds its outcome into the tenant's stats and
/// its scratch goes back to the tenant (both only if the tenant still
/// exists; otherwise they are dropped).
fn settle(
    shared: &Shared,
    tid: u64,
    scratch: Option<Scratch>,
    record: impl FnOnce(&mut StatsAccum),
) {
    if let Some(t) = lock(&shared.state).tenant_mut(tid) {
        record(&mut t.stats);
        t.scratches.extend(scratch);
    }
}

/// A slab's replies are out: the pool has one busy seat fewer, and the
/// workers are woken if one is collecting behind it, a queue is waiting,
/// or the pool is shutting down — not otherwise, or every inline slab
/// would wake the idle workers for nothing.
fn release_seat(shared: &Shared) {
    let mut st = lock(&shared.state);
    st.busy -= 1;
    let wake = st.collecting > 0 || st.shutdown || st.tenants.iter().any(|t| !t.queue.is_empty());
    drop(st);
    if wake {
        shared.wake_workers.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeModel;
    use circnn_core::BlockCirculantMatrix;
    use circnn_tensor::init::seeded_rng;
    use std::sync::atomic::AtomicUsize;

    /// A 2-wide echo whose scratches count themselves: `live` rises when
    /// one is made and falls when one is dropped.
    struct Counted(Arc<AtomicUsize>);

    struct CountedScratch(Arc<AtomicUsize>);

    impl Drop for CountedScratch {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl ServeModel for Counted {
        type Scratch = CountedScratch;
        fn make_scratch(&self) -> CountedScratch {
            self.0.fetch_add(1, Ordering::SeqCst);
            CountedScratch(Arc::clone(&self.0))
        }
        fn input_len(&self) -> usize {
            2
        }
        fn output_len(&self) -> usize {
            2
        }
        fn infer_batch(&self, x: &[f32], _: usize, _: &mut CountedScratch, out: &mut [f32]) {
            out.copy_from_slice(x);
        }
    }

    fn slack(max_wait: Duration) -> TenantConfig {
        TenantConfig {
            max_wait,
            ..TenantConfig::default()
        }
    }

    /// Hot swaps leave no model scratch behind: whoever ran the slabs
    /// (workers on `submit`, the calling thread on `serve_idle`), removing
    /// the tenant drops every scratch made for it.
    #[test]
    fn hot_swaps_leave_no_model_scratch_behind() {
        let live = Arc::new(AtomicUsize::new(0));
        let pool = MultiServer::start(2).unwrap();
        let mut runner = Runner::default();
        for swap in 0..10 {
            let h = pool
                .add_tenant(Counted(Arc::clone(&live)), slack(Duration::from_secs(1)))
                .unwrap();
            for i in 0..4 {
                let x = vec![i as f32; 2];
                assert_eq!(h.submit(x.clone()).unwrap().wait().unwrap(), x);
            }
            let mut x = vec![7.0; 2];
            let reply = h.offer_with_deadline(&mut x, None).unwrap();
            pool.serve_idle(&mut runner);
            assert_eq!(reply.wait().unwrap(), vec![7.0; 2]);
            assert!(live.load(Ordering::SeqCst) >= 1);
            assert!(pool.remove_tenant(&h));
            assert_eq!(
                live.load(Ordering::SeqCst),
                0,
                "swap {swap}: scratches outlived their tenant"
            );
        }
        pool.shutdown();
    }

    /// A finished slab keeps its seat until its replies are fulfilled. The
    /// reply callback stands in for an event loop that reacts to a reply
    /// by offering the connection's next request: the pool must not look
    /// idle to it yet, or that request could run inline and be answered
    /// before the rest of the finished slab.
    #[test]
    fn a_slab_keeps_its_seat_until_its_replies_are_out() {
        let pool = Arc::new(MultiServer::start(1).unwrap());
        let h = pool
            .add_tenant(
                Counted(Arc::new(AtomicUsize::new(0))),
                slack(Duration::from_secs(1)),
            )
            .unwrap();
        // Measure the tenant so the inline rule's cost test passes.
        assert_eq!(h.submit(vec![1.0; 2]).unwrap().wait().unwrap(), [1.0; 2]);
        let (tx, rx) = std::sync::mpsc::channel();
        let mut x = vec![2.0; 2];
        let first = h.offer_with_deadline(&mut x, None).unwrap();
        let (next, pool2) = (h.clone(), Arc::clone(&pool));
        first.on_ready(move |r| {
            let mut x = vec![3.0; 2];
            let later = next.offer_with_deadline(&mut x, None).unwrap();
            let inline = pool2.serve_idle(&mut Runner::default());
            tx.send((r, inline, later)).unwrap();
        });
        // Runs the first request here or, if the worker still holds the
        // warm-up's seat, on the worker.
        pool.serve_idle(&mut Runner::default());
        let (r, inline, later) = rx.recv().unwrap();
        assert_eq!(r.unwrap(), [2.0; 2]);
        assert!(
            !inline,
            "a slab ran while another's replies were undelivered"
        );
        assert_eq!(later.wait().unwrap(), [3.0; 2]);
    }

    fn operator(m: usize, n: usize, k: usize, seed: u64) -> BlockCirculantMatrix {
        BlockCirculantMatrix::random(&mut seeded_rng(seed), m, n, k).expect("valid shape")
    }

    #[test]
    fn tenants_are_isolated_and_removable() {
        let pool = MultiServer::start(1).unwrap();
        let a = pool
            .add_tenant(operator(16, 24, 8, 1), TenantConfig::default())
            .unwrap();
        let b = pool
            .add_tenant(operator(8, 16, 4, 2), TenantConfig::default())
            .unwrap();
        assert_eq!(pool.tenant_count(), 2);
        assert_eq!(a.submit(vec![0.1; 24]).unwrap().wait().unwrap().len(), 16);
        assert_eq!(b.submit(vec![0.1; 16]).unwrap().wait().unwrap().len(), 8);
        assert!(pool.remove_tenant(&a));
        assert!(!pool.remove_tenant(&a), "double removal reports false");
        assert_eq!(
            a.submit(vec![0.1; 24]).unwrap_err(),
            ServeError::UnknownTenant
        );
        assert_eq!(a.stats().unwrap_err(), ServeError::UnknownTenant);
        // The surviving tenant keeps serving.
        assert_eq!(b.submit(vec![0.2; 16]).unwrap().wait().unwrap().len(), 8);
        pool.shutdown();
        assert!(b.stats().unwrap().requests >= 2);
    }

    #[test]
    fn mis_sized_and_post_shutdown_submissions_fail() {
        let pool = MultiServer::start(1).unwrap();
        let h = pool
            .add_tenant(operator(8, 16, 4, 3), TenantConfig::default())
            .unwrap();
        assert!(matches!(
            h.submit(vec![0.0; 15]),
            Err(ServeError::BadInput {
                expected: 16,
                got: 15
            })
        ));
        pool.shutdown();
        assert_eq!(
            h.submit(vec![0.0; 16]).unwrap_err(),
            ServeError::ShuttingDown
        );
    }
}
