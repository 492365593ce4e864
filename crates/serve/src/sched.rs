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
//! 3. batching is **work-conserving**: a worker that has drained its
//!    queue into a slab dispatches at once when no other worker is running
//!    a slab — waiting could only idle the pool. While other workers are
//!    busy the slab keeps filling, bounded by its own tightest effective
//!    deadline *and* by any other queue's urgency (a tight-deadline tenant
//!    preempts a slack tenant's batching slack), and a worker finishing its
//!    slab wakes the collecting one to re-evaluate;
//! 4. a request whose explicit deadline has already passed is failed fast
//!    with [`ServeError::DeadlineExceeded`] instead of running late (and
//!    counted in [`ServeStats::expired`](crate::ServeStats::expired)).
//!
//! Tenants can be added and removed while the pool is serving (hot model
//! swap); removal fails that tenant's parked requests with
//! [`ServeError::ShuttingDown`].

use std::any::Any;
use std::collections::HashMap;
use std::collections::VecDeque;
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

/// One registered model: queue + policy + stats.
struct Tenant {
    id: u64,
    model: Arc<dyn ErasedModel>,
    cfg: TenantConfig,
    queue: VecDeque<Pending>,
    stats: StatsAccum,
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
}

/// Everything behind the one pool mutex.
struct PoolState {
    tenants: Vec<Tenant>,
    next_id: u64,
    shutdown: bool,
    /// Workers currently running a slab (outside the lock).
    busy: usize,
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
            }),
            wake_workers: Condvar::new(),
            space: Condvar::new(),
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
    /// dispatched completes normally. Returns `false` if the tenant was
    /// already gone.
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
            // notify_all, not notify_one: a single wakeup could land on
            // a worker mid-collection for a *different* tenant, which
            // absorbs it without re-notifying — leaving an idle worker
            // parked while this request ages toward its deadline.
            self.shared.wake_workers.notify_all();
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

/// One pool worker: pick the tightest queue → collect → dispatch →
/// fulfill, forever.
fn worker_loop(shared: &Shared) {
    // Per-tenant scratch (created by the model, so the erased downcast is
    // infallible) plus grow-only slab/output staging shared across tenants.
    let mut scratches: HashMap<u64, Box<dyn Any + Send>> = HashMap::new();
    let mut slab: Vec<f32> = Vec::new();
    let mut out: Vec<f32> = Vec::new();
    let mut batch: Vec<Pending> = Vec::new();
    loop {
        let model;
        let tid;
        let reason;
        {
            let mut st = lock(&shared.state);
            // Pick phase: fail expired requests fast, then take the queue
            // whose tightest effective deadline is earliest.
            let picked = loop {
                let now = Instant::now();
                let mut expired = 0;
                for t in st.tenants.iter_mut() {
                    expired += t.expire_overdue(now);
                }
                if expired > 0 {
                    // Expiry freed queue capacity.
                    shared.space.notify_all();
                }
                let best = st
                    .tenants
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !t.queue.is_empty())
                    .min_by_key(|(_, t)| t.urgency().expect("queue is non-empty"))
                    .map(|(i, _)| i);
                if let Some(i) = best {
                    break i;
                }
                if st.shutdown {
                    return;
                }
                st = shared
                    .wake_workers
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            };
            let t = &mut st.tenants[picked];
            tid = t.id;
            model = Arc::clone(&t.model);
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
            // Collection wait: fill the slab until it is full, the pool
            // would otherwise idle, its own tightest effective deadline
            // arrives, or another queue becomes more urgent than waiting
            // any longer would allow.
            loop {
                if batch.len() >= max_batch {
                    reason = FlushReason::Full;
                    break;
                }
                if st.shutdown {
                    reason = FlushReason::Drain;
                    break;
                }
                if st.busy == 0 {
                    // Queue drained, no slab running: waiting overlaps nothing.
                    reason = FlushReason::Idle;
                    break;
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
                    // A tighter queue elsewhere: stop batching as soon as
                    // its deadline bites, so this worker frees up for it.
                    Some(u) if u < flush_at => u,
                    _ => flush_at,
                };
                let now = Instant::now();
                if now >= wait_until {
                    reason = FlushReason::Timeout;
                    break;
                }
                let (guard, _) = shared
                    .wake_workers
                    .wait_timeout(st, wait_until - now)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                st = guard;
                // Drain newly arrived requests (the tenant may have been
                // hot-removed while the lock was released).
                let Some(t) = st.tenant_mut(tid) else {
                    reason = FlushReason::Timeout;
                    break;
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
            }
            st.busy += 1;
        }
        // Dispatch outside the lock: other workers keep scheduling while
        // this slab runs.
        let (n, m) = (model.input_len(), model.output_len());
        let b = batch.len();
        if slab.len() < b * n {
            slab.resize(b * n, 0.0);
        }
        if out.len() < b * m {
            out.resize(b * m, 0.0);
        }
        for (i, r) in batch.iter().enumerate() {
            slab[i * n..(i + 1) * n].copy_from_slice(&r.input);
        }
        let scratch = scratches
            .entry(tid)
            .or_insert_with(|| model.make_scratch_box());
        let t0 = Instant::now();
        // A panicking model must not take a pool worker down (it would
        // starve every tenant): cancel this batch, discard the possibly
        // inconsistent scratch, keep serving.
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            model.infer_batch_erased(&slab[..b * n], b, scratch.as_mut(), &mut out[..b * m]);
        }));
        let infer = t0.elapsed();
        if ran.is_err() {
            // The batch is poisoned: some member crashed the model. Discard
            // the possibly inconsistent scratch, then quarantine — retry
            // each member alone with a fresh scratch so one poison request
            // cannot take its healthy co-batched neighbors down with it.
            scratches.remove(&tid);
            if let Some(t) = lock(&shared.state).tenant_mut(tid) {
                t.stats.record_panic();
            }
            if b == 1 {
                // The lone member *is* the poison; retrying it alone would
                // only panic again.
                for r in batch.drain(..) {
                    r.done.fulfill(Err(ServeError::Canceled));
                }
                finish_slab(shared, tid, |_| {});
                continue;
            }
            let mut succeeded = 0u64;
            let mut repanics = 0u64;
            for (i, r) in batch.drain(..).enumerate() {
                let mut scratch = model.make_scratch_box();
                let one = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    model.infer_batch_erased(
                        &slab[i * n..(i + 1) * n],
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
            // The worker stayed busy through the quarantine pass.
            finish_slab(shared, tid, |stats| {
                stats.record_retries(b as u64, succeeded);
                for _ in 0..repanics {
                    stats.record_panic();
                }
            });
            continue;
        }
        let completed = Instant::now();
        let mut latency_sum = Duration::ZERO;
        let mut latency_max = Duration::ZERO;
        for r in &batch {
            let waited = completed.saturating_duration_since(r.enqueued);
            latency_sum += waited;
            latency_max = latency_max.max(waited);
        }
        // Per-tenant accounting BEFORE fulfilling: a client that has its
        // reply in hand must see this batch in the tenant's stats. (The
        // tenant may have been removed while the batch ran; its stats die
        // with it.)
        finish_slab(shared, tid, |stats| {
            stats.record_batch(b, reason, infer, latency_sum, latency_max);
        });
        for (i, r) in batch.drain(..).enumerate() {
            r.done.fulfill(Ok(out[i * m..(i + 1) * m].to_vec()));
        }
    }
}

/// A worker's slab has run: the pool has one busy worker fewer, `record`
/// folds the outcome into the tenant's stats (if it still exists), and a
/// worker collecting behind this one is woken to re-evaluate.
fn finish_slab(shared: &Shared, tid: u64, record: impl FnOnce(&mut StatsAccum)) {
    let mut st = lock(&shared.state);
    st.busy -= 1;
    if let Some(t) = st.tenant_mut(tid) {
        record(&mut t.stats);
    }
    drop(st);
    shared.wake_workers.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use circnn_core::BlockCirculantMatrix;
    use circnn_tensor::init::seeded_rng;

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
