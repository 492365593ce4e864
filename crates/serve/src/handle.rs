//! The two ends of one in-flight request: the worker-side
//! [`CompletionCell`] and the client-side [`ResponseHandle`].

use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::error::ServeError;

/// Locks a mutex, recovering the data even if a worker died while holding
/// it (a poisoned queue is still structurally valid; requests it holds are
/// drained or canceled normally).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A completion callback registered via [`ResponseHandle::on_ready`]: it
/// receives the result directly (the slot is bypassed) on whatever thread
/// fulfills the request.
type Waker = Box<dyn FnOnce(Result<Vec<f32>, ServeError>) + Send>;

/// The slot and (optional) waker behind one in-flight request.
struct CompletionState {
    result: Option<Result<Vec<f32>, ServeError>>,
    waker: Option<Waker>,
    /// Set the moment a result exists — even if it was handed straight to
    /// a waker and never stored.
    fulfilled: bool,
}

/// Result slot shared between a worker and a [`ResponseHandle`].
pub(crate) struct Completion {
    state: Mutex<CompletionState>,
    ready: Condvar,
}

/// A worker-side completion reference that **guarantees** an answer: if it
/// is dropped unfulfilled (worker panic mid-batch, queue destroyed with
/// requests still parked), the waiting client gets
/// [`ServeError::Canceled`] instead of hanging forever.
pub(crate) struct CompletionCell(Arc<Completion>);

impl CompletionCell {
    pub(crate) fn fulfill(&self, result: Result<Vec<f32>, ServeError>) {
        let fire = {
            let mut st = lock(&self.0.state);
            if st.fulfilled {
                return; // already answered (e.g. fulfill then drop guard)
            }
            st.fulfilled = true;
            match st.waker.take() {
                Some(waker) => Some((waker, result)),
                None => {
                    st.result = Some(result);
                    self.0.ready.notify_all();
                    None
                }
            }
        };
        // The waker runs OUTSIDE the completion lock so it may take its
        // own locks (an event loop's completion queue, say). Note it can
        // still run under a scheduler lock if the fulfilling site holds
        // one — wakers must never call back into the pool.
        if let Some((waker, result)) = fire {
            waker(result);
        }
    }
}

/// Creates a fresh `(worker cell, client handle)` pair around one result
/// slot.
pub(crate) fn completion_pair() -> (CompletionCell, ResponseHandle) {
    let cell = Arc::new(Completion {
        state: Mutex::new(CompletionState {
            result: None,
            waker: None,
            fulfilled: false,
        }),
        ready: Condvar::new(),
    });
    (CompletionCell(Arc::clone(&cell)), ResponseHandle { cell })
}

impl Drop for CompletionCell {
    fn drop(&mut self) {
        // No-op if already fulfilled; otherwise the waiter (or waker)
        // learns the worker died.
        self.fulfill(Err(ServeError::Canceled));
    }
}

/// The client's end of one in-flight request.
///
/// Returned by [`TenantHandle::submit`](crate::TenantHandle::submit);
/// redeem it with [`ResponseHandle::wait`] from any thread. The handle is
/// independent of the pool's lifetime — shutdown drains in-flight
/// requests, so a handle taken before shutdown still resolves.
pub struct ResponseHandle {
    cell: Arc<Completion>,
}

impl core::fmt::Debug for ResponseHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ResponseHandle")
            .field("ready", &self.is_ready())
            .finish()
    }
}

impl ResponseHandle {
    /// Blocks until the batch carrying this request completes and returns
    /// the model's output row.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Canceled`] if the serving worker died before
    /// producing a result.
    pub fn wait(self) -> Result<Vec<f32>, ServeError> {
        let mut st = lock(&self.cell.state);
        loop {
            if let Some(result) = st.result.take() {
                return result;
            }
            st = self
                .cell
                .ready
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Non-blocking readiness probe.
    pub fn is_ready(&self) -> bool {
        lock(&self.cell.state).fulfilled
    }

    /// Registers `f` to run with the result the moment it exists — on the
    /// fulfilling worker's thread, or **immediately on this thread** if
    /// the request already completed. Consumes the handle: a request is
    /// redeemed either by [`ResponseHandle::wait`] or by a callback,
    /// never both.
    ///
    /// This is the event-driven alternative to parking a thread in
    /// `wait`: a nonblocking front end registers a callback that pushes
    /// the finished request onto its readiness loop's completion queue.
    ///
    /// `f` must be cheap and must not call back into the serving pool —
    /// it can run while scheduler locks are held (deadline expiry and
    /// overload shedding fulfill requests from inside the scheduler).
    pub fn on_ready(self, f: impl FnOnce(Result<Vec<f32>, ServeError>) + Send + 'static) {
        let mut st = lock(&self.cell.state);
        if let Some(result) = st.result.take() {
            drop(st);
            f(result);
            return;
        }
        st.waker = Some(Box::new(f));
    }
}
