//! Per-batch occupancy and latency accounting.

use std::time::Duration;

/// Why a worker stopped collecting and dispatched its slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The slab reached `max_batch` requests.
    Full,
    /// The queue was drained and no other worker was running a slab:
    /// waiting could only have idled the pool.
    Idle,
    /// While other workers were busy, the oldest collected request aged
    /// past `max_wait` (or another tenant's deadline preempted the wait).
    Timeout,
    /// Shutdown drain: flush whatever is collected, immediately.
    Drain,
}

/// Running sums a worker folds each completed batch into (behind the
/// pool mutex — one short lock per batch, not per request).
#[derive(Debug, Default)]
pub(crate) struct StatsAccum {
    pub requests: u64,
    pub batches: u64,
    pub full_flushes: u64,
    pub idle_flushes: u64,
    pub timeout_flushes: u64,
    pub drain_flushes: u64,
    pub expired: u64,
    pub shed: u64,
    pub rejected: u64,
    pub panics: u64,
    pub retries: u64,
    pub max_occupancy: usize,
    pub infer_ns: u128,
    pub latency_ns: u128,
    pub max_latency_ns: u128,
}

impl StatsAccum {
    pub fn record_batch(
        &mut self,
        occupancy: usize,
        reason: FlushReason,
        infer: Duration,
        latency_sum: Duration,
        latency_max: Duration,
    ) {
        self.requests += occupancy as u64;
        self.batches += 1;
        match reason {
            FlushReason::Full => self.full_flushes += 1,
            FlushReason::Idle => self.idle_flushes += 1,
            FlushReason::Timeout => self.timeout_flushes += 1,
            FlushReason::Drain => self.drain_flushes += 1,
        }
        self.max_occupancy = self.max_occupancy.max(occupancy);
        self.infer_ns += infer.as_nanos();
        self.latency_ns += latency_sum.as_nanos();
        self.max_latency_ns = self.max_latency_ns.max(latency_max.as_nanos());
    }

    /// Counts a request failed fast because its deadline passed before
    /// dispatch (it never joined a batch).
    pub fn record_expired(&mut self) {
        self.expired += 1;
    }

    /// Counts a queued request canceled by
    /// [`OverloadPolicy::ShedOldest`](crate::OverloadPolicy::ShedOldest)
    /// to make room for a fresher submission.
    pub fn record_shed(&mut self) {
        self.shed += 1;
    }

    /// Counts a submission refused outright by
    /// [`OverloadPolicy::Reject`](crate::OverloadPolicy::Reject).
    pub fn record_rejected(&mut self) {
        self.rejected += 1;
    }

    /// Counts one batch dispatch that panicked inside the model.
    pub fn record_panic(&mut self) {
        self.panics += 1;
    }

    /// Counts the quarantine pass after a batch panic: `retried` requests
    /// were re-dispatched individually and `succeeded` of them completed
    /// with a result (those also count as completed requests).
    pub fn record_retries(&mut self, retried: u64, succeeded: u64) {
        self.retries += retried;
        self.requests += succeeded;
    }

    pub fn snapshot(&self) -> ServeStats {
        let batches = self.batches.max(1) as f64;
        let requests = self.requests.max(1) as f64;
        ServeStats {
            requests: self.requests,
            batches: self.batches,
            full_flushes: self.full_flushes,
            idle_flushes: self.idle_flushes,
            timeout_flushes: self.timeout_flushes,
            drain_flushes: self.drain_flushes,
            expired: self.expired,
            shed: self.shed,
            rejected: self.rejected,
            panics: self.panics,
            retries: self.retries,
            max_occupancy: self.max_occupancy,
            mean_occupancy: self.requests as f64 / batches,
            mean_infer_us: self.infer_ns as f64 / batches / 1_000.0,
            mean_latency_us: self.latency_ns as f64 / requests / 1_000.0,
            max_latency_us: self.max_latency_ns as f64 / 1_000.0,
        }
    }
}

/// One tenant's serving statistics, snapshotted by
/// [`TenantHandle::stats`](crate::TenantHandle::stats) (valid before and
/// after pool shutdown).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests completed.
    pub requests: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Batches flushed because they reached `max_batch`.
    pub full_flushes: u64,
    /// Batches flushed because the queue was drained and no other worker
    /// was running a slab (the work-conserving flush).
    pub idle_flushes: u64,
    /// Batches flushed, while other workers were busy, because the oldest
    /// request hit `max_wait` (or another tenant's deadline cut the wait).
    pub timeout_flushes: u64,
    /// Batches flushed while draining at shutdown.
    pub drain_flushes: u64,
    /// Requests failed fast with
    /// [`ServeError::DeadlineExceeded`](crate::ServeError::DeadlineExceeded)
    /// because their deadline passed before dispatch.
    pub expired: u64,
    /// Queued requests canceled with
    /// [`ServeError::Overloaded`](crate::ServeError::Overloaded) by the
    /// [`OverloadPolicy::ShedOldest`](crate::OverloadPolicy::ShedOldest)
    /// policy to make room for fresher submissions.
    pub shed: u64,
    /// Submissions refused outright with
    /// [`ServeError::Overloaded`](crate::ServeError::Overloaded) by the
    /// [`OverloadPolicy::Reject`](crate::OverloadPolicy::Reject) policy.
    pub rejected: u64,
    /// Batch dispatches that panicked inside the model (the worker
    /// survives; the batch is quarantined and retried request by request).
    pub panics: u64,
    /// Requests re-dispatched individually by the post-panic quarantine
    /// pass (successes also count in [`ServeStats::requests`]).
    pub retries: u64,
    /// Largest batch dispatched.
    pub max_occupancy: usize,
    /// Mean requests per batch (the occupancy the policy achieved).
    pub mean_occupancy: f64,
    /// Mean model time per batch, microseconds.
    pub mean_infer_us: f64,
    /// Mean request latency (enqueue → completion), microseconds.
    pub mean_latency_us: f64,
    /// Worst request latency observed, microseconds.
    pub max_latency_us: f64,
}

impl core::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} requests in {} batches (occupancy mean {:.1}, max {}; \
             flushes {} full / {} idle / {} timeout / {} drain; {} expired; \
             {} shed / {} rejected; {} panics / {} retries; \
             latency mean {:.0} µs, max {:.0} µs)",
            self.requests,
            self.batches,
            self.mean_occupancy,
            self.max_occupancy,
            self.full_flushes,
            self.idle_flushes,
            self.timeout_flushes,
            self.drain_flushes,
            self.expired,
            self.shed,
            self.rejected,
            self.panics,
            self.retries,
            self.mean_latency_us,
            self.max_latency_us,
        )
    }
}
