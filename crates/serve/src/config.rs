//! Per-tenant batching and overload policy.

use std::time::Duration;

/// What a **blocking** submission does when the bounded queue is at
/// capacity — the explicit failure model for overload.
///
/// Non-blocking submissions (`try_submit*`) always fail fast with
/// [`ServeError::QueueFull`](crate::ServeError::QueueFull); this policy
/// governs [`TenantHandle::submit`](crate::TenantHandle::submit),
/// [`submit_with_deadline`](crate::TenantHandle::submit_with_deadline) and
/// the event loop's
/// [`offer_with_deadline`](crate::TenantHandle::offer_with_deadline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Backpressure: park the submitter until a worker frees queue space.
    /// Latency under sustained overload grows without bound, but no
    /// request is ever refused. The historical behavior, and the default.
    #[default]
    Block,
    /// Fail fast: refuse the new submission with
    /// [`ServeError::Overloaded`](crate::ServeError::Overloaded) (counted
    /// in [`ServeStats::rejected`](crate::ServeStats::rejected)). Keeps
    /// queued latency bounded by `queue_capacity`.
    Reject,
    /// Shed to make room: cancel the queued request that is worst off
    /// against its staleness deadline — the one whose effective deadline
    /// is earliest, i.e. the most likely to be answered uselessly late —
    /// with [`ServeError::Overloaded`](crate::ServeError::Overloaded)
    /// (counted in [`ServeStats::shed`](crate::ServeStats::shed)), then
    /// accept the fresh submission. Keeps latency bounded while always
    /// admitting new work.
    ShedOldest,
}

/// Per-tenant batching policy of the scheduler
/// ([`MultiServer`](crate::MultiServer)).
///
/// The two policy knobs trade latency for occupancy exactly like the
/// hardware pipelines the paper targets: `max_batch` caps the slab a
/// worker assembles (the FFT engine's lane count), `max_wait` bounds how
/// long a request may age in a forming batch **while the pool is busy**
/// before the slab is flushed partially full — an idle pool dispatches
/// what it has at once. Workers belong to the shared pool
/// ([`MultiServer::start`](crate::MultiServer::start)), not to a tenant.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Largest number of requests coalesced into one `[B, n]` slab.
    pub max_batch: usize,
    /// Maximum batching slack: how long a request without an explicit
    /// deadline may be charged waiting for its slab to fill while other
    /// workers are running slabs, before a partial flush (it also bounds
    /// the slack of requests *with* deadlines — a tighter explicit
    /// deadline flushes sooner). Never spent on an idle pool: a worker
    /// with nothing running beside it dispatches what it has collected.
    pub max_wait: Duration,
    /// Bound of this tenant's submission queue; a full queue blocks
    /// [`TenantHandle::submit`](crate::TenantHandle::submit) and fails
    /// [`TenantHandle::try_submit_with_deadline`](crate::TenantHandle::try_submit_with_deadline).
    pub queue_capacity: usize,
    /// What a blocking submission does when this tenant's queue is at
    /// capacity.
    pub overload: OverloadPolicy,
}

impl Default for TenantConfig {
    /// A small-footprint default: 32-wide slabs, 2 ms slack, queue
    /// bounded at four slabs, blocking backpressure on overload.
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_wait: Duration::from_millis(2),
            queue_capacity: 128,
            overload: OverloadPolicy::Block,
        }
    }
}

impl TenantConfig {
    /// Validates the knobs; every count must be nonzero.
    pub(crate) fn validate(&self) -> Result<(), crate::ServeError> {
        if self.max_batch == 0 {
            return Err(crate::ServeError::BadConfig("max_batch must be ≥ 1"));
        }
        if self.queue_capacity == 0 {
            return Err(crate::ServeError::BadConfig("queue_capacity must be ≥ 1"));
        }
        Ok(())
    }
}
