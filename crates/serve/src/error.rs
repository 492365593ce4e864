//! Server-side error type.

/// Everything that can go wrong between submission and completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A [`TenantConfig`](crate::TenantConfig) knob or the pool's worker
    /// count is out of range.
    BadConfig(&'static str),
    /// The request vector length does not match the model's input length.
    BadInput {
        /// Model input length `n`.
        expected: usize,
        /// Submitted vector length.
        got: usize,
    },
    /// `try_submit` found the bounded queue at capacity.
    QueueFull,
    /// The queue was at capacity under an overload policy that degrades
    /// instead of blocking: either the submission was refused
    /// ([`OverloadPolicy::Reject`](crate::OverloadPolicy::Reject)) or this
    /// request was shed from the queue to make room for fresher work
    /// ([`OverloadPolicy::ShedOldest`](crate::OverloadPolicy::ShedOldest)).
    Overloaded,
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The request was dropped without a result (worker died mid-batch).
    Canceled,
    /// The request's deadline passed before a worker dispatched it; it was
    /// failed fast instead of running late.
    DeadlineExceeded,
    /// The request named a tenant that is not (or no longer) registered.
    UnknownTenant,
    /// A network rejected at **model registration**: a layer lacks the
    /// read-only batched inference path, or its serving caches are stale
    /// (`Layer::infer_ready` is false). Raised once when the model is
    /// wrapped, never per request.
    NotServable(String),
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BadConfig(why) => write!(f, "bad server config: {why}"),
            Self::BadInput { expected, got } => {
                write!(f, "bad request length: expected {expected}, got {got}")
            }
            Self::QueueFull => write!(f, "submission queue is full"),
            Self::Overloaded => write!(f, "server is overloaded (request refused or shed)"),
            Self::ShuttingDown => write!(f, "server is shutting down"),
            Self::Canceled => write!(f, "request canceled without a result"),
            Self::DeadlineExceeded => write!(f, "request deadline passed before dispatch"),
            Self::UnknownTenant => write!(f, "no such tenant registered"),
            Self::NotServable(why) => write!(f, "network is not servable: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}
