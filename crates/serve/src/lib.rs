//! # circnn-serve
//!
//! An async-style, request-batching inference server over the batched
//! block-circulant engine — the serving scenario CirCNN's throughput story
//! actually plays out in.
//!
//! CirCNN (Ding et al., MICRO'17) wins by keeping weight **spectra**
//! resident and streaming activations through FFT pipelines; the FPGA RNN
//! follow-ons showed the win only materializes when requests are coalesced
//! into batches that keep those pipelines full. This crate is that
//! coalescing layer in software: individual `[n]`-vector requests are
//! dynamically batched into `[B, n]` slabs and dispatched to the
//! allocation-free batched kernels of `circnn-core`
//! (`BlockCirculantMatrix::forward_batch_into`), or to a whole network via
//! `Sequential`'s read-only `infer` path.
//!
//! ## Architecture
//!
//! ```text
//!  clients (any thread)                MultiServer::start(workers)
//!  ──────────────────────   ┌──────────────────────────────────────────┐
//!  TenantHandle             │ tenant "a": bounded FIFO ┐ pick the queue │
//!   .submit([n]) ─────────► │ tenant "b": bounded FIFO ┤ whose deadline │
//!   ▲ blocks when full      │   …   (Mutex + Condvar)  ┘ is tightest;   │
//!   │ (backpressure)        │   │ collect ≤ max_batch; dispatch at     │
//!   │                       │   │ once if no other worker is running a │
//!   │                       │   │ slab, else keep filling ≤ max_wait   │
//!   │                       │   ▼                                      │
//!  ResponseHandle ◄──────── │ worker 0 ░ [B,n] slab ─► Arc<model>      │
//!   .wait() → [m] row       │ worker 1 ░ [B,n] slab ─► (shared,        │
//!   .on_ready(callback)     │   scratches kept by      read-only)    │
//!                           │   the tenant                             │
//!                           └──────────────────────────────────────────┘
//! ```
//!
//! * **One pool, any number of tenants** — [`MultiServer::start`] spawns
//!   the workers; [`MultiServer::add_tenant`] (hot add/remove) registers a
//!   model with its own bounded queue, [`TenantConfig`] batching policy
//!   and per-tenant [`ServeStats`]. Serving a single model is the
//!   one-tenant case of the same code.
//! * **Batching policy** — work-conserving: a worker drains its queue
//!   into a slab of up to [`TenantConfig::max_batch`] requests and
//!   dispatches it at once when no other worker is running a slab (a lone
//!   request on an idle pool never waits; requests that arrive while a
//!   slab runs queue up behind it and leave together). While other workers
//!   are busy the slab keeps filling until the *oldest* collected request
//!   has waited [`TenantConfig::max_wait`] or a busy worker finishes.
//!   Full slabs flush immediately. On an idle pool an event loop runs a
//!   short slab itself ([`MultiServer::serve_idle`]), so a lone request
//!   crosses no thread; at most `workers` slabs run at once either way.
//! * **Backpressure and overload** — the queue is bounded
//!   ([`TenantConfig::queue_capacity`]); at capacity
//!   [`TenantHandle::submit`] blocks, fails fast or sheds the stalest
//!   queued request according to [`TenantConfig::overload`], and
//!   [`TenantHandle::try_submit_with_deadline`] always fails fast.
//! * **Deadlines** — requests may carry a deadline budget
//!   ([`TenantHandle::submit_with_deadline`]); workers always serve the
//!   queue whose tightest effective deadline is earliest, tight-deadline
//!   tenants preempt a slack tenant's batching slack, and requests whose
//!   deadline passes before dispatch fail fast with
//!   [`ServeError::DeadlineExceeded`].
//! * **Workers** — share the read-only models; a slab borrows one of its
//!   tenant's pre-warmed scratches ([`circnn_core::Workspace`] /
//!   [`circnn_nn::InferScratch`]) and gives it back, so a tenant keeps as
//!   many as ran at once and they go with it on removal. A panicking
//!   model costs its batch, not the thread running it: co-batched
//!   requests are retried alone so only the poison request is canceled.
//! * **Determinism** — the batched kernels are batch-composition
//!   invariant, so a request's answer is **bit-identical** no matter which
//!   batch the scheduler packed it into. Serving never changes results.
//! * **Shutdown** — [`MultiServer::shutdown`] stops intake, drains every
//!   queued request (all handles resolve) and joins the workers; each
//!   [`TenantHandle::stats`] still reports afterwards (occupancy, flush
//!   reasons, latency).
//!
//! This is the scheduling core under the network front end in
//! `circnn-wire`.
//!
//! ## Example
//!
//! Serve a raw block-circulant operator and check a round trip against the
//! direct batched call:
//!
//! ```
//! use circnn_core::{BlockCirculantMatrix, Workspace};
//! use circnn_serve::{MultiServer, TenantConfig};
//! use circnn_tensor::init::seeded_rng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let w = BlockCirculantMatrix::random(&mut seeded_rng(0), 64, 128, 16)?;
//! let expected = w.matmat(&vec![0.5; 128], 1, &mut Workspace::new())?;
//!
//! let pool = MultiServer::start(2)?;                 // two workers
//! let tenant = pool.add_tenant(w, TenantConfig::default())?;
//! let handle = tenant.submit(vec![0.5; 128])?;       // park a request …
//! let y = handle.wait()?;                            // … and redeem it
//! assert_eq!(y, expected);                           // bit-identical
//!
//! pool.shutdown();                                   // drains + joins
//! assert_eq!(tenant.stats()?.requests, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod handle;
mod model;
mod sched;
mod stats;

pub use config::{OverloadPolicy, TenantConfig};
pub use error::ServeError;
pub use handle::ResponseHandle;
pub use model::{SequentialModel, ServeModel};
pub use sched::{MultiServer, Runner, TenantHandle};
pub use stats::{FlushReason, ServeStats};
