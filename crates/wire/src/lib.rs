//! # circnn-wire
//!
//! Network serving for the block-circulant engine: a std-only TCP stack
//! on top of `circnn-serve` — the front door the ROADMAP's
//! millions-of-users scenario walks through.
//!
//! Three pieces compose:
//!
//! * [`frame`] — a versioned, length-prefixed little-endian binary
//!   protocol (`Infer`, `InferBatch`, `ListModels`, `Stats`, `Ping`, plus
//!   typed error replies). Decoding is strict: truncated frames,
//!   oversized length prefixes, unknown opcodes and version mismatches
//!   all return typed errors, never panics.
//! * [`ModelRegistry`] — named, hot-swappable models (multi-tenancy):
//!   each registered model is a tenant of one shared
//!   [`circnn_serve::MultiServer`] worker pool with its own bounded
//!   queue, batching policy and statistics. Models arrive as raw
//!   [`circnn_core::BlockCirculantMatrix`] operators (including
//!   [`circnn_core::serialize`]d files), as whole networks
//!   ([`ModelRegistry::add_network`], convnets included), or as any
//!   custom [`circnn_serve::ServeModel`].
//! * [`EventServer`] / [`WireClient`] — the front end (a fixed pool of
//!   readiness loops multiplexing every connection over nonblocking
//!   sockets, shared worker pool behind it) and a blocking client with
//!   pipelining primitives. Protocol-v3 requests carry an id and may
//!   complete out of order; id-less v2 requests are answered in
//!   **arrival order per connection**.
//!
//! Requests may carry a **deadline budget**; the scheduler serves the
//! queue whose oldest deadline is tightest and fails past-deadline
//! requests fast with a typed `DeadlineExceeded` error (see
//! `circnn_serve::MultiServer` for the policy).
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use circnn_core::BlockCirculantMatrix;
//! use circnn_serve::TenantConfig;
//! use circnn_tensor::init::seeded_rng;
//! use circnn_wire::{EventConfig, EventServer, ModelRegistry, WireClient};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let registry = Arc::new(ModelRegistry::new(2)?);
//! registry.add_model(
//!     "fc6",
//!     BlockCirculantMatrix::random(&mut seeded_rng(0), 64, 128, 16)?,
//!     TenantConfig::default(),
//! )?;
//!
//! let server = EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default())?;
//! let mut client = WireClient::connect(server.local_addr())?;
//! client.ping()?;
//! assert_eq!(client.list_models()?[0].name, "fc6");
//! let y = client.infer("fc6", &vec![0.5; 128])?;
//! assert_eq!(y.len(), 64);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod client;
mod error;
mod event;
pub mod frame;
mod registry;

pub use client::{ClientConfig, WireClient};
pub use error::{ErrorCode, WireError};
pub use event::{Dispatched, EventConfig, EventDispatch, EventServer, ReplyTicket, WireConfig};
pub use frame::{HealthInfo, ModelInfo, Reply, Request, TenantHealth};
pub use registry::{ModelRegistry, RegistryError, SegmentInfo, MAX_NAME_LEN};
