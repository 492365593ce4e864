//! # circnn-shard
//!
//! A sharded serving tier for the block-circulant engine: one logical
//! server whose weight rows live in many processes.
//!
//! The block-circulant decomposition is **row-parallel**: every block
//! row of `y = W·x` needs the whole input spectrum but no other row's
//! accumulators, so a contiguous block-row range of `W` is a standalone
//! operator ([`circnn_core::BlockCirculantMatrix::row_slice`]) whose
//! output rows are bitwise the matching rows of the full product. This
//! crate turns that algebraic fact into a serving topology:
//!
//! * [`topology`] — [`split_operator`] cuts an operator into per-shard
//!   row-slices; [`HashRing`] places whole-request (forwarded) tenants
//!   on replicas by consistent hashing.
//! * [`ShardRouter`] — the scatter-gather brain: fans an `Infer` /
//!   `InferBatch` out as `InferSegment` calls to every shard, stitches
//!   the segments back, fails over across replicas, propagates deadline
//!   budgets and gates routing on polled health. Replies are
//!   **bit-identical** to a single-process server, or one typed error —
//!   never a partial stitch.
//! * [`RouterServer`] — a wire-protocol TCP front-end over the router:
//!   ordinary [`circnn_wire::WireClient`]s connect and cannot tell they
//!   are talking to a cluster.
//!
//! ## Example
//!
//! Two in-process "shards", each serving half the rows; the router
//! stitches replies bit-identical to the full operator:
//!
//! ```
//! use std::sync::Arc;
//! use circnn_core::{BlockCirculantMatrix, Workspace};
//! use circnn_serve::TenantConfig;
//! use circnn_shard::topology::{segment_ranges, split_operator, ClusterSpec};
//! use circnn_shard::{RouterConfig, ShardRouter};
//! use circnn_tensor::init::seeded_rng;
//! use circnn_wire::{EventConfig, EventServer, ModelRegistry};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let w = BlockCirculantMatrix::random(&mut seeded_rng(7), 32, 24, 8)?;
//! let slices = split_operator(&w, 2)?;
//! let ranges = segment_ranges(&slices);
//!
//! let mut addrs = Vec::new();
//! let mut servers = Vec::new();
//! for slice in slices {
//!     let registry = Arc::new(ModelRegistry::new(1)?);
//!     registry.add_segment("op", slice, TenantConfig::default())?;
//!     let server = EventServer::bind("127.0.0.1:0", registry, EventConfig::default())?;
//!     addrs.push(server.local_addr());
//!     servers.push(server);
//! }
//!
//! let router = ShardRouter::new(&ClusterSpec::single_replica(&addrs), RouterConfig::default())?;
//! router.add_sharded_model("op", w.cols(), &ranges)?;
//!
//! let x: Vec<f32> = (0..24).map(|i| (i as f32 * 0.3).sin()).collect();
//! let stitched = router.infer("op", &x)?;
//! let full = w.matmat(&x, 1, &mut Workspace::new())?;
//! assert_eq!(stitched, full); // bitwise
//! for server in servers {
//!     server.shutdown();
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;
mod router;
mod server;
pub mod topology;

pub use router::{spawn_health_poller, HealthPoller, RouterConfig, ShardError, ShardRouter};
pub use server::RouterServer;
pub use topology::{split_operator, split_rows, ClusterSpec, HashRing, ShardSpec};
