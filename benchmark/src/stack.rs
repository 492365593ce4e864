//! The programs under test, stood up in-process exactly as the issue fixes
//! them: models, the shared tenant policy, one event-loop server, and the
//! 2-shard deployment behind its router.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use circnn_core::BlockCirculantMatrix;
use circnn_models::lenet5_circulant;
use circnn_serve::{
    OverloadPolicy, SequentialModel, ServeModel, ServeStats, TenantConfig, TenantHandle,
};
use circnn_shard::topology::{segment_ranges, split_operator, ClusterSpec};
use circnn_shard::{RouterConfig, RouterServer, ShardRouter};
use circnn_tensor::init::seeded_rng;
use circnn_wire::{EventConfig, EventServer, ModelRegistry, WireConfig};

use crate::pool::DirectFn;

/// Every tenant is registered under this name.
pub const MODEL: &str = "m";

/// The FC operator of `fc-wire-*` and of the engine job list.
pub const FC_SHAPE: (usize, usize, usize) = (512, 512, 16);
/// The operator `shard-2x-closed` splits by block rows.
pub const SHARD_SHAPE: (usize, usize, usize) = (2048, 1024, 64);
pub const SHARDS: usize = 2;
/// Per-sample input dims of `lenet-wire-open`.
pub const LENET_INPUT: [usize; 3] = [1, 28, 28];

/// Weights are part of the program under test, not of the workload: they
/// come from fixed seeds through the library's own initializers, while
/// inputs come from `--seed` through [`crate::rng`].
pub fn operator((m, n, k): (usize, usize, usize)) -> BlockCirculantMatrix {
    let seed = (m * 31 + n * 7 + k) as u64;
    BlockCirculantMatrix::random(&mut seeded_rng(seed), m, n, k).expect("a valid operator shape")
}

pub fn lenet() -> SequentialModel {
    let net = lenet5_circulant(&mut seeded_rng(0x1e_4e75));
    SequentialModel::with_input_shape(net, &LENET_INPUT).expect("LeNet is servable")
}

/// A model as a bare direct call, scratch included — rung 0 of the ladder
/// and the source of every reference output.
pub fn direct_of<M: ServeModel>(model: M) -> Box<DirectFn<'static>> {
    let mut scratch = model.make_scratch();
    Box::new(move |x, batch, out| model.infer_batch(x, batch, &mut scratch, out))
}

/// The tenant policy shared by every wire workload.
pub fn tenant_config() -> TenantConfig {
    TenantConfig {
        max_batch: 32,
        max_wait: Duration::from_micros(300),
        queue_capacity: 256,
        overload: OverloadPolicy::Block,
    }
}

/// One `EventServer` (`io_threads = 1`, protocol v3) over a one-worker
/// registry.
pub struct WireStack {
    pub addr: SocketAddr,
    registry: Arc<ModelRegistry>,
    server: EventServer,
}

impl WireStack {
    /// `register` adds the model(s) to the fresh registry.
    pub fn start(register: impl FnOnce(&ModelRegistry)) -> Self {
        let registry = Arc::new(ModelRegistry::new(1).expect("one worker is a valid pool"));
        register(&registry);
        let cfg = EventConfig {
            io_threads: 1,
            ..EventConfig::default()
        };
        let server = EventServer::bind("127.0.0.1:0", Arc::clone(&registry), cfg)
            .expect("binding an ephemeral loopback port");
        Self {
            addr: server.local_addr(),
            registry,
            server,
        }
    }

    pub fn serving<M: ServeModel>(model: M) -> Self {
        Self::start(|r| {
            r.add_model(MODEL, model, tenant_config())
                .expect("a fresh registry takes the model")
        })
    }

    pub fn tenant(&self) -> TenantHandle {
        self.registry.get(MODEL).expect("the model is registered")
    }

    pub fn stats(&self) -> ServeStats {
        self.registry.stats(MODEL).expect("the model is registered")
    }

    pub fn shutdown(self) {
        self.server.shutdown();
        // The event loops are joined, so this is the last handle unless a
        // completion callback still holds one; either way the pool's own
        // `Drop` drains and joins the workers.
        if let Ok(registry) = Arc::try_unwrap(self.registry) {
            registry.shutdown();
        }
    }
}

/// Two shard servers, each holding half the block rows, behind a
/// `RouterServer`.
pub struct ShardStack {
    pub addr: SocketAddr,
    pub router: Arc<ShardRouter>,
    /// `(row_start, row_end)` per shard.
    pub segments: Vec<(usize, usize)>,
    pub shard_addrs: Vec<SocketAddr>,
    shards: Vec<WireStack>,
    front: RouterServer,
}

impl ShardStack {
    pub fn start(op: &BlockCirculantMatrix) -> Self {
        let slices = split_operator(op, SHARDS).expect("the operator splits by block rows");
        let segments = segment_ranges(&slices);
        let shards: Vec<WireStack> = slices
            .into_iter()
            .map(|slice| {
                WireStack::start(|r| {
                    r.add_segment(MODEL, slice, tenant_config())
                        .expect("a fresh registry takes the segment")
                })
            })
            .collect();
        let shard_addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr).collect();
        let router = Arc::new(
            ShardRouter::new(
                &ClusterSpec::single_replica(&shard_addrs),
                RouterConfig::default(),
            )
            .expect("a two-shard cluster is a valid topology"),
        );
        router
            .add_sharded_model(MODEL, op.cols(), &segments)
            .expect("segments cover the operator");
        let front = RouterServer::bind("127.0.0.1:0", Arc::clone(&router), WireConfig::default())
            .expect("binding an ephemeral loopback port");
        Self {
            addr: front.local_addr(),
            router,
            segments,
            shard_addrs,
            shards,
            front,
        }
    }

    pub fn shutdown(self) {
        self.front.shutdown();
        self.router.drain_pools();
        for shard in self.shards {
            shard.shutdown();
        }
    }
}
