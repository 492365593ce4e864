//! Chaos soak for the sharded tier: a fault-injecting TCP proxy sits
//! between the router and one shard, tearing frames, delaying bytes and
//! cutting connections. The contract under fire: every reply is either
//! **bitwise-correct** or a **typed error** — never a wrong or
//! partially-stitched reply, never a hang.

mod common;

use std::sync::Arc;
use std::time::Duration;

use circnn_core::{BlockCirculantMatrix, Workspace};
use circnn_serve::TenantConfig;
use circnn_shard::topology::{segment_ranges, split_operator, ClusterSpec, ShardSpec};
use circnn_shard::{RouterConfig, ShardRouter};
use circnn_tensor::init::seeded_rng;
use circnn_wire::chaos::{ChaosProxy, Fault};
use circnn_wire::{ClientConfig, EventConfig, EventServer, ModelRegistry};

use common::request;

/// The soak scenario: 2 shards, the second reachable only through a
/// chaos proxy cycling clean, delayed/torn, and truncated connections.
#[test]
fn chaotic_shard_yields_bitwise_or_typed_errors_never_wrong_stitches() {
    let w = BlockCirculantMatrix::random(&mut seeded_rng(33), 32, 24, 8).unwrap();
    let slices = split_operator(&w, 2).unwrap();
    let mut servers = Vec::new();
    let mut direct_addrs = Vec::new();
    for slice in &slices {
        let registry = Arc::new(ModelRegistry::new(1).unwrap());
        registry
            .add_segment("op", slice.clone(), TenantConfig::default())
            .unwrap();
        let server = EventServer::bind("127.0.0.1:0", registry, EventConfig::default()).unwrap();
        direct_addrs.push(server.local_addr());
        servers.push(server);
    }

    // Shard 1 is only reachable through the fault plan: clean, torn with
    // latency, reply truncated mid-frame, clean, request truncated (the
    // shard sees a peer reset), slow dribble.
    let proxy = ChaosProxy::start(
        direct_addrs[1],
        vec![
            Fault::None,
            Fault::Delay {
                delay: Duration::from_millis(1),
                chunk: 7,
            },
            Fault::TruncateToClient { after: 24 },
            Fault::None,
            Fault::TruncateToServer { after: 13 },
            Fault::Delay {
                delay: Duration::from_millis(1),
                chunk: 3,
            },
        ],
    )
    .unwrap();

    let spec = ClusterSpec {
        shards: vec![
            ShardSpec {
                replicas: vec![direct_addrs[0]],
            },
            ShardSpec {
                replicas: vec![proxy.local_addr()],
            },
        ],
    };
    let router = Arc::new(
        ShardRouter::new(
            &spec,
            RouterConfig {
                client: ClientConfig {
                    connect_timeout: Some(Duration::from_secs(2)),
                    read_timeout: Some(Duration::from_secs(1)),
                    write_timeout: Some(Duration::from_secs(1)),
                    retries: 2,
                    backoff_base: Duration::from_millis(1),
                    backoff_cap: Duration::from_millis(20),
                    ..ClientConfig::default()
                },
                probe_timeout: Duration::from_millis(300),
                ..RouterConfig::default()
            },
        )
        .unwrap(),
    );
    router
        .add_sharded_model("op", w.cols(), &segment_ranges(&slices))
        .unwrap();

    const CLIENTS: usize = 4;
    const REQUESTS: usize = 16;
    let counts: Vec<(usize, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let router = Arc::clone(&router);
                let w = &w;
                s.spawn(move || {
                    let mut ws = Workspace::new();
                    let (mut ok, mut err) = (0, 0);
                    for r in 0..REQUESTS {
                        let x = request(24, (client * 100 + r) as u64);
                        match router.infer("op", &x) {
                            Ok(served) => {
                                let direct = w.matmat(&x, 1, &mut ws).unwrap();
                                assert_eq!(
                                    served, direct,
                                    "client {client} request {r}: a reply that arrives \
                                     must be bitwise-exact despite the chaos proxy"
                                );
                                ok += 1;
                            }
                            // Typed failure — the only acceptable
                            // alternative to a perfect stitch.
                            Err(_) => err += 1,
                        }
                    }
                    (ok, err)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok: usize = counts.iter().map(|&(ok, _)| ok).sum();
    let err: usize = counts.iter().map(|&(_, err)| err).sum();
    assert_eq!(ok + err, CLIENTS * REQUESTS);
    assert!(
        ok > 0,
        "the soak must make progress through the chaos (ok={ok}, err={err})"
    );
    // The clean shard never went unroutable.
    assert!(router.poll_health_once() >= 1);

    router.drain_pools();
    proxy.shutdown();
    for server in servers {
        server.shutdown();
    }
}
