//! End-to-end sharded serving: a 2-shard × 2-replica cluster serving a
//! sharded operator plus forwarded MLP/convnet tenants, with replies
//! bit-identical to single-process serving under 8 concurrent pipelining
//! clients; replica kill mid-stream fails over without a wrong or
//! partially-stitched reply; teardown is deterministic.

mod common;

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use circnn_core::{BlockCirculantMatrix, Workspace};
use circnn_nn::{InferScratch, Layer};
use circnn_serve::TenantConfig;
use circnn_shard::topology::{segment_ranges, split_operator, ClusterSpec, ShardSpec};
use circnn_shard::{RouterConfig, RouterServer, ShardRouter};
use circnn_tensor::init::seeded_rng;
use circnn_tensor::Tensor;
use circnn_wire::{
    ClientConfig, ErrorCode, EventConfig, EventServer, ModelRegistry, WireClient, WireError,
};

use common::{convnet, drop_poll, mlp, request};

/// Boots `shards × replicas` wire servers: replica `(s, r)` holds shard
/// `s`'s row-slice of `w` under `"op"` plus full forwarded `mlp` /
/// `convnet` tenants. Returns the servers (shard-major) and the cluster
/// spec.
fn boot_cluster(
    w: &BlockCirculantMatrix,
    shards: usize,
    replicas: usize,
) -> (Vec<Vec<EventServer>>, ClusterSpec) {
    let slices = split_operator(w, shards).unwrap();
    let mut servers = Vec::new();
    let mut spec = ClusterSpec { shards: Vec::new() };
    for slice in &slices {
        let mut shard_servers = Vec::new();
        let mut addrs: Vec<SocketAddr> = Vec::new();
        for _ in 0..replicas {
            let registry = Arc::new(ModelRegistry::new(2).unwrap());
            registry
                .add_segment("op", slice.clone(), TenantConfig::default())
                .unwrap();
            registry
                .add_network("mlp", mlp(77), &[32], TenantConfig::default())
                .unwrap();
            registry
                .add_network("convnet", convnet(88), &[2, 8, 8], TenantConfig::default())
                .unwrap();
            let server =
                EventServer::bind("127.0.0.1:0", registry, EventConfig::default()).unwrap();
            addrs.push(server.local_addr());
            shard_servers.push(server);
        }
        servers.push(shard_servers);
        spec.shards.push(ShardSpec { replicas: addrs });
    }
    (servers, spec)
}

fn fast_router_config() -> RouterConfig {
    RouterConfig {
        client: ClientConfig {
            connect_timeout: Some(Duration::from_secs(2)),
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            retries: 1,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(50),
            ..ClientConfig::default()
        },
        probe_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    }
}

/// The acceptance scenario: 2 shards × 2 replicas serving a sharded
/// operator, an MLP and a convnet through one router front-end, 8
/// concurrent pipelining clients, every reply bit-identical to the
/// single-process path.
#[test]
fn sharded_cluster_serves_bitwise_identical_under_pipelining_clients() {
    let w = BlockCirculantMatrix::random(&mut seeded_rng(42), 48, 32, 8).unwrap();
    let (servers, spec) = boot_cluster(&w, 2, 2);
    let router = Arc::new(ShardRouter::new(&spec, fast_router_config()).unwrap());
    let slices = split_operator(&w, 2).unwrap();
    router
        .add_sharded_model("op", w.cols(), &segment_ranges(&slices))
        .unwrap();
    router.add_forwarded_model("mlp", 32, 10).unwrap();
    router.add_forwarded_model("convnet", 2 * 8 * 8, 6).unwrap();
    assert_eq!(
        router.poll_health_once(),
        4,
        "all replicas must be routable"
    );
    let front =
        RouterServer::bind("127.0.0.1:0", Arc::clone(&router), EventConfig::default()).unwrap();
    let addr = front.local_addr();

    const CLIENTS: usize = 8;
    const REQUESTS: usize = 10;
    const DEPTH: usize = 5; // pipelined requests in flight per client
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let w = &w;
            s.spawn(move || {
                let mut wire = WireClient::connect(addr).expect("connect to router");
                let mut scratch = InferScratch::new();
                let mut ws = Workspace::new();
                let (model, input_len) = match client % 3 {
                    0 => ("op", 32),
                    1 => ("mlp", 32),
                    _ => ("convnet", 2 * 8 * 8),
                };
                let mut ref_net = match model {
                    "mlp" => Some(mlp(77)),
                    "convnet" => Some(convnet(88)),
                    _ => None,
                };
                if let Some(net) = ref_net.as_mut() {
                    net.set_training(false);
                }
                // Two pipelined windows of DEPTH requests each.
                for window in 0..REQUESTS / DEPTH {
                    let xs: Vec<Vec<f32>> = (0..DEPTH)
                        .map(|i| request(input_len, (client * 1000 + window * DEPTH + i) as u64))
                        .collect();
                    for x in &xs {
                        wire.send_infer(model, x, None).expect("pipelined send");
                    }
                    for (i, x) in xs.iter().enumerate() {
                        let served = wire.recv_infer().expect("pipelined recv");
                        let direct = match ref_net.as_mut() {
                            Some(net) => {
                                let dims = if model == "mlp" {
                                    vec![1, 32]
                                } else {
                                    vec![1, 2, 8, 8]
                                };
                                net.infer(&Tensor::from_vec(x.clone(), &dims), &mut scratch)
                                    .data()
                                    .to_vec()
                            }
                            None => w.matmat(x, 1, &mut ws).unwrap(),
                        };
                        assert_eq!(
                            served, direct,
                            "client {client} window {window} reply {i} diverged"
                        );
                    }
                }
            });
        }
    });

    // Control frames: the router presents one coherent catalog.
    let mut wire = WireClient::connect(addr).unwrap();
    wire.ping().unwrap();
    let models = wire.list_models().unwrap();
    assert_eq!(
        models.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(),
        vec!["convnet", "mlp", "op"],
        "sorted router catalog"
    );
    assert_eq!(models[2].input_len, 32);
    assert_eq!(models[2].output_len, 48);
    let health = wire.health().unwrap();
    assert_eq!(health.models, 3);
    assert!(
        health.tenants.iter().any(|t| t.name == "op"),
        "cluster health must aggregate shard tenants: {health:?}"
    );
    assert!(wire.stats("mlp").unwrap().requests > 0);
    // Segment requests belong on shards, not the router.
    match wire.infer_segment("op", 0, 24, 1, &request(32, 1), None) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadInput),
        other => panic!("expected typed BadInput from the router, got {other:?}"),
    }

    // A client-side batch through the router equals per-row matmat.
    let flat: Vec<f32> = (0..3).flat_map(|i| request(32, 9000 + i)).collect();
    let batched = wire.infer_batch("op", 3, &flat, None).unwrap();
    let mut ws = Workspace::new();
    for (i, row) in flat.chunks(32).enumerate() {
        let direct = w.matmat(row, 1, &mut ws).unwrap();
        assert_eq!(&batched[i * 48..(i + 1) * 48], &direct[..], "batch row {i}");
    }

    // Deterministic teardown: clients are gone, so the front-end's table
    // reaps to the one control connection still held.
    drop_poll(|| front.connection_count(), 1);
    drop(wire);
    drop_poll(|| front.connection_count(), 0);
    front.shutdown();
    router.drain_pools();
    for shard in servers {
        for server in shard {
            server.shutdown();
        }
    }
}

/// Killing one shard replica mid-stream: every reply is bitwise-correct
/// or a typed error — no hangs, no misattributed segments — and traffic
/// keeps succeeding on the surviving replica.
#[test]
fn killing_a_replica_mid_stream_fails_over_without_wrong_replies() {
    let w = BlockCirculantMatrix::random(&mut seeded_rng(7), 32, 24, 8).unwrap();
    let (mut servers, spec) = boot_cluster(&w, 2, 2);
    let router = Arc::new(ShardRouter::new(&spec, fast_router_config()).unwrap());
    let slices = split_operator(&w, 2).unwrap();
    router
        .add_sharded_model("op", w.cols(), &segment_ranges(&slices))
        .unwrap();
    let front =
        RouterServer::bind("127.0.0.1:0", Arc::clone(&router), EventConfig::default()).unwrap();
    let addr = front.local_addr();

    let killed = Arc::new(AtomicBool::new(false));
    let ok_after_kill = Arc::new(AtomicUsize::new(0));
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 30;
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (w, killed, ok_after_kill) = (&w, Arc::clone(&killed), Arc::clone(&ok_after_kill));
            s.spawn(move || {
                let mut wire = WireClient::connect(addr).expect("connect to router");
                let mut ws = Workspace::new();
                for r in 0..REQUESTS {
                    // Pace the stream so it straddles the kill window.
                    std::thread::sleep(Duration::from_millis(10));
                    let x = request(24, (client * 5000 + r) as u64);
                    let was_killed = killed.load(Ordering::SeqCst);
                    match wire.infer("op", &x) {
                        Ok(served) => {
                            let direct = w.matmat(&x, 1, &mut ws).unwrap();
                            assert_eq!(
                                served, direct,
                                "client {client} request {r}: a stitched reply must be \
                                 bitwise-exact even while a replica dies"
                            );
                            if was_killed {
                                ok_after_kill.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        // A typed error is acceptable during the kill
                        // window; a wrong answer never is.
                        Err(WireError::Remote { .. }) => {}
                        Err(other) => panic!("untyped client-side failure: {other}"),
                    }
                }
            });
        }
        // Kill shard 0's primary replica mid-stream.
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(80));
            let primary = servers[0].remove(0);
            primary.shutdown();
            killed.store(true, Ordering::SeqCst);
        });
    });
    assert!(
        ok_after_kill.load(Ordering::SeqCst) > 0,
        "failover must keep serving bitwise-exact replies on the surviving replica"
    );

    // The health poll now sees 3 routable replicas.
    assert_eq!(router.poll_health_once(), 3);

    // Deterministic teardown: drain the router's pooled connections, then
    // the surviving shard servers' tables reap to zero.
    front.shutdown();
    router.drain_pools();
    for shard in &servers {
        for server in shard {
            drop_poll(|| server.connection_count(), 0);
        }
    }
    for shard in servers {
        for server in shard {
            server.shutdown();
        }
    }
}

/// A shard registered with the wrong row range (stale topology) can
/// never produce a mis-stitched reply: the shard rejects the segment
/// call typed, and the router surfaces a typed error.
#[test]
fn stale_topology_fails_typed_never_misattributed() {
    let w = BlockCirculantMatrix::random(&mut seeded_rng(9), 32, 24, 8).unwrap();
    let slices = split_operator(&w, 2).unwrap();
    // Shard 1's server mistakenly holds shard *0*'s slice.
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for slice in [&slices[0], &slices[0]] {
        let registry = Arc::new(ModelRegistry::new(1).unwrap());
        registry
            .add_segment("op", slice.clone(), TenantConfig::default())
            .unwrap();
        let server = EventServer::bind("127.0.0.1:0", registry, EventConfig::default()).unwrap();
        addrs.push(server.local_addr());
        servers.push(server);
    }
    let router =
        ShardRouter::new(&ClusterSpec::single_replica(&addrs), fast_router_config()).unwrap();
    router
        .add_sharded_model("op", w.cols(), &segment_ranges(&slices))
        .unwrap();
    match router.infer("op", &request(24, 3)) {
        Err(WireError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadInput, "{message}");
            assert!(
                message.contains("covers rows"),
                "the shard must name the placement mismatch: {message}"
            );
        }
        Ok(_) => panic!("a stale shard must never contribute rows to a stitched reply"),
        Err(other) => panic!("expected the shard's typed rejection, got {other}"),
    }
    for server in servers {
        server.shutdown();
    }
}
