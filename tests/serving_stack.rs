//! The serving tier through the `circnn` facade, so the root test gate
//! runs it: scheduler → event-loop front end → client, and the sharded
//! path behind a router, each bitwise against the direct product, with a
//! clean teardown.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use circnn::core::{BlockCirculantMatrix, Workspace};
use circnn::serve::TenantConfig;
use circnn::shard::topology::{segment_ranges, split_operator, ClusterSpec};
use circnn::shard::{RouterConfig, RouterServer, ShardRouter};
use circnn::tensor::init::{seeded_rng, uniform};
use circnn::wire::frame::{self, Reply, Request};
use circnn::wire::{ClientConfig, EventConfig, EventServer, ModelRegistry, WireClient};

fn request(len: usize, seed: u64) -> Vec<f32> {
    uniform(&mut seeded_rng(seed), &[len], -1.0, 1.0)
        .data()
        .to_vec()
}

/// Waits for the loops to notice every client hung up.
fn wait_until_no_connections(count: impl Fn() -> usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while count() != 0 {
        assert!(Instant::now() < deadline, "{} connections linger", count());
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One tenant on a one-worker pool behind an `EventServer`: protocol v2
/// and v3 clients both get replies bitwise-equal to direct `matmat`.
#[test]
fn one_tenant_over_the_wire_is_bitwise_on_v2_and_v3() {
    let w = BlockCirculantMatrix::random(&mut seeded_rng(11), 48, 64, 16).unwrap();
    let registry = Arc::new(ModelRegistry::new(1).unwrap());
    registry
        .add_model("fc", w.clone(), TenantConfig::default())
        .unwrap();
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();

    let mut ws = Workspace::new();
    for protocol in [2u8, 3] {
        let cfg = ClientConfig {
            protocol,
            ..Default::default()
        };
        let mut wire = WireClient::connect_with(server.local_addr(), cfg).unwrap();
        for r in 0..4 {
            let x = request(64, 100 * u64::from(protocol) + r);
            let direct = w.matmat(&x, 1, &mut ws).unwrap();
            assert_eq!(wire.infer("fc", &x).unwrap(), direct, "v{protocol} #{r}");
        }
    }

    wait_until_no_connections(|| server.connection_count());
    server.shutdown();
}

/// The run-to-completion path in the root gate: on a one-worker pool two
/// lone requests (the first measures the tenant, so the second can run
/// on the I/O thread that decoded it), then eight pipelined v3 requests.
/// Every reply is bitwise the direct `matmat` and arrives in request
/// order.
#[test]
fn lone_then_pipelined_requests_are_bitwise_and_in_order() {
    let w = BlockCirculantMatrix::random(&mut seeded_rng(13), 64, 64, 16).unwrap();
    let registry = Arc::new(ModelRegistry::new(1).unwrap());
    registry
        .add_model("fc", w.clone(), TenantConfig::default())
        .unwrap();
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut ws = Workspace::new();
    let mut buf = Vec::new();
    let mut send = |raw: &mut TcpStream, ids: std::ops::Range<u64>| {
        let mut burst = Vec::new();
        for id in ids {
            let req = Request::Infer {
                model: "fc".to_string(),
                deadline_micros: 0,
                input: request(64, 300 + id),
            };
            frame::encode_request_v3(id, &req, &mut buf);
            burst.extend_from_slice(&buf);
        }
        frame::write_frame(raw, &burst).unwrap();
    };
    let mut expect = |raw: &mut TcpStream, id: u64| {
        let mut rbuf = Vec::new();
        frame::read_frame(raw, &mut rbuf).unwrap();
        let (tag, reply) = frame::decode_reply_tagged(&rbuf).unwrap();
        assert_eq!(tag, Some(id), "replies out of request order");
        let direct = w.matmat(&request(64, 300 + id), 1, &mut ws).unwrap();
        assert_eq!(reply, Reply::Infer { output: direct }, "request {id}");
    };
    for id in 0..2 {
        send(&mut raw, id..id + 1);
        expect(&mut raw, id);
    }
    send(&mut raw, 2..10);
    for id in 2..10 {
        expect(&mut raw, id);
    }
    drop(raw);
    wait_until_no_connections(|| server.connection_count());
    server.shutdown();
}

/// Two row-slice shards, each its own `EventServer`, behind a
/// `RouterServer`: the stitched reply is bitwise the full product.
#[test]
fn two_shards_behind_a_router_stitch_bitwise() {
    let w = BlockCirculantMatrix::random(&mut seeded_rng(12), 64, 48, 8).unwrap();
    let slices = split_operator(&w, 2).unwrap();
    let ranges = segment_ranges(&slices);
    let shards: Vec<EventServer> = slices
        .into_iter()
        .map(|slice| {
            let registry = Arc::new(ModelRegistry::new(1).unwrap());
            registry
                .add_segment("op", slice, TenantConfig::default())
                .unwrap();
            EventServer::bind("127.0.0.1:0", registry, EventConfig::default()).unwrap()
        })
        .collect();
    let addrs: Vec<_> = shards.iter().map(EventServer::local_addr).collect();
    let router = Arc::new(
        ShardRouter::new(
            &ClusterSpec::single_replica(&addrs),
            RouterConfig::default(),
        )
        .unwrap(),
    );
    router.add_sharded_model("op", w.cols(), &ranges).unwrap();
    let front =
        RouterServer::bind("127.0.0.1:0", Arc::clone(&router), EventConfig::default()).unwrap();

    let mut wire = WireClient::connect(front.local_addr()).unwrap();
    let mut ws = Workspace::new();
    for r in 0..4 {
        let x = request(48, 200 + r);
        let direct = w.matmat(&x, 1, &mut ws).unwrap();
        assert_eq!(wire.infer("op", &x).unwrap(), direct, "request {r}");
    }

    drop(wire);
    wait_until_no_connections(|| front.connection_count());
    front.shutdown();
    router.drain_pools();
    for shard in &shards {
        wait_until_no_connections(|| shard.connection_count());
    }
    for shard in shards {
        shard.shutdown();
    }
}
