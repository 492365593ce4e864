//! The serving tier through the `circnn` facade, so the root test gate
//! runs it: scheduler → event-loop front end → client, and the sharded
//! path behind a router, each bitwise against the direct product, with a
//! clean teardown; and the wire contract: one protocol version, replies
//! matched by id, a typed verdict for a peer that speaks anything else.

use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use circnn::core::{BlockCirculantMatrix, Workspace};
use circnn::serve::{ServeModel, TenantConfig};
use circnn::shard::topology::{segment_ranges, split_operator, ClusterSpec};
use circnn::shard::{RouterConfig, RouterServer, ShardRouter};
use circnn::tensor::init::{seeded_rng, uniform};
use circnn::wire::frame::{self, Reply, Request, HEADER_LEN};
use circnn::wire::{ErrorCode, EventConfig, EventServer, ModelRegistry, WireClient};

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

/// One tenant on a one-worker pool behind an `EventServer`: a client's
/// replies are bitwise-equal to direct `matmat`.
#[test]
fn one_tenant_over_the_wire_is_bitwise() {
    let w = BlockCirculantMatrix::random(&mut seeded_rng(11), 48, 64, 16).unwrap();
    let registry = Arc::new(ModelRegistry::new(1).unwrap());
    registry
        .add_model("fc", w.clone(), TenantConfig::default())
        .unwrap();
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();

    let mut ws = Workspace::new();
    let mut wire = WireClient::connect(server.local_addr()).unwrap();
    for r in 0..8 {
        let x = request(64, 100 + r);
        let direct = w.matmat(&x, 1, &mut ws).unwrap();
        assert_eq!(wire.infer("fc", &x).unwrap(), direct, "request {r}");
    }

    drop(wire);
    wait_until_no_connections(|| server.connection_count());
    server.shutdown();
}

/// An operator that holds its pool worker for a fixed time before it
/// answers, so another tenant's reply can overtake it.
struct Slow(BlockCirculantMatrix, Duration);

impl ServeModel for Slow {
    type Scratch = Workspace;
    fn make_scratch(&self) -> Workspace {
        Workspace::new()
    }
    fn input_len(&self) -> usize {
        self.0.input_len()
    }
    fn output_len(&self) -> usize {
        self.0.output_len()
    }
    fn infer_batch(&self, x: &[f32], batch: usize, scratch: &mut Workspace, out: &mut [f32]) {
        std::thread::sleep(self.1);
        self.0.infer_batch(x, batch, scratch, out);
    }
}

/// The one-protocol contract. A frame of the older, id-less version 2
/// gets exactly one typed `Malformed` error frame, under the id that
/// answers no request, and then the server closes the connection. A
/// second connection is unaffected: on it a fast tenant's reply overtakes
/// a slow tenant's, and each reply, matched by its id, is bitwise the
/// direct product.
#[test]
fn only_v3_is_spoken_and_replies_are_matched_by_id() {
    let slow_w = BlockCirculantMatrix::random(&mut seeded_rng(14), 32, 64, 16).unwrap();
    let fast_w = BlockCirculantMatrix::random(&mut seeded_rng(15), 48, 64, 16).unwrap();
    // Two workers, and no batching slack, so no slab runs on the loop
    // and the fast slab runs while the slow one sleeps.
    let registry = Arc::new(ModelRegistry::new(2).unwrap());
    let unbatched = TenantConfig {
        max_batch: 1,
        max_wait: Duration::ZERO,
        ..Default::default()
    };
    registry
        .add_model(
            "slow",
            Slow(slow_w.clone(), Duration::from_millis(150)),
            unbatched.clone(),
        )
        .unwrap();
    registry
        .add_model("fast", fast_w.clone(), unbatched)
        .unwrap();
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();
    let mut good = TcpStream::connect(server.local_addr()).unwrap();
    good.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // A version-2 `Infer`: the same fields without the id.
    let infer = |model: &str, input: Vec<f32>| Request::Infer {
        model: model.to_string(),
        deadline_micros: 0,
        input,
    };
    let mut v2 = Vec::new();
    frame::encode_request_v3(0, &infer("fast", request(64, 400)), &mut v2);
    v2.drain(HEADER_LEN..HEADER_LEN + 8);
    v2[1] = 2;
    let len = (v2.len() - HEADER_LEN) as u32;
    v2[4..8].copy_from_slice(&len.to_le_bytes());
    let mut old = TcpStream::connect(server.local_addr()).unwrap();
    old.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    frame::write_frame(&mut old, &v2).unwrap();
    let mut answer = Vec::new();
    old.read_to_end(&mut answer).unwrap(); // returns once the server hangs up
    let (_, len) = frame::decode_header(&answer).unwrap();
    assert_eq!(
        answer.len(),
        HEADER_LEN + len,
        "exactly one frame, then EOF"
    );
    match frame::decode_reply_tagged(&answer).unwrap() {
        (None, Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected one Malformed verdict, got {other:?}"),
    }

    let slow_x = request(64, 401);
    let fast_x = request(64, 402);
    let mut burst = Vec::new();
    let mut buf = Vec::new();
    frame::encode_request_v3(7, &infer("slow", slow_x.clone()), &mut buf);
    burst.extend_from_slice(&buf);
    frame::encode_request_v3(8, &infer("fast", fast_x.clone()), &mut buf);
    burst.extend_from_slice(&buf);
    frame::write_frame(&mut good, &burst).unwrap();
    let mut ws = Workspace::new();
    let mut arrived = Vec::new();
    for _ in 0..2 {
        frame::read_frame(&mut good, &mut buf).unwrap();
        let (tag, reply) = frame::decode_reply_tagged(&buf).unwrap();
        let (w, x) = match tag {
            Some(7) => (&slow_w, &slow_x),
            Some(8) => (&fast_w, &fast_x),
            other => panic!("reply under an id nobody sent: {other:?}"),
        };
        let direct = w.matmat(x, 1, &mut ws).unwrap();
        assert_eq!(reply, Reply::Infer { output: direct }, "request {tag:?}");
        arrived.push(tag);
    }
    assert_eq!(arrived, [Some(8), Some(7)], "the fast reply overtakes");

    drop(good);
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
