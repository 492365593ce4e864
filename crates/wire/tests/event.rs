//! The front end, end to end: readiness-loop serving is bitwise-identical
//! to direct inference, replies complete out of order under their request
//! ids, stalled half-frame connections and peers that flood without
//! reading are reaped without a dedicated thread, paused input resumes
//! when the pipeline or the write backlog drains, the connection cap
//! holds, a peer that frames a request wrong gets its owed replies and
//! then one typed verdict, and teardown is prompt and complete.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use circnn_core::{BlockCirculantMatrix, Workspace};
use circnn_nn::{InferScratch, Layer};
use circnn_serve::{ServeModel, TenantConfig};
use circnn_tensor::init::seeded_rng;
use circnn_tensor::Tensor;
use circnn_wire::frame::{self, Reply, Request};
use circnn_wire::{ErrorCode, EventConfig, EventServer, ModelRegistry, WireClient, WireError};

use common::{convnet, drop_poll, mlp, request, Doubler, SlowEcho};

/// A slow tenant and a fast tenant sharing a two-worker pool, so the
/// fast reply genuinely completes while the slow one is in flight.
fn slow_fast_registry(stall: Duration) -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new(2).unwrap());
    let snappy = TenantConfig {
        max_batch: 1,
        max_wait: Duration::ZERO,
        ..Default::default()
    };
    registry
        .add_model("slow", SlowEcho(stall), snappy.clone())
        .unwrap();
    registry.add_model("fast", Doubler, snappy).unwrap();
    registry
}

/// The tentpole identity scenario: two tenants (MLP + convnet) plus a
/// segment tenant on the event server, eight concurrent pipelining
/// connections, every reply bitwise-identical to the direct inference
/// path; control frames, batches and segments included.
#[test]
fn event_server_serves_bitwise_identical_replies() {
    let registry = Arc::new(ModelRegistry::new(2).unwrap());
    registry
        .add_network("mlp", mlp(77), &[32], TenantConfig::default())
        .unwrap();
    registry
        .add_network("convnet", convnet(88), &[2, 8, 8], TenantConfig::default())
        .unwrap();
    let w = BlockCirculantMatrix::random(&mut seeded_rng(42), 48, 32, 8).unwrap();
    registry
        .add_segment("seg", w.row_slice(0..3).unwrap(), TenantConfig::default())
        .unwrap();
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();
    let addr = server.local_addr();

    const CLIENTS: usize = 8;
    const REQUESTS: usize = 10;
    const DEPTH: usize = 5; // pipelined requests in flight per client
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (mut ref_net, model, input_len, input_dims) = if client % 2 == 0 {
                (mlp(77), "mlp", 32usize, vec![1usize, 32])
            } else {
                (convnet(88), "convnet", 2 * 8 * 8, vec![1, 2, 8, 8])
            };
            ref_net.set_training(false);
            s.spawn(move || {
                let mut wire = WireClient::connect(addr).expect("connect");
                let mut scratch = InferScratch::new();
                for window in 0..REQUESTS / DEPTH {
                    let xs: Vec<Vec<f32>> = (0..DEPTH)
                        .map(|i| request(input_len, (client * 1000 + window * DEPTH + i) as u64))
                        .collect();
                    for x in &xs {
                        wire.send_infer(model, x, None).expect("pipelined send");
                    }
                    for (i, x) in xs.iter().enumerate() {
                        let served = wire.recv_infer().expect("pipelined recv");
                        let direct = ref_net
                            .infer(&Tensor::from_vec(x.clone(), &input_dims), &mut scratch)
                            .data()
                            .to_vec();
                        assert_eq!(served, direct, "client {client} reply {i} diverged");
                    }
                }
            });
        }
    });

    // Control frames agree with the registry.
    let mut wire = WireClient::connect(addr).unwrap();
    wire.ping().unwrap();
    let models = wire.list_models().unwrap();
    assert_eq!(
        models.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(),
        vec!["convnet", "mlp", "seg"],
        "sorted model list"
    );
    let conv_info = &models[0];
    assert_eq!(conv_info.input_len, 128);
    assert_eq!(conv_info.output_len, 6);
    let stats = wire.stats("mlp").unwrap();
    assert_eq!(
        stats.requests,
        (CLIENTS as u64 / 2) * REQUESTS as u64,
        "per-tenant stats count only this tenant's traffic: {stats}"
    );

    // A client-side batch equals row-by-row direct inference.
    let mut ref_mlp = mlp(77);
    ref_mlp.set_training(false);
    let mut scratch = InferScratch::new();
    let flat: Vec<f32> = (0..3).flat_map(|i| request(32, 5000 + i)).collect();
    let batched = wire.infer_batch("mlp", 3, &flat, None).unwrap();
    for (i, rows) in flat.chunks(32).enumerate() {
        let direct = ref_mlp
            .infer(&Tensor::from_vec(rows.to_vec(), &[1, 32]), &mut scratch)
            .data()
            .to_vec();
        assert_eq!(&batched[i * 10..(i + 1) * 10], &direct[..], "batch row {i}");
    }

    // A segment request equals the parent operator's row range.
    let x = request(32, 7_000);
    let seg = wire.infer_segment("seg", 0, 24, 1, &x, None).unwrap();
    let mut ws = Workspace::new();
    let full = w.matmat(&x, 1, &mut ws).unwrap();
    assert_eq!(seg, full[..24], "segment diverged from parent rows");

    // Typed errors cross the event loop too, and the connection survives.
    match wire.infer("nope", &[0.0; 32]) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownModel),
        other => panic!("expected UnknownModel, got {other:?}"),
    }
    match wire.infer("mlp", &[0.0; 31]) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadInput),
        other => panic!("expected BadInput, got {other:?}"),
    }
    assert_eq!(wire.infer("mlp", &request(32, 8_000)).unwrap().len(), 10);

    drop(wire);
    drop_poll(|| server.connection_count(), 0);
    server.shutdown();
}

/// The raw socket: two tagged requests pipelined to a slow and a fast
/// tenant; the fast reply overtakes the slow one and
/// each reply echoes its request's id.
#[test]
fn replies_complete_out_of_order_by_request_id() {
    let registry = slow_fast_registry(Duration::from_millis(150));
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = Vec::new();
    frame::encode_request_v3(
        7,
        &Request::Infer {
            model: "slow".to_string(),
            deadline_micros: 0,
            input: vec![1.0; 4],
        },
        &mut buf,
    );
    frame::write_frame(&mut raw, &buf).unwrap();
    frame::encode_request_v3(
        8,
        &Request::Infer {
            model: "fast".to_string(),
            deadline_micros: 0,
            input: vec![0.5; 8],
        },
        &mut buf,
    );
    frame::write_frame(&mut raw, &buf).unwrap();

    // The fast tenant's reply arrives first, carrying ITS id — the slow
    // request (sent first, still in flight) did not hold it back.
    let mut rbuf = Vec::new();
    frame::read_frame(&mut raw, &mut rbuf).unwrap();
    let (tag, reply) = frame::decode_reply_tagged(&rbuf).unwrap();
    assert_eq!(tag, Some(8), "the fast reply must overtake the slow one");
    assert_eq!(
        reply,
        Reply::Infer {
            output: vec![2.0; 8]
        }
    );
    frame::read_frame(&mut raw, &mut rbuf).unwrap();
    let (tag, reply) = frame::decode_reply_tagged(&rbuf).unwrap();
    assert_eq!(tag, Some(7));
    assert_eq!(
        reply,
        Reply::Infer {
            output: vec![1.0; 4]
        }
    );
    server.shutdown();
}

/// The pipelining client matches replies by id: with the fast reply
/// arriving first on the socket, `recv_infer` still hands back replies
/// in send order, each bitwise its own.
#[test]
fn client_matches_out_of_order_replies_by_id() {
    let registry = slow_fast_registry(Duration::from_millis(120));
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();

    let mut wire = WireClient::connect(server.local_addr()).unwrap();
    wire.send_infer("slow", &[3.0; 4], None).unwrap();
    wire.send_infer("fast", &[1.0; 8], None).unwrap();
    assert_eq!(wire.pipelined(), 2);
    // Send order, not completion order: the slow echo comes back first
    // from recv_infer even though the fast reply hit the socket first.
    assert_eq!(wire.recv_infer().unwrap(), vec![3.0; 4]);
    assert_eq!(wire.recv_infer().unwrap(), vec![3.0; 8]);
    assert_eq!(wire.pipelined(), 0);
    server.shutdown();
}

/// Slow-loris: a connection that writes half a frame header and stalls
/// is reaped by the idle deadline — no thread waits on it, the socket
/// closes, and the server keeps serving fresh connections.
#[test]
fn stalled_half_frame_connection_is_reaped_by_idle_timeout() {
    let registry = slow_fast_registry(Duration::ZERO);
    let server = EventServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        EventConfig {
            idle_timeout: Some(Duration::from_millis(200)),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut loris = TcpStream::connect(addr).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Four header bytes of a valid frame, then silence.
    loris
        .write_all(&[frame::MAGIC, frame::VERSION, 0x04, 0x00])
        .unwrap();
    drop_poll(|| server.connection_count(), 1);
    // The readiness loop reaps it on the idle deadline — the stalled
    // socket reads EOF and the count returns to zero.
    drop_poll(|| server.connection_count(), 0);
    let mut sink = Vec::new();
    assert_eq!(
        loris.read_to_end(&mut sink).unwrap_or(0),
        0,
        "the reaped connection must be closed, not answered"
    );

    // Fresh connections serve normally afterwards (their own deadline).
    let mut wire = WireClient::connect(addr).unwrap();
    assert_eq!(wire.infer("fast", &[0.0; 8]).unwrap(), vec![1.0; 8]);
    drop(wire);
    server.shutdown();
}

/// One input value in, that many copies out: replies far larger than
/// their requests, so a peer that is not reading builds a write backlog
/// quickly.
struct Inflate(usize);

impl ServeModel for Inflate {
    type Scratch = ();
    fn make_scratch(&self) {}
    fn input_len(&self) -> usize {
        1
    }
    fn output_len(&self) -> usize {
        self.0
    }
    fn infer_batch(&self, x: &[f32], _batch: usize, _scratch: &mut (), out: &mut [f32]) {
        for (row, v) in out.chunks_mut(self.0).zip(x) {
            row.fill(*v);
        }
    }
}

/// Writes `count` pipelined `Infer` frames (id `i`, input `[i]` for frame
/// `i`) from a side thread, so a test can read replies while the tail of
/// the burst is still going out.
fn pipeline_infers(raw: &TcpStream, model: &'static str, count: usize) {
    let mut raw = raw.try_clone().unwrap();
    std::thread::spawn(move || {
        let mut buf = Vec::new();
        for i in 0..count {
            frame::encode_request_v3(
                i as u64,
                &Request::Infer {
                    model: model.to_string(),
                    deadline_micros: 0,
                    input: vec![i as f32],
                },
                &mut buf,
            );
            frame::write_frame(&mut raw, &buf).unwrap();
        }
    });
}

/// Reads `count` replies and checks that each id `i` in `0..count` is
/// answered exactly once, with `width` copies of `i`. Drains the socket in
/// large reads first (a fast reader lets the server flush its whole
/// backlog in one write), then decodes.
fn expect_inflated(raw: &mut TcpStream, count: usize, width: usize) {
    let mut one = Vec::new();
    frame::encode_reply_v3(
        0,
        &Reply::Infer {
            output: vec![0.0; width],
        },
        &mut one,
    );
    let frame_len = one.len();
    let mut bytes = vec![0u8; count * frame_len];
    let mut got = 0;
    while got < bytes.len() {
        match raw.read(&mut bytes[got..]) {
            Ok(0) => panic!(
                "server hung up after {} of {count} replies",
                got / frame_len
            ),
            Ok(n) => got += n,
            Err(e) => panic!("only {} of {count} replies came: {e}", got / frame_len),
        }
    }
    let mut answered = vec![false; count];
    for reply in bytes.chunks_exact(frame_len) {
        let (tag, reply) = frame::decode_reply_tagged(reply).unwrap();
        let i = tag.expect("every reply answers a request") as usize;
        assert!(
            !std::mem::replace(&mut answered[i], true),
            "id {i} answered twice"
        );
        assert_eq!(
            reply,
            Reply::Infer {
                output: vec![i as f32; width]
            },
            "reply {i}"
        );
    }
}

/// The write-backlog pause must end when the backlog drains. A client
/// pipelines far more reply bytes than the cap (and than the kernel's
/// socket buffers), reads nothing for a while, then reads everything: the
/// loop stops pulling requests while the backlog is over the cap, and
/// picks the already-buffered frames up again as the client drains it —
/// every reply arrives, under its own id, bitwise.
#[test]
fn deep_pipeline_resumes_after_the_write_backlog_drains() {
    const N: usize = 2000;
    const WIDTH: usize = 4096; // 16 KiB per reply, 32 MB owed in total
    let registry = Arc::new(ModelRegistry::new(2).unwrap());
    registry
        .add_model("inflate", Inflate(WIDTH), TenantConfig::default())
        .unwrap();
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    pipeline_infers(&raw, "inflate", N);
    std::thread::sleep(Duration::from_millis(500));
    expect_inflated(&mut raw, N, WIDTH);
    drop(raw);
    drop_poll(|| server.connection_count(), 0);
    server.shutdown();
}

/// A connection may pipeline more requests than `max_pipeline`: the
/// excess waits (in the kernel or the frame assembler) and is picked up
/// as replies free in-flight entries — including when every in-flight
/// entry completes in one batch — so every request is answered once.
#[test]
fn pipeline_deeper_than_max_pipeline_is_served() {
    const N: usize = 200;
    let registry = Arc::new(ModelRegistry::new(2).unwrap());
    registry
        .add_model("inflate", Inflate(3), TenantConfig::default())
        .unwrap();
    let server = EventServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        EventConfig {
            max_pipeline: 4,
            ..Default::default()
        },
    )
    .unwrap();

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    pipeline_infers(&raw, "inflate", N);
    expect_inflated(&mut raw, N, 3);
    drop(raw);
    drop_poll(|| server.connection_count(), 0);
    server.shutdown();
}

/// A peer that pipelines `Infer` frames and never reads a reply must not
/// grow the server's write buffer without bound or keep its own idle
/// clock alive: once the unsent backlog passes the cap the loop stops
/// reading it, TCP backpressures it, and the idle deadline reaps it —
/// while a well-behaved client on the same loops stays bitwise-correct.
#[test]
fn flooding_peer_that_never_reads_is_reaped_by_idle_timeout() {
    let registry = Arc::new(ModelRegistry::new(2).unwrap());
    registry
        .add_model("inflate", Inflate(256), TenantConfig::default())
        .unwrap();
    registry
        .add_model("fast", Doubler, TenantConfig::default())
        .unwrap();
    let server = EventServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        EventConfig {
            idle_timeout: Some(Duration::from_millis(300)),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // The flood: a block of valid frames written round and round, partial
    // writes tracked so the framing stays valid, replies never read.
    let mut block = Vec::new();
    let mut one = Vec::new();
    for i in 0..64 {
        frame::encode_request_v3(
            i,
            &Request::Infer {
                model: "inflate".to_string(),
                deadline_micros: 0,
                input: vec![i as f32],
            },
            &mut one,
        );
        block.extend_from_slice(&one);
    }
    const FLOOD_BUDGET: Duration = Duration::from_secs(5);
    let flooder = std::thread::spawn(move || {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_write_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let started = Instant::now();
        let mut pos = 0;
        while started.elapsed() < FLOOD_BUDGET {
            match raw.write(&block[pos..]) {
                Ok(n) => pos = (pos + n) % block.len(),
                // Backpressured: the server stopped reading. Keep trying —
                // a real flooder does not go away on its own.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                // Reset / broken pipe: the server hung up on us.
                Err(_) => return Some(started.elapsed()),
            }
        }
        None
    });

    // Meanwhile a well-behaved client keeps getting exact answers.
    let mut wire = WireClient::connect(addr).unwrap();
    let mut rounds = 0u64;
    while !flooder.is_finished() {
        let x = request(8, rounds);
        let expect: Vec<f32> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        assert_eq!(wire.infer("fast", &x).unwrap(), expect, "round {rounds}");
        rounds += 1;
    }
    let cut_after = flooder.join().unwrap();
    assert!(
        cut_after.is_some(),
        "a peer that floods without reading must be disconnected, \
         not served for {FLOOD_BUDGET:?}"
    );
    assert!(rounds > 0);
    drop_poll(|| server.connection_count(), 1);
    drop(wire);
    drop_poll(|| server.connection_count(), 0);
    server.shutdown();
}

/// The connection cap: accepts beyond `max_connections` are closed
/// immediately, and a freed slot is usable again.
#[test]
fn connection_cap_refuses_excess_accepts() {
    let registry = slow_fast_registry(Duration::ZERO);
    let server = EventServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        EventConfig {
            max_connections: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut a = WireClient::connect(addr).unwrap();
    let mut b = WireClient::connect(addr).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();
    assert_eq!(server.connection_count(), 2);

    // The third accept is shut immediately: EOF without a reply frame.
    let mut over = TcpStream::connect(addr).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sink = Vec::new();
    assert_eq!(over.read_to_end(&mut sink).unwrap_or(0), 0);

    // Freeing a slot re-opens the door.
    drop(a);
    drop_poll(|| server.connection_count(), 1);
    let mut c = WireClient::connect(addr).unwrap();
    c.ping().unwrap();
    server.shutdown();
}

/// Teardown is prompt and deterministic: live idle connections do not
/// stall shutdown behind write timeouts, every socket closes, and the
/// loop threads are joined before `shutdown` returns.
#[test]
fn shutdown_is_prompt_with_live_connections() {
    let registry = slow_fast_registry(Duration::ZERO);
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut held: Vec<WireClient> = (0..4).map(|_| WireClient::connect(addr).unwrap()).collect();
    for wire in &mut held {
        wire.ping().unwrap();
    }
    assert_eq!(server.connection_count(), 4);

    // Disconnect cycles reap without dedicated threads.
    for cycle in 0..8 {
        let mut wire = WireClient::connect(addr).unwrap();
        assert_eq!(
            wire.infer("fast", &request(8, cycle as u64)).unwrap().len(),
            8
        );
    }
    drop_poll(|| server.connection_count(), 4);

    let started = Instant::now();
    server.shutdown(); // joins the loops; waker-driven, no 1 s timeouts
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "shutdown with idle connections took {elapsed:?}"
    );
    // Every held connection observed the close.
    for wire in &mut held {
        assert!(wire.ping().is_err(), "connections must be closed");
    }
}

/// Garbage on the event socket gets exactly one typed Malformed error
/// frame back, under the id that answers no request, then the server
/// hangs up — and stays healthy for other peers.
#[test]
fn malformed_frames_get_a_typed_error_then_disconnect() {
    let registry = slow_fast_registry(Duration::ZERO);
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap(); // server replies, then closes
    match frame::decode_reply_tagged(&reply).unwrap() {
        (None, Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected one Malformed verdict, got {other:?}"),
    }

    // A half-written frame followed by reset leaves other peers intact.
    let mut frame_buf = Vec::new();
    frame::encode_request_v3(
        0,
        &Request::Infer {
            model: "fast".to_string(),
            deadline_micros: 0,
            input: vec![0.0; 8],
        },
        &mut frame_buf,
    );
    let half = TcpStream::connect(addr).unwrap();
    (&half)
        .write_all(&frame_buf[..frame_buf.len() / 2])
        .unwrap();
    drop(half);

    let mut wire = WireClient::connect(addr).unwrap();
    assert_eq!(wire.infer("fast", &[1.0; 8]).unwrap(), vec![3.0; 8]);
    drop(wire);
    drop_poll(|| server.connection_count(), 0);
    server.shutdown();
}

/// Garbage behind a request still in flight: the server answers that
/// request under its id first, then sends the Malformed verdict as the
/// last frame, then hangs up — a client stops reading at the verdict, so
/// a reply written after it would be lost.
#[test]
fn malformed_verdict_follows_the_replies_still_owed() {
    let registry = slow_fast_registry(Duration::from_millis(150));
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = Vec::new();
    frame::encode_request_v3(
        5,
        &Request::Infer {
            model: "slow".to_string(),
            deadline_micros: 0,
            input: vec![4.0; 4],
        },
        &mut buf,
    );
    frame::write_frame(&mut raw, &buf).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();

    let mut rbuf = Vec::new();
    frame::read_frame(&mut raw, &mut rbuf).unwrap();
    let (tag, reply) = frame::decode_reply_tagged(&rbuf).unwrap();
    assert_eq!(tag, Some(5), "the owed reply must precede the verdict");
    assert_eq!(
        reply,
        Reply::Infer {
            output: vec![4.0; 4]
        }
    );
    frame::read_frame(&mut raw, &mut rbuf).unwrap();
    match frame::decode_reply_tagged(&rbuf).unwrap() {
        (None, Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected the Malformed verdict, got {other:?}"),
    }
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "the verdict must be the last frame");
    drop(raw);
    drop_poll(|| server.connection_count(), 0);
    server.shutdown();
}
