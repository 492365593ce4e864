//! End-to-end wire serving over a real socket: a recurrent tenant
//! bit-identical to direct `Sequential::infer`, typed and deadline errors,
//! a half-written frame followed by a reset, and a connection table that
//! tracks only live connections. (The multi-tenant bitwise scenario,
//! protocol ordering and malformed-frame handling live in `event.rs`.)

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use circnn_core::{CirculantRnn, CirculantRnnCell, RnnReadout};
use circnn_nn::{InferScratch, Layer, Linear, Sequential};
use circnn_serve::TenantConfig;
use circnn_tensor::init::seeded_rng;
use circnn_tensor::Tensor;
use circnn_wire::{ErrorCode, EventConfig, EventServer, ModelRegistry, WireClient, WireError};

use common::{drop_poll, mlp, request, SlowEcho};

/// Recurrent tenant over `[T=6, D=2]` sequences: circulant reservoir
/// features → dense readout.
fn rnn_net(seed: u64) -> Sequential {
    let mut rng = seeded_rng(seed);
    let cell = CirculantRnnCell::new(&mut rng, 2, 16, 4, 0.9).unwrap();
    Sequential::new()
        .add(CirculantRnn::new(cell, RnnReadout::Features))
        .add(Linear::new(&mut rng, 32, 4))
}

/// The engine-unification acceptance scenario for the recurrent workload:
/// an RNN registers in the registry like any FC net or convnet, serves
/// over the socket under concurrent connections, and every wire reply is
/// **bit-identical** to direct `Sequential::infer` on the same sequence.
#[test]
fn recurrent_network_serves_bit_identical_over_the_wire() {
    let registry = Arc::new(ModelRegistry::new(2).unwrap());
    registry
        .add_network("rnn", rnn_net(123), &[6, 2], TenantConfig::default())
        .unwrap();
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();
    let addr = server.local_addr();
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 8;
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let mut ref_net = rnn_net(123);
            ref_net.set_training(false);
            s.spawn(move || {
                let mut wire = WireClient::connect(addr).expect("connect");
                let mut scratch = InferScratch::new();
                for r in 0..REQUESTS {
                    let x = request(6 * 2, (client * 777 + r) as u64);
                    let served = wire.infer("rnn", &x).expect("served");
                    let direct = ref_net
                        .infer(&Tensor::from_vec(x, &[1, 6, 2]), &mut scratch)
                        .data()
                        .to_vec();
                    assert_eq!(
                        served, direct,
                        "client {client} sequence {r} diverged from direct infer"
                    );
                }
            });
        }
    });
    // Sequence payloads of the wrong length never reach a worker: the
    // wire layer rejects them with the typed BadInput reply.
    let mut wire = WireClient::connect(addr).unwrap();
    match wire.infer("rnn", &[0.0; 11]) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadInput),
        other => panic!("expected BadInput, got {other:?}"),
    }
    assert_eq!(wire.infer("rnn", &request(12, 5)).unwrap().len(), 4);
    server.shutdown();
}

/// Unknown models and mis-sized inputs come back as typed remote errors.
#[test]
fn typed_errors_cross_the_wire() {
    let registry = Arc::new(ModelRegistry::new(1).unwrap());
    registry
        .add_network("mlp", mlp(9), &[32], TenantConfig::default())
        .unwrap();
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();
    let mut wire = WireClient::connect(server.local_addr()).unwrap();
    match wire.infer("nope", &[0.0; 32]) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownModel),
        other => panic!("expected UnknownModel, got {other:?}"),
    }
    match wire.infer("mlp", &[0.0; 31]) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadInput),
        other => panic!("expected BadInput, got {other:?}"),
    }
    match wire.stats("nope") {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownModel),
        other => panic!("expected UnknownModel, got {other:?}"),
    }
    // Over-long model names are refused client-side, before any bytes
    // hit the wire (they could never match a registered model anyway).
    match wire.stats(&"x".repeat(circnn_wire::MAX_NAME_LEN + 1)) {
        Err(WireError::Malformed(_)) => {}
        other => panic!("expected client-side Malformed, got {other:?}"),
    }
    // The connection survives typed errors.
    assert_eq!(wire.infer("mlp", &request(32, 1)).unwrap().len(), 10);
    server.shutdown();
}

/// A deadline that cannot be met surfaces as the typed DeadlineExceeded
/// error over the wire; a generous deadline succeeds.
#[test]
fn deadline_errors_cross_the_wire() {
    let registry = Arc::new(ModelRegistry::new(1).unwrap());
    registry
        .add_model(
            "slow",
            SlowEcho(Duration::from_millis(80)),
            TenantConfig {
                max_batch: 1,
                max_wait: Duration::ZERO,
                queue_capacity: 16,
                ..Default::default()
            },
        )
        .unwrap();
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();
    let addr = server.local_addr();

    // Pipeline two requests on one connection: the first occupies the
    // worker for 80 ms; the second's 5 ms budget expires while queued.
    let mut wire = WireClient::connect(addr).unwrap();
    wire.send_infer("slow", &[1.0; 4], None).unwrap();
    wire.send_infer("slow", &[2.0; 4], Some(Duration::from_millis(5)))
        .unwrap();
    assert_eq!(wire.recv_infer().unwrap(), vec![1.0; 4]);
    match wire.recv_infer() {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::DeadlineExceeded),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // A generous budget still completes.
    assert_eq!(
        wire.infer_deadline("slow", &[3.0; 4], Some(Duration::from_secs(10)))
            .unwrap(),
        vec![3.0; 4]
    );
    let stats = wire.stats("slow").unwrap();
    assert_eq!(stats.expired, 1, "{stats}");
    server.shutdown();
}

/// A client that writes half an Infer frame and then resets must not
/// wedge the server: its slot is freed, and other connections' in-flight
/// requests complete bitwise-correct throughout.
#[test]
fn half_written_frame_then_reset_leaves_other_connections_intact() {
    let registry = Arc::new(ModelRegistry::new(1).unwrap());
    registry
        .add_network("mlp", mlp(21), &[32], TenantConfig::default())
        .unwrap();
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut ref_net = mlp(21);
    ref_net.set_training(false);
    let mut scratch = InferScratch::new();

    // A healthy connection with a request already pipelined (in flight
    // while the hostile peer resets).
    let mut healthy = WireClient::connect(addr).unwrap();
    let x0 = request(32, 900);
    healthy.send_infer("mlp", &x0, None).unwrap();

    // The hostile peer: a valid Infer frame cut off mid-payload, then an
    // abrupt close.
    let mut frame = Vec::new();
    circnn_wire::frame::encode_request_v3(
        0,
        &circnn_wire::Request::Infer {
            model: "mlp".to_string(),
            deadline_micros: 0,
            input: request(32, 901),
        },
        &mut frame,
    );
    let half = TcpStream::connect(addr).unwrap();
    (&half).write_all(&frame[..frame.len() / 2]).unwrap();
    drop(half);

    // The healthy connection's in-flight reply arrives bitwise-correct,
    // and the connection keeps serving.
    let direct = ref_net
        .infer(&Tensor::from_vec(x0.clone(), &[1, 32]), &mut scratch)
        .data()
        .to_vec();
    assert_eq!(healthy.recv_infer().unwrap(), direct);
    let x1 = request(32, 902);
    let direct = ref_net
        .infer(&Tensor::from_vec(x1.clone(), &[1, 32]), &mut scratch)
        .data()
        .to_vec();
    assert_eq!(healthy.infer("mlp", &x1).unwrap(), direct);

    // The half-writer's connection is reaped; only the healthy one stays.
    drop_poll(|| server.connection_count(), 1);
    server.shutdown();
}

/// Connection-table reaping: a long-lived server's slab must not grow
/// with connect/disconnect cycles — a closed connection's slot is freed,
/// so only live connections stay counted.
#[test]
fn connection_table_does_not_grow_across_connect_disconnect_cycles() {
    let registry = Arc::new(ModelRegistry::new(1).unwrap());
    registry
        .add_network("mlp", mlp(9), &[32], TenantConfig::default())
        .unwrap();
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();
    let addr = server.local_addr();

    const CYCLES: usize = 20;
    for cycle in 0..CYCLES {
        let mut wire = WireClient::connect(addr).expect("connect");
        assert_eq!(
            wire.infer("mlp", &request(32, cycle as u64)).unwrap().len(),
            10
        );
        drop(wire); // hang up
    }

    // The socket close is observed asynchronously by the loop; poll until
    // the count settles. A held connection must still be counted, every
    // closed one must eventually be reaped.
    let mut held = WireClient::connect(addr).expect("connect");
    held.ping().unwrap();
    drop_poll(|| server.connection_count(), 1);
    server.shutdown();
}
