//! Chaos soak: clients hammer a live server through a fault-injecting
//! proxy (delays, torn frames, truncation-resets in both directions)
//! while the model itself injects scheduled panics and stragglers. Every
//! request must resolve — bitwise-correct output or a typed error, never
//! a hang, never a client panic — and the server must stay healthy for a
//! clean connection afterwards.

mod common;

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use circnn_serve::TenantConfig;
use circnn_wire::chaos::{ChaosProxy, Fault, FaultyModel};
use circnn_wire::{ClientConfig, EventConfig, EventServer, ModelRegistry, WireClient, WireError};

use common::Doubler;

fn expected(x: &[f32]) -> Vec<f32> {
    x.iter().map(|v| 2.0 * v + 1.0).collect()
}

fn input(seed: u64) -> Vec<f32> {
    (0..8)
        .map(|i| ((seed * 31 + i) % 17) as f32 * 0.125)
        .collect()
}

fn soak_client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_secs(5)),
        // Short enough that a wedged read resolves the soak quickly,
        // long enough to ride out injected delays and slow batches.
        read_timeout: Some(Duration::from_secs(5)),
        write_timeout: Some(Duration::from_secs(5)),
        retries: 4,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        ..Default::default()
    }
}

/// One client's soak loop: every request resolves as bitwise-correct
/// output or a typed error. Returns (ok, typed_error) counts.
fn soak(addr: SocketAddr, client: u64, requests: u64, model: &str) -> (u64, u64) {
    let mut wire = WireClient::connect_with(addr, soak_client_config()).expect("connect");
    let (mut ok, mut err) = (0u64, 0u64);
    for r in 0..requests {
        let x = input(client * 1000 + r);
        match wire.infer(model, &x) {
            Ok(y) => {
                assert_eq!(y, expected(&x), "client {client} request {r} wrong bytes");
                ok += 1;
            }
            // Any typed WireError is an acceptable resolution under
            // chaos: Remote (Canceled from a quarantined panic, …),
            // Io / RetriesExhausted (transport cut), Malformed (desync
            // hard-close). What is NOT acceptable is a hang or a panic —
            // the former fails via read timeouts, the latter unwinds.
            Err(_) => err += 1,
        }
    }
    (ok, err)
}

/// The storm: torn frames land mid-read in the incremental decoder,
/// truncated replies cut pipelined v3 streams, and the injected panics
/// and stragglers exercise the completion path — every request still
/// resolves as bitwise-correct output or a typed error, and the readiness
/// loops stay healthy.
#[test]
fn chaos_soak_every_request_resolves_correct_or_typed_error() {
    let registry = Arc::new(ModelRegistry::new(2).unwrap());
    registry
        .add_model("clean", Doubler, TenantConfig::default())
        .unwrap();
    // The flaky tenant panics on its first dispatch (poison — the server
    // must quarantine it) and runs two stragglers that hold a worker.
    registry
        .add_model(
            "flaky",
            FaultyModel::new(Doubler)
                .panic_at([0, 7])
                .slow_at([3, 11], Duration::from_millis(40)),
            TenantConfig::default(),
        )
        .unwrap();
    let server = EventServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        EventConfig {
            idle_timeout: Some(Duration::from_secs(10)),
            ..Default::default()
        },
    )
    .unwrap();

    // Deterministic fault plan, assigned to proxied connections in accept
    // order: clean pass-through, added latency with frames torn into
    // 7-byte segments (mid-header and mid-payload cuts), a request cut
    // off mid-frame on its way to the server, a reply cut off on its way
    // back.
    let proxy = ChaosProxy::start(
        server.local_addr(),
        vec![
            Fault::None,
            Fault::Delay {
                delay: Duration::from_micros(200),
                chunk: 7,
            },
            Fault::None,
            Fault::TruncateToServer { after: 13 },
            Fault::None,
            Fault::TruncateToClient { after: 20 },
        ],
    )
    .unwrap();
    let proxied = proxy.local_addr();

    const CLIENTS: u64 = 6;
    const REQUESTS: u64 = 20;
    let mut totals = (0u64, 0u64);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let model = if c % 2 == 0 { "clean" } else { "flaky" };
                    soak(proxied, c, REQUESTS, model)
                })
            })
            .collect();
        for h in handles {
            let (ok, err) = h.join().expect("no client panics under chaos");
            totals.0 += ok;
            totals.1 += err;
        }
    });
    assert_eq!(
        totals.0 + totals.1,
        CLIENTS * REQUESTS,
        "every request resolved"
    );
    assert!(
        totals.0 > 0,
        "some requests must survive chaos (got {} ok / {} err)",
        totals.0,
        totals.1
    );

    // The loops are healthy after the storm: a clean connection serves
    // bitwise-correct replies and a sane health frame, and no request
    // lingers in any tenant queue (dropped dispatch tickets answered).
    let mut direct = WireClient::connect(server.local_addr()).unwrap();
    direct.ping().unwrap();
    let x = input(171_717);
    assert_eq!(direct.infer("clean", &x).unwrap(), expected(&x));
    let health = direct.health().unwrap();
    assert_eq!(health.models, 2);
    assert!(
        health
            .tenants
            .iter()
            .find(|t| t.name == "flaky")
            .expect("flaky tenant listed")
            .panics
            >= 1,
        "the scheduled poison dispatch must be recorded"
    );
    for t in &health.tenants {
        assert_eq!(t.pending, 0, "no request may remain queued: {t:?}");
    }

    proxy.shutdown();
    server.shutdown();
}

/// A reply truncated mid-frame is never misattributed: the client
/// surfaces a typed error for the cut call and, after reconnecting, the
/// next reply belongs to the next request — no cross-request reply skew.
#[test]
fn truncated_reply_never_desynchronizes_the_client() {
    let registry = Arc::new(ModelRegistry::new(1).unwrap());
    registry
        .add_model("clean", Doubler, TenantConfig::default())
        .unwrap();
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();
    // Every odd proxied connection loses the reply 20 bytes in (the
    // header plus a few payload bytes — a torn frame, not a clean EOF).
    let proxy = ChaosProxy::start(
        server.local_addr(),
        vec![Fault::TruncateToClient { after: 20 }, Fault::None],
    )
    .unwrap();

    let mut wire = WireClient::connect_with(
        proxy.local_addr(),
        ClientConfig {
            retries: 0, // surface the cut, don't paper over it
            read_timeout: Some(Duration::from_secs(5)),
            ..Default::default()
        },
    )
    .unwrap();
    let a = input(1);
    let b = input(2);
    // First call: reply cut mid-frame → typed transport error (reply
    // bytes had started, so this is not retryable even with a budget).
    match wire.infer("clean", &a) {
        Err(WireError::Io(_)) | Err(WireError::Malformed(_)) => {}
        other => panic!("expected a typed transport error, got {other:?}"),
    }
    // Second call reconnects (next plan slot: clean) and must get ITS
    // OWN reply — bitwise b's output, not a's.
    assert_eq!(wire.infer("clean", &b).unwrap(), expected(&b));

    proxy.shutdown();
    server.shutdown();
}
