//! Network-serving demo: an `EventServer` hosting two tenants — a
//! block-circulant MLP and a block-circulant convnet — queried over TCP
//! by concurrent `WireClient` connections, with every answer checked
//! bit-for-bit against the direct read-only inference path, plus a
//! deadline that cannot be met failing with the typed error.
//!
//! Run with `cargo run --release --example wire_demo`.

use std::sync::Arc;
use std::time::Duration;

use circnn::core::{CirculantConv2d, CirculantLinear};
use circnn::nn::{Flatten, InferScratch, Layer, Linear, MaxPool2d, Relu, Sequential};
use circnn::serve::TenantConfig;
use circnn::tensor::init::seeded_rng;
use circnn::tensor::Tensor;
use circnn::wire::{ErrorCode, EventConfig, EventServer, ModelRegistry, WireClient, WireError};

fn mlp(seed: u64) -> Sequential {
    let mut rng = seeded_rng(seed);
    Sequential::new()
        .add(CirculantLinear::new(&mut rng, 128, 256, 32).expect("valid block"))
        .add(Relu::new())
        .add(CirculantLinear::new(&mut rng, 256, 64, 16).expect("valid block"))
        .add(Relu::new())
        .add(Linear::new(&mut rng, 64, 10))
}

fn convnet(seed: u64) -> Sequential {
    let mut rng = seeded_rng(seed);
    Sequential::new()
        .add(CirculantConv2d::new(&mut rng, 4, 8, 3, 1, 1, 4).expect("valid block"))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(Flatten::new())
        .add(CirculantLinear::new(&mut rng, 8 * 8 * 8, 32, 16).expect("valid block"))
        .add(Relu::new())
        .add(Linear::new(&mut rng, 32, 10))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== circnn-wire demo ==\n");

    // 1) Register two tenants: the registry owns the shared worker pool.
    let registry = Arc::new(ModelRegistry::new(2)?);
    registry.add_network("mlp", mlp(7), &[128], TenantConfig::default())?;
    registry.add_network("convnet", convnet(8), &[4, 16, 16], TenantConfig::default())?;

    // 2) Serve them over TCP (ephemeral port).
    let server = EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default())?;
    let addr = server.local_addr();
    println!("serving on {addr}");

    let mut probe = WireClient::connect(addr)?;
    probe.ping()?;
    for m in probe.list_models()? {
        println!(
            "  model {:10} {:>5} -> {:<4} ({} queued)",
            m.name, m.input_len, m.output_len, m.pending
        );
    }

    // 3) Concurrent connections across both tenants, bitwise-checked
    //    against the direct read-only inference path.
    let clients = 8;
    let requests = 40;
    println!("\n{clients} connections x {requests} requests, bitwise-checked…");
    std::thread::scope(|s| {
        for c in 0..clients {
            let (mut reference, model, len, dims) = if c % 2 == 0 {
                (mlp(7), "mlp", 128usize, vec![1usize, 128])
            } else {
                (convnet(8), "convnet", 4 * 16 * 16, vec![1, 4, 16, 16])
            };
            reference.set_training(false);
            s.spawn(move || {
                let mut wire = WireClient::connect(addr).expect("connect");
                let mut scratch = InferScratch::new();
                let mut rng = seeded_rng(100 + c as u64);
                for _ in 0..requests {
                    let x = circnn::tensor::init::uniform(&mut rng, &[len], -1.0, 1.0);
                    let served = wire.infer(model, x.data()).expect("served");
                    let direct =
                        reference.infer(&Tensor::from_vec(x.data().to_vec(), &dims), &mut scratch);
                    assert_eq!(served, direct.data(), "wire answer diverged");
                }
            });
        }
    });
    println!(
        "all {} answers bit-identical to direct infer",
        clients * requests
    );

    // 4) Per-tenant statistics over the wire.
    for name in ["mlp", "convnet"] {
        println!("  {name:10} {}", probe.stats(name)?);
    }

    // 5) Deadlines: an impossible budget fails fast with a typed error.
    match probe.infer_deadline("mlp", &vec![0.0; 128], Some(Duration::from_micros(1))) {
        Err(WireError::Remote {
            code: ErrorCode::DeadlineExceeded,
            ..
        }) => {
            println!("\n1 µs deadline: typed DeadlineExceeded, as designed")
        }
        other => println!("\nunexpected deadline outcome: {other:?}"),
    }

    // 6) Hot removal: the tenant disappears mid-flight.
    registry.remove_model("convnet");
    match probe.infer("convnet", &vec![0.0; 4 * 16 * 16]) {
        Err(WireError::Remote {
            code: ErrorCode::UnknownModel,
            ..
        }) => {
            println!("after hot removal: typed UnknownModel")
        }
        other => println!("unexpected removal outcome: {other:?}"),
    }

    server.shutdown();
    println!("\nserver drained and stopped");
    Ok(())
}
