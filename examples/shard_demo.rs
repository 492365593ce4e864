//! Sharded-serving demo: one big block-circulant operator is row-sliced
//! across two shard processes (here: two `EventServer`s), a `ShardRouter`
//! scatter-gathers the segments, and a small MLP tenant is forwarded
//! whole to a ring-chosen replica. Every answer is checked bit-for-bit
//! against the single-process path, then a replica is killed to show
//! transparent failover.
//!
//! Run with `cargo run --release --example shard_demo`.

use std::sync::Arc;
use std::time::Duration;

use circnn::core::{BlockCirculantMatrix, CirculantLinear, Workspace};
use circnn::nn::{InferScratch, Layer, Linear, Relu, Sequential};
use circnn::serve::TenantConfig;
use circnn::shard::topology::{segment_ranges, split_operator, ClusterSpec, ShardSpec};
use circnn::shard::{spawn_health_poller, RouterConfig, RouterServer, ShardRouter};
use circnn::tensor::init::{seeded_rng, uniform};
use circnn::wire::{EventConfig, EventServer, ModelRegistry, WireClient};

fn mlp(seed: u64) -> Sequential {
    let mut rng = seeded_rng(seed);
    Sequential::new()
        .add(CirculantLinear::new(&mut rng, 64, 128, 16).expect("valid block"))
        .add(Relu::new())
        .add(Linear::new(&mut rng, 128, 10))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== circnn-shard demo ==\n");

    // 1) One 256x192 operator, split into two row-slices. Each shard gets
    //    its slice; shard 0 additionally gets a second replica so we can
    //    kill the primary later.
    let w = BlockCirculantMatrix::random(&mut seeded_rng(11), 256, 192, 16)?;
    let slices = split_operator(&w, 2)?;
    println!(
        "operator {}x{} (k={}) split into {} slices: {:?}",
        w.rows(),
        w.cols(),
        w.block_size(),
        slices.len(),
        segment_ranges(&slices)
    );

    let mut servers: Vec<Vec<EventServer>> = Vec::new();
    let mut spec = ClusterSpec { shards: Vec::new() };
    for slice in &slices {
        let replicas = if servers.is_empty() { 2 } else { 1 };
        let mut shard_servers = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..replicas {
            let registry = Arc::new(ModelRegistry::new(2)?);
            registry.add_segment("big", slice.clone(), TenantConfig::default())?;
            // Forwarded tenants are registered whole on every replica.
            registry.add_network("mlp", mlp(7), &[64], TenantConfig::default())?;
            let server = EventServer::bind("127.0.0.1:0", registry, EventConfig::default())?;
            println!(
                "  shard {} replica on {} serves rows {}..{}",
                spec.shards.len(),
                server.local_addr(),
                slice.row_start,
                slice.row_end()
            );
            addrs.push(server.local_addr());
            shard_servers.push(server);
        }
        servers.push(shard_servers);
        spec.shards.push(ShardSpec { replicas: addrs });
    }

    // 2) The router: "big" scatter-gathers across the shards, "mlp" is
    //    forwarded whole by consistent hashing. A background poller keeps
    //    replica health fresh.
    let router = Arc::new(ShardRouter::new(&spec, RouterConfig::default())?);
    router.add_sharded_model("big", w.cols(), &segment_ranges(&slices))?;
    router.add_forwarded_model("mlp", 64, 10)?;
    let poller = spawn_health_poller(Arc::clone(&router), Duration::from_millis(200));

    // 3) An ordinary wire front-end: clients speak plain Infer frames and
    //    never learn the cluster exists.
    let front = RouterServer::bind("127.0.0.1:0", Arc::clone(&router), EventConfig::default())?;
    println!("\nrouter serving on {}", front.local_addr());
    let mut client = WireClient::connect(front.local_addr())?;
    for m in client.list_models()? {
        println!(
            "  model {:>4}: {:>3} -> {}",
            m.name, m.input_len, m.output_len
        );
    }

    // 4) Serve and verify bit-for-bit against the single-process path.
    let x = uniform(&mut seeded_rng(42), &[192], -1.0, 1.0)
        .data()
        .to_vec();
    let served = client.infer("big", &x)?;
    let direct = w.matmat(&x, 1, &mut Workspace::new())?;
    assert_eq!(served, direct, "stitched reply must be bit-identical");
    println!("\nbig: stitched reply is bit-identical to the single-process product");

    let xm = uniform(&mut seeded_rng(43), &[64], -1.0, 1.0)
        .data()
        .to_vec();
    let served = client.infer("mlp", &xm)?;
    let mut reference = mlp(7);
    reference.set_training(false);
    let expect = reference
        .infer(
            &circnn::tensor::Tensor::from_vec(xm.clone(), &[1, 64]),
            &mut InferScratch::new(),
        )
        .data()
        .to_vec();
    assert_eq!(served, expect, "forwarded reply must be bit-identical");
    println!("mlp: forwarded reply is bit-identical to in-process inference");

    // 5) Kill shard 0's primary replica; the router fails over and the
    //    answers stay bit-identical.
    let primary = servers[0].remove(0);
    primary.shutdown();
    println!("\nkilled shard 0's primary replica");
    for i in 0..4 {
        let x = uniform(&mut seeded_rng(100 + i), &[192], -1.0, 1.0)
            .data()
            .to_vec();
        let served = client.infer("big", &x)?;
        assert_eq!(served, w.matmat(&x, 1, &mut Workspace::new())?);
    }
    println!("4 post-kill requests served, all bit-identical (failover is invisible)");
    println!("healthy replicas after poll: {}", router.poll_health_once());

    drop(client);
    poller.stop();
    front.shutdown();
    router.drain_pools();
    for shard in servers {
        for server in shard {
            server.shutdown();
        }
    }
    println!("\nall servers drained; demo complete");
    Ok(())
}
