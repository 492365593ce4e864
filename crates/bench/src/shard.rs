//! Sharded-tier trajectory: scatter-gather throughput of the
//! [`circnn_shard::ShardRouter`] against a single-process server, plus
//! the latency cost of a replica failover.
//!
//! Three throughput configurations serve the same block-circulant
//! operator end to end over real sockets — one process, a 2-shard
//! cluster, a 4-shard cluster — driven by one synchronous client issuing
//! `InferBatch` requests. The failover experiment runs a 2-replica
//! shard, kills the primary mid-run, and reports the first-request
//! latency spike against the steady-state and recovered medians.
//!
//! The `shard` binary wraps [`run`] and writes `BENCH_shard.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use circnn_core::{BlockCirculantMatrix, Workspace};
use circnn_serve::TenantConfig;
use circnn_shard::topology::{segment_ranges, split_operator, ClusterSpec, ShardSpec};
use circnn_shard::{RouterConfig, RouterServer, ShardRouter};
use circnn_tensor::init::seeded_rng;
use circnn_wire::{ClientConfig, EventConfig, EventServer, ModelRegistry, WireClient};

/// One measured serving configuration.
#[derive(Debug, Clone)]
pub struct ShardPoint {
    /// `"single"`, `"2-shard"`, `"4-shard"`.
    pub config: &'static str,
    /// Shard processes behind the serving surface (1 = no router).
    pub shards: usize,
    /// Operator rows.
    pub m: usize,
    /// Operator columns.
    pub n: usize,
    /// Block size.
    pub k: usize,
    /// Rows per `InferBatch` request.
    pub batch: usize,
    /// Requests measured.
    pub requests: usize,
    /// Client-observed requests/second.
    pub rps: f64,
    /// Median request latency, µs.
    pub p50_us: f64,
}

/// The failover experiment's summary.
#[derive(Debug, Clone)]
pub struct FailoverPoint {
    /// Median latency before the kill, µs.
    pub steady_p50_us: f64,
    /// Latency of the first request after the primary died, µs — the
    /// failover hit (connect-failure detection plus the retry on the
    /// surviving replica).
    pub first_after_kill_us: f64,
    /// Median latency after failover settled, µs.
    pub recovered_p50_us: f64,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

fn operator(m: usize, n: usize, k: usize) -> BlockCirculantMatrix {
    BlockCirculantMatrix::random(&mut seeded_rng(4242), m, n, k).expect("valid shape")
}

fn request(n: usize, batch: usize, seed: u64) -> Vec<f32> {
    circnn_tensor::init::uniform(&mut seeded_rng(seed), &[batch * n], -1.0, 1.0)
        .data()
        .to_vec()
}

fn router_config() -> RouterConfig {
    RouterConfig {
        client: ClientConfig {
            connect_timeout: Some(Duration::from_secs(2)),
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            retries: 1,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            ..ClientConfig::default()
        },
        ..RouterConfig::default()
    }
}

/// Boots one shard server per slice (with `replicas` replicas each)
/// holding `"op"`; returns the servers shard-major plus the spec.
fn boot_shards(
    w: &BlockCirculantMatrix,
    shards: usize,
    replicas: usize,
) -> (Vec<Vec<EventServer>>, ClusterSpec) {
    let slices = split_operator(w, shards).expect("splittable");
    let mut servers = Vec::new();
    let mut spec = ClusterSpec { shards: Vec::new() };
    for slice in &slices {
        let mut shard_servers = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..replicas {
            let registry = Arc::new(ModelRegistry::new(2).expect("pool"));
            registry
                .add_segment("op", slice.clone(), TenantConfig::default())
                .expect("register segment");
            let server =
                EventServer::bind("127.0.0.1:0", registry, EventConfig::default()).expect("bind");
            addrs.push(server.local_addr());
            shard_servers.push(server);
        }
        servers.push(shard_servers);
        spec.shards.push(ShardSpec { replicas: addrs });
    }
    (servers, spec)
}

/// Issues `requests` batched requests through `client` and returns
/// (rps, p50 µs). The first reply is verified bitwise against the
/// in-process kernel, so the measurement can never be of wrong answers.
fn drive(
    client: &mut WireClient,
    w: &BlockCirculantMatrix,
    batch: usize,
    requests: usize,
) -> (f64, f64) {
    let n = w.cols();
    let x = request(n, batch, 99);
    let first = client.infer_batch("op", batch, &x, None).expect("serve");
    let mut ws = Workspace::new();
    let mut direct = Vec::new();
    for row in x.chunks(n) {
        direct.extend_from_slice(&w.matmat(row, 1, &mut ws).expect("matmat"));
    }
    assert_eq!(first, direct, "served batch must be bitwise-exact");

    let mut latencies = Vec::with_capacity(requests);
    let t0 = Instant::now();
    for i in 0..requests {
        let x = request(n, batch, 1000 + i as u64);
        let t = Instant::now();
        let _ = client.infer_batch("op", batch, &x, None).expect("serve");
        latencies.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let total = t0.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (requests as f64 / total, percentile(&latencies, 0.50))
}

/// Measures one sharded configuration end to end.
fn measure_sharded(
    w: &BlockCirculantMatrix,
    shards: usize,
    batch: usize,
    requests: usize,
    config: &'static str,
) -> ShardPoint {
    let (servers, spec) = boot_shards(w, shards, 1);
    let slices = split_operator(w, shards).expect("splittable");
    let router = Arc::new(ShardRouter::new(&spec, router_config()).expect("router"));
    router
        .add_sharded_model("op", w.cols(), &segment_ranges(&slices))
        .expect("register");
    let front = RouterServer::bind("127.0.0.1:0", Arc::clone(&router), EventConfig::default())
        .expect("bind front");
    let mut client = WireClient::connect(front.local_addr()).expect("connect");
    let (rps, p50_us) = drive(&mut client, w, batch, requests);
    drop(client);
    front.shutdown();
    router.drain_pools();
    for shard in servers {
        for server in shard {
            server.shutdown();
        }
    }
    ShardPoint {
        config,
        shards,
        m: w.rows(),
        n: w.cols(),
        k: w.block_size(),
        batch,
        requests,
        rps,
        p50_us,
    }
}

/// Measures the single-process baseline (no router in the path).
fn measure_single(w: &BlockCirculantMatrix, batch: usize, requests: usize) -> ShardPoint {
    let registry = Arc::new(ModelRegistry::new(2).expect("pool"));
    registry
        .add_model("op", w.clone(), TenantConfig::default())
        .expect("register");
    let server = EventServer::bind("127.0.0.1:0", registry, EventConfig::default()).expect("bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let (rps, p50_us) = drive(&mut client, w, batch, requests);
    drop(client);
    server.shutdown();
    ShardPoint {
        config: "single",
        shards: 1,
        m: w.rows(),
        n: w.cols(),
        k: w.block_size(),
        batch,
        requests,
        rps,
        p50_us,
    }
}

/// The failover experiment: a 2-shard cluster whose first shard has two
/// replicas; the primary dies mid-run.
fn measure_failover(w: &BlockCirculantMatrix, batch: usize, requests: usize) -> FailoverPoint {
    let (mut servers, spec) = boot_shards(w, 2, 2);
    let slices = split_operator(w, 2).expect("splittable");
    let router = Arc::new(ShardRouter::new(&spec, router_config()).expect("router"));
    router
        .add_sharded_model("op", w.cols(), &segment_ranges(&slices))
        .expect("register");
    let n = w.cols();

    let mut steady = Vec::new();
    for i in 0..requests {
        let x = request(n, batch, 2000 + i as u64);
        let t = Instant::now();
        let _ = router.infer_batch("op", batch, &x, None).expect("serve");
        steady.push(t.elapsed().as_secs_f64() * 1e6);
    }

    // Kill shard 0's primary, then measure the very next request — it
    // pays the dead-connection detection plus the failover retry.
    let primary = servers[0].remove(0);
    primary.shutdown();
    let x = request(n, batch, 3000);
    let t = Instant::now();
    let _ = router
        .infer_batch("op", batch, &x, None)
        .expect("failover serve");
    let first_after_kill_us = t.elapsed().as_secs_f64() * 1e6;

    let mut recovered = Vec::new();
    for i in 0..requests {
        let x = request(n, batch, 4000 + i as u64);
        let t = Instant::now();
        let _ = router.infer_batch("op", batch, &x, None).expect("serve");
        recovered.push(t.elapsed().as_secs_f64() * 1e6);
    }

    router.drain_pools();
    for shard in servers {
        for server in shard {
            server.shutdown();
        }
    }
    steady.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    recovered.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    FailoverPoint {
        steady_p50_us: percentile(&steady, 0.50),
        first_after_kill_us,
        recovered_p50_us: percentile(&recovered, 0.50),
    }
}

/// Runs the full trajectory: single vs 2-shard vs 4-shard, plus the
/// failover experiment.
pub fn run(quick: bool) -> (Vec<ShardPoint>, FailoverPoint) {
    let (m, n, k, batch, requests) = if quick {
        (128, 128, 16, 4, 20)
    } else {
        (512, 512, 16, 8, 120)
    };
    let w = operator(m, n, k);
    let points = vec![
        measure_single(&w, batch, requests),
        measure_sharded(&w, 2, batch, requests, "2-shard"),
        measure_sharded(&w, 4, batch, requests, "4-shard"),
    ];
    let failover = measure_failover(&w, batch, (requests / 2).max(5));
    (points, failover)
}

/// Renders the `BENCH_shard.json` trajectory document.
pub fn to_json(points: &[ShardPoint], failover: &FailoverPoint) -> String {
    let mut out = String::from(
        "{\n  \"bench\": \"shard_router\",\n  \"unit\": \"requests_per_second\",\n  \"points\": [\n",
    );
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"config\": \"{}\", \"shards\": {}, \"m\": {}, \"n\": {}, \"k\": {}, \
             \"batch\": {}, \"requests\": {}, \"rps\": {:.1}, \"p50_us\": {:.0}}}{}\n",
            p.config,
            p.shards,
            p.m,
            p.n,
            p.k,
            p.batch,
            p.requests,
            p.rps,
            p.p50_us,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"failover\": {{\"steady_p50_us\": {:.0}, \"first_after_kill_us\": {:.0}, \
         \"recovered_p50_us\": {:.0}}}\n}}\n",
        failover.steady_p50_us, failover.first_after_kill_us, failover.recovered_p50_us
    ));
    out
}

/// Prints a human-readable table.
pub fn print(points: &[ShardPoint], failover: &FailoverPoint) {
    println!(
        "{:>8} {:>6} | {:>5}x{:<5} k={:<3} B={:<3} | {:>9} {:>10}",
        "config", "shards", "m", "n", "", "", "rps", "p50"
    );
    for p in points {
        println!(
            "{:>8} {:>6} | {:>5}x{:<5} k={:<3} B={:<3} | {:>7.1}/s {:>7.1} ms",
            p.config,
            p.shards,
            p.m,
            p.n,
            p.k,
            p.batch,
            p.rps,
            p.p50_us / 1e3
        );
    }
    println!(
        "failover: steady p50 {:.1} ms → first request after kill {:.1} ms → recovered p50 {:.1} ms",
        failover.steady_p50_us / 1e3,
        failover.first_after_kill_us / 1e3,
        failover.recovered_p50_us / 1e3
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny end-to-end smoke: all three configurations and the
    /// failover point measure and serialize.
    #[test]
    fn measures_and_serializes_small_points() {
        let w = operator(32, 32, 8);
        let points = vec![
            measure_single(&w, 2, 3),
            measure_sharded(&w, 2, 2, 3, "2-shard"),
        ];
        let failover = measure_failover(&w, 2, 3);
        assert!(points.iter().all(|p| p.rps > 0.0));
        assert!(failover.first_after_kill_us > 0.0);
        let json = to_json(&points, &failover);
        assert!(json.contains("\"config\": \"2-shard\""));
        assert!(json.contains("\"failover\""));
        assert!(json.contains("first_after_kill_us"));
    }
}
