//! Serving-layer trajectory: a one-tenant [`MultiServer`] pool with dynamic
//! batching versus one-request-per-call dispatch, across offered-load
//! points.
//!
//! Each point floods the tenant from `clients` concurrent closed-loop
//! client threads (each keeps a window of in-flight requests, so offered
//! load scales with the client count) and measures end-to-end request
//! throughput twice over the **same** operator:
//!
//! * **batched** — `max_batch = 32`: workers coalesce whatever is queued
//!   into `[B, n]` slabs for the one-sweep batched engine;
//! * **unbatched** — `max_batch = 1`: identical queue, handles and worker
//!   machinery, but every request is dispatched alone. This isolates the
//!   *batching* win from the server overhead itself.
//!
//! The `serve` binary wraps [`run`] and writes `BENCH_serve.json`.

use std::time::{Duration, Instant};

use circnn_core::BlockCirculantMatrix;
use circnn_serve::{MultiServer, ServeStats, TenantConfig, TenantHandle};
use circnn_tensor::init::seeded_rng;

/// One measured offered-load point.
#[derive(Debug, Clone)]
pub struct ServePoint {
    /// Output / input dimension and block size of the served operator.
    pub m: usize,
    /// Input dimension.
    pub n: usize,
    /// Circulant block size.
    pub k: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests issued per client.
    pub requests_per_client: usize,
    /// End-to-end requests/second with dynamic batching (`max_batch = 32`).
    pub batched_rps: f64,
    /// Requests/second with one-request-per-call dispatch (`max_batch = 1`).
    pub unbatched_rps: f64,
    /// Mean batch occupancy the policy achieved in the batched run.
    pub occupancy: f64,
    /// Mean request latency in the batched run, microseconds.
    pub batched_latency_us: f64,
    /// Mean request latency in the unbatched run, microseconds.
    pub unbatched_latency_us: f64,
}

impl ServePoint {
    /// Throughput gain of dynamic batching over per-request dispatch.
    pub fn speedup(&self) -> f64 {
        self.batched_rps / self.unbatched_rps
    }
}

/// Floods `tenant` from `clients` threads × `requests` each (window of 8
/// in-flight per client) and returns (wall seconds, final stats).
fn flood(tenant: &TenantHandle, n: usize, clients: usize, requests: usize) -> (f64, ServeStats) {
    const WINDOW: usize = 8;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            s.spawn(move || {
                let mut rng = seeded_rng(0xC11E47 + c as u64);
                let mut window = std::collections::VecDeque::new();
                for _ in 0..requests {
                    let x = circnn_tensor::init::uniform(&mut rng, &[n], -1.0, 1.0);
                    window.push_back(tenant.submit(x.data().to_vec()).expect("accepting"));
                    if window.len() >= WINDOW {
                        window
                            .pop_front()
                            .expect("window is non-empty")
                            .wait()
                            .expect("served");
                    }
                }
                for h in window {
                    h.wait().expect("served");
                }
            });
        }
    });
    let stats = tenant.stats().expect("the tenant stays registered");
    (t0.elapsed().as_secs_f64(), stats)
}

/// Measures one offered-load point over a fresh `(m, n, k)` operator.
pub fn measure(
    m: usize,
    n: usize,
    k: usize,
    clients: usize,
    requests_per_client: usize,
    workers: usize,
) -> ServePoint {
    let total = (clients * requests_per_client) as f64;
    let mk = || {
        BlockCirculantMatrix::random(&mut seeded_rng((m + n + k) as u64), m, n, k)
            .expect("valid shape")
    };
    let batched_cfg = TenantConfig {
        max_batch: 32,
        max_wait: Duration::from_micros(300),
        queue_capacity: 256,
        ..Default::default()
    };
    let unbatched_cfg = TenantConfig {
        max_batch: 1,
        max_wait: Duration::ZERO,
        queue_capacity: 256,
        ..Default::default()
    };
    // One mode: a fresh one-tenant pool, an untimed warm-up flood (sizes
    // every worker's workspace), then the timed flood. The stats are
    // cumulative, so the published occupancy/latency come from
    // before/after deltas of the timed flood only.
    let run = |cfg| {
        let pool = MultiServer::start(workers).expect("at least one worker");
        let tenant = pool.add_tenant(mk(), cfg).expect("valid config");
        let (_, before) = flood(&tenant, n, clients, 4.max(requests_per_client / 10));
        let (secs, after) = flood(&tenant, n, clients, requests_per_client);
        pool.shutdown();
        let requests = (after.requests - before.requests).max(1) as f64;
        let occupancy = requests / (after.batches - before.batches).max(1) as f64;
        let latency_sum_us = after.mean_latency_us * after.requests as f64
            - before.mean_latency_us * before.requests as f64;
        (total / secs, occupancy, latency_sum_us / requests)
    };
    let (batched_rps, occupancy, batched_latency_us) = run(batched_cfg);
    let (unbatched_rps, _, unbatched_latency_us) = run(unbatched_cfg);

    ServePoint {
        m,
        n,
        k,
        clients,
        requests_per_client,
        batched_rps,
        unbatched_rps,
        occupancy,
        batched_latency_us,
        unbatched_latency_us,
    }
}

/// Offered-load grid: client counts around and past `max_batch`.
pub fn grid(quick: bool) -> Vec<(usize, usize)> {
    // (clients, requests per client)
    if quick {
        vec![(4, 64), (16, 32)]
    } else {
        vec![(2, 512), (8, 256), (32, 128)]
    }
}

/// Runs the whole trajectory on the headline `(512, 512, 16)` operator.
pub fn run(quick: bool) -> Vec<ServePoint> {
    let workers = if circnn_core::default_batch_threads() > 1 {
        2
    } else {
        1
    };
    grid(quick)
        .into_iter()
        .map(|(c, r)| measure(512, 512, 16, c, r, workers))
        .collect()
}

/// Renders the points as the `BENCH_serve.json` trajectory document.
pub fn to_json(points: &[ServePoint]) -> String {
    let mut out = String::from(
        "{\n  \"bench\": \"serve_throughput\",\n  \"unit\": \"requests_per_second\",\n  \"points\": [\n",
    );
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"m\": {}, \"n\": {}, \"k\": {}, \"clients\": {}, \
             \"requests_per_client\": {}, \"batched_rps\": {:.0}, \
             \"unbatched_rps\": {:.0}, \"speedup\": {:.2}, \"occupancy\": {:.1}, \
             \"batched_latency_us\": {:.0}, \"unbatched_latency_us\": {:.0}}}{}\n",
            p.m,
            p.n,
            p.k,
            p.clients,
            p.requests_per_client,
            p.batched_rps,
            p.unbatched_rps,
            p.speedup(),
            p.occupancy,
            p.batched_latency_us,
            p.unbatched_latency_us,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints a human-readable table.
pub fn print(points: &[ServePoint]) {
    println!(
        "{:>7} {:>8} | {:>12} {:>12} {:>7} | {:>9} {:>12} {:>12}",
        "clients", "reqs", "batched", "unbatched", "spdup", "occup", "lat(batch)", "lat(single)"
    );
    for p in points {
        println!(
            "{:>7} {:>8} | {:>8.0} r/s {:>8.0} r/s {:>6.2}x | {:>9.1} {:>9.0} µs {:>9.0} µs",
            p.clients,
            p.clients * p.requests_per_client,
            p.batched_rps,
            p.unbatched_rps,
            p.speedup(),
            p.occupancy,
            p.batched_latency_us,
            p.unbatched_latency_us,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_serializes_a_small_point() {
        let p = measure(64, 64, 8, 2, 12, 1);
        assert!(p.batched_rps > 0.0 && p.unbatched_rps > 0.0);
        let json = to_json(std::slice::from_ref(&p));
        assert!(json.contains("\"clients\": 2"));
        assert!(json.contains("speedup"));
    }
}
