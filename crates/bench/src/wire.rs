//! Wire-serving trajectory: batched network serving versus
//! one-request-per-connection dispatch, across concurrent connections and
//! tenant counts.
//!
//! Each point starts a real [`circnn_wire::EventServer`] over a
//! [`circnn_wire::ModelRegistry`] holding `tenants` independent 512×512
//! block-circulant operators, floods it from `clients` TCP connections
//! (each a closed loop keeping `WINDOW` pipelined requests in flight,
//! spread round-robin over the tenants), and measures end-to-end request
//! throughput twice:
//!
//! * **batched** — tenant policy `max_batch = 32`: the shared worker pool
//!   coalesces traffic from all connections into `[B, n]` slabs;
//! * **unbatched** — identical sockets, frames, queues and workers, but
//!   `max_batch = 1`: every request is dispatched alone, isolating the
//!   batching win from the wire overhead itself.
//!
//! A second axis measures the **front end** itself: the connection sweep
//! ([`run_sweep`]) serves one small tenant from 16 up to 4096 concurrent
//! connections, reporting throughput and client-observed p99 latency at
//! each count. The measured window deliberately includes connection
//! setup — at 10k-connection scale, accepting is serving.
//!
//! The `wire` binary wraps [`run`] + [`run_sweep`] and writes
//! `BENCH_wire.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use circnn_core::BlockCirculantMatrix;
use circnn_serve::{ServeStats, TenantConfig};
use circnn_tensor::init::seeded_rng;
use circnn_wire::{ClientConfig, EventConfig, EventServer, ModelRegistry, WireClient};

/// Pipelined requests kept in flight per connection.
const WINDOW: usize = 8;

/// One measured offered-load point.
#[derive(Debug, Clone)]
pub struct WirePoint {
    /// Registered models (tenants), each its own queue and stats.
    pub tenants: usize,
    /// Concurrent TCP client connections.
    pub clients: usize,
    /// Requests issued per connection.
    pub requests_per_client: usize,
    /// End-to-end requests/second with dynamic batching (`max_batch = 32`).
    pub batched_rps: f64,
    /// Requests/second with one-request-per-connection dispatch
    /// (`max_batch = 1`).
    pub unbatched_rps: f64,
    /// Mean batch occupancy achieved in the batched run (all tenants).
    pub occupancy: f64,
    /// Mean request latency in the batched run, microseconds (server
    /// side: enqueue → completion).
    pub batched_latency_us: f64,
    /// Mean request latency in the unbatched run, microseconds.
    pub unbatched_latency_us: f64,
}

impl WirePoint {
    /// Throughput gain of batched wire serving over per-request dispatch.
    pub fn speedup(&self) -> f64 {
        self.batched_rps / self.unbatched_rps
    }
}

/// Sums per-tenant stats into `(requests, batches, latency_sum_us)`.
fn totals(stats: &[ServeStats]) -> (u64, u64, f64) {
    let requests = stats.iter().map(|s| s.requests).sum();
    let batches = stats.iter().map(|s| s.batches).sum();
    let latency_sum = stats
        .iter()
        .map(|s| s.mean_latency_us * s.requests as f64)
        .sum();
    (requests, batches, latency_sum)
}

/// Floods the server from `clients` connections × `requests` each and
/// returns the wall-clock seconds.
fn flood(addr: std::net::SocketAddr, tenants: usize, clients: usize, requests: usize) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            s.spawn(move || {
                let model = format!("m{}", c % tenants);
                let mut wire = WireClient::connect(addr).expect("connect");
                let mut rng = seeded_rng(0xA11CE + c as u64);
                let mut in_flight = 0usize;
                for _ in 0..requests {
                    let x = circnn_tensor::init::uniform(&mut rng, &[512], -1.0, 1.0);
                    wire.send_infer(&model, x.data(), None).expect("send");
                    in_flight += 1;
                    if in_flight >= WINDOW {
                        wire.recv_infer().expect("recv");
                        in_flight -= 1;
                    }
                }
                for _ in 0..in_flight {
                    wire.recv_infer().expect("recv");
                }
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

/// Measures one `(tenants, clients)` point in one batching mode.
fn run_mode(
    tenants: usize,
    clients: usize,
    requests_per_client: usize,
    workers: usize,
    max_batch: usize,
) -> (f64, f64, f64) {
    let registry = Arc::new(ModelRegistry::new(workers).expect("valid worker count"));
    let cfg = TenantConfig {
        max_batch,
        max_wait: if max_batch > 1 {
            Duration::from_micros(300)
        } else {
            Duration::ZERO
        },
        queue_capacity: 256,
        ..Default::default()
    };
    for t in 0..tenants {
        let w = BlockCirculantMatrix::random(&mut seeded_rng(41 + t as u64), 512, 512, 16)
            .expect("valid shape");
        registry
            .add_model(&format!("m{t}"), w, cfg.clone())
            .expect("fresh name");
    }
    let server = EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default())
        .expect("bind ephemeral port");
    let addr = server.local_addr();
    // Warm-up sizes every worker scratch and client buffer.
    flood(addr, tenants, clients, 4.max(requests_per_client / 10));
    let names: Vec<String> = (0..tenants).map(|t| format!("m{t}")).collect();
    let before: Vec<ServeStats> = names
        .iter()
        .map(|n| registry.stats(n).expect("registered"))
        .collect();
    let secs = flood(addr, tenants, clients, requests_per_client);
    let after: Vec<ServeStats> = names
        .iter()
        .map(|n| registry.stats(n).expect("registered"))
        .collect();
    server.shutdown();
    let (req_b, bat_b, lat_b) = totals(&before);
    let (req_a, bat_a, lat_a) = totals(&after);
    let requests = (req_a - req_b).max(1) as f64;
    let rps = (clients * requests_per_client) as f64 / secs;
    let occupancy = requests / (bat_a - bat_b).max(1) as f64;
    let latency_us = (lat_a - lat_b) / requests;
    (rps, occupancy, latency_us)
}

/// Measures one offered-load point in both modes.
pub fn measure(
    tenants: usize,
    clients: usize,
    requests_per_client: usize,
    workers: usize,
) -> WirePoint {
    let (batched_rps, occupancy, batched_latency_us) =
        run_mode(tenants, clients, requests_per_client, workers, 32);
    let (unbatched_rps, _, unbatched_latency_us) =
        run_mode(tenants, clients, requests_per_client, workers, 1);
    WirePoint {
        tenants,
        clients,
        requests_per_client,
        batched_rps,
        unbatched_rps,
        occupancy,
        batched_latency_us,
        unbatched_latency_us,
    }
}

/// The measured grid: connection counts around and past the slab width,
/// at one and two tenants. Every grid includes the ≥ 8-connection point
/// the acceptance criteria pin.
pub fn grid(quick: bool) -> Vec<(usize, usize, usize)> {
    // (tenants, clients, requests per client)
    if quick {
        vec![(1, 8, 48), (2, 8, 48)]
    } else {
        vec![
            (1, 2, 256),
            (1, 8, 192),
            (1, 16, 128),
            (2, 8, 192),
            (2, 16, 128),
        ]
    }
}

/// Runs the whole trajectory on the headline 512×512, k = 16 operator.
pub fn run(quick: bool) -> Vec<WirePoint> {
    let workers = if circnn_core::default_batch_threads() > 1 {
        2
    } else {
        1
    };
    grid(quick)
        .into_iter()
        .map(|(t, c, r)| measure(t, c, r, workers))
        .collect()
}

/// One measured connection-sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Concurrent TCP connections held open for the whole window.
    pub conns: usize,
    /// Closed-loop requests issued per connection.
    pub requests_per_conn: usize,
    /// Requests/second through the front end.
    pub event_rps: f64,
    /// Client-observed p99 request latency, µs.
    pub event_p99_us: f64,
}

/// The sweep tenant: a small 64×64 operator, so the measurement weighs
/// the front end (sockets, readiness, wakeups) rather than the matvec.
fn sweep_registry() -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new(1).expect("valid worker count"));
    let w = BlockCirculantMatrix::random(&mut seeded_rng(97), 64, 64, 16).expect("valid shape");
    registry
        .add_model(
            "m0",
            w,
            TenantConfig {
                max_batch: 32,
                max_wait: Duration::from_micros(300),
                queue_capacity: 256,
                ..Default::default()
            },
        )
        .expect("fresh name");
    registry
}

fn sweep_client_config() -> ClientConfig {
    ClientConfig {
        // At 4096 concurrent connects the accept side may lag (that lag
        // is part of what the sweep measures) — be patient, don't flake.
        connect_timeout: Some(Duration::from_secs(30)),
        read_timeout: Some(Duration::from_secs(60)),
        write_timeout: Some(Duration::from_secs(60)),
        retries: 0,
        ..Default::default()
    }
}

/// Drives `conns` closed-loop connections (one request in flight each)
/// from a fixed pool of client threads and returns `(secs, p99_us)`.
/// The window opens before the first connect: connection setup cost is
/// front-end work and is charged to the front end.
fn sweep_flood(addr: std::net::SocketAddr, conns: usize, requests_per_conn: usize) -> (f64, f64) {
    const CLIENT_THREADS: usize = 8;
    let per_thread = conns.div_ceil(CLIENT_THREADS);
    let t0 = Instant::now();
    let mut latencies_us: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|ct| {
                s.spawn(move || {
                    let own = per_thread.min(conns.saturating_sub(ct * per_thread));
                    let mut clients: Vec<WireClient> = (0..own)
                        .map(|_| {
                            WireClient::connect_with(addr, sweep_client_config())
                                .expect("sweep connect")
                        })
                        .collect();
                    let mut rng = seeded_rng(0xFEED + ct as u64);
                    let mut lats = Vec::with_capacity(own * requests_per_conn);
                    let mut stamps = vec![t0; own];
                    for _ in 0..requests_per_conn {
                        for (i, wire) in clients.iter_mut().enumerate() {
                            let x = circnn_tensor::init::uniform(&mut rng, &[64], -1.0, 1.0);
                            stamps[i] = Instant::now();
                            wire.send_infer("m0", x.data(), None).expect("sweep send");
                        }
                        for (i, wire) in clients.iter_mut().enumerate() {
                            wire.recv_infer().expect("sweep recv");
                            lats.push(stamps[i].elapsed().as_secs_f64() * 1e6);
                        }
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep client thread"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    latencies_us.sort_by(|a, b| a.total_cmp(b));
    let p99 =
        latencies_us[((latencies_us.len() as f64 * 0.99) as usize).min(latencies_us.len() - 1)];
    (secs, p99)
}

/// Measures the front end at one connection count.
pub fn measure_sweep(conns: usize, requests_per_conn: usize) -> SweepPoint {
    let registry = sweep_registry();
    let server = EventServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        EventConfig {
            max_connections: conns + 16,
            ..Default::default()
        },
    )
    .expect("bind event server");
    let addr = server.local_addr();
    // Warm-up outside the window: worker scratch, client buffers, pools.
    sweep_flood(addr, 8.min(conns), 16);
    let (secs, event_p99_us) = sweep_flood(addr, conns, requests_per_conn);
    server.shutdown();
    SweepPoint {
        conns,
        requests_per_conn,
        event_rps: (conns * requests_per_conn) as f64 / secs,
        event_p99_us,
    }
}

/// The sweep grid: connection counts from a handful to thousands. The
/// request total stays roughly constant so every point finishes in
/// comparable wall time.
pub fn sweep_grid(quick: bool) -> Vec<(usize, usize)> {
    let conns: &[usize] = if quick {
        &[16, 256]
    } else {
        &[16, 256, 1024, 4096]
    };
    let budget = if quick { 2048 } else { 8192 };
    conns.iter().map(|&c| (c, (budget / c).max(2))).collect()
}

/// Runs the connection sweep.
pub fn run_sweep(quick: bool) -> Vec<SweepPoint> {
    sweep_grid(quick)
        .into_iter()
        .map(|(c, r)| measure_sweep(c, r))
        .collect()
}

/// Renders the batching points plus the connection sweep as the
/// `BENCH_wire.json` trajectory document.
pub fn to_json(points: &[WirePoint], sweep: &[SweepPoint]) -> String {
    let mut out = String::from(
        "{\n  \"bench\": \"wire_throughput\",\n  \"unit\": \"requests_per_second\",\n  \"points\": [\n",
    );
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"tenants\": {}, \"clients\": {}, \"requests_per_client\": {}, \
             \"window\": {WINDOW}, \"batched_rps\": {:.0}, \"unbatched_rps\": {:.0}, \
             \"speedup\": {:.2}, \"occupancy\": {:.1}, \
             \"batched_latency_us\": {:.0}, \"unbatched_latency_us\": {:.0}}}{}\n",
            p.tenants,
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
    out.push_str("  ],\n  \"sweep\": [\n");
    for (i, p) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"conns\": {}, \"requests_per_conn\": {}, \
             \"event_rps\": {:.0}, \"event_p99_us\": {:.0}}}{}\n",
            p.conns,
            p.requests_per_conn,
            p.event_rps,
            p.event_p99_us,
            if i + 1 == sweep.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints the connection sweep as a human-readable table.
pub fn print_sweep(sweep: &[SweepPoint]) {
    println!(
        "\n{:>7} {:>8} | {:>12} {:>12}",
        "conns", "reqs", "throughput", "p99"
    );
    for p in sweep {
        println!(
            "{:>7} {:>8} | {:>8.0} r/s {:>9.0} µs",
            p.conns,
            p.conns * p.requests_per_conn,
            p.event_rps,
            p.event_p99_us,
        );
    }
}

/// Prints a human-readable table.
pub fn print(points: &[WirePoint]) {
    println!(
        "{:>7} {:>7} {:>8} | {:>12} {:>12} {:>7} | {:>9} {:>12} {:>12}",
        "tenants",
        "conns",
        "reqs",
        "batched",
        "unbatched",
        "spdup",
        "occup",
        "lat(batch)",
        "lat(single)"
    );
    for p in points {
        println!(
            "{:>7} {:>7} {:>8} | {:>8.0} r/s {:>8.0} r/s {:>6.2}x | {:>9.1} {:>9.0} µs {:>9.0} µs",
            p.tenants,
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
        let p = measure(2, 4, 12, 1);
        assert!(p.batched_rps > 0.0 && p.unbatched_rps > 0.0);
        let s = measure_sweep(8, 4);
        assert!(s.event_rps > 0.0 && s.event_p99_us > 0.0);
        let json = to_json(std::slice::from_ref(&p), std::slice::from_ref(&s));
        assert!(json.contains("\"tenants\": 2"));
        assert!(json.contains("speedup"));
        assert!(json.contains("\"sweep\""));
        assert!(json.contains("event_p99_us"));
    }
}
