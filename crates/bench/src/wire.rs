//! Front-end connection sweep: one small tenant served from 16 up to 4096
//! concurrent TCP connections.
//!
//! Each point starts a real [`circnn_wire::EventServer`] over a
//! [`circnn_wire::ModelRegistry`] holding one 64×64 block-circulant
//! operator, opens `conns` connections, and drives every one of them as a
//! closed loop with one request in flight, reporting throughput and
//! client-observed p99 latency at each count. Connection set-up is timed
//! on its own (`connect_s`): the measured window opens only after every
//! connection has been accepted and has answered a `ping`.
//!
//! Steady-state serving at a handful of connections is the repo
//! benchmark's job (`benchmark/`, workloads `fc-wire-closed` and
//! `fc-wire-interactive`); connection-count scaling is out of its scope by
//! its sizing rule, which is why this sweep survives here.
//!
//! The `wire` binary wraps [`run_sweep`] and writes `BENCH_wire.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use circnn_core::BlockCirculantMatrix;
use circnn_serve::TenantConfig;
use circnn_tensor::init::seeded_rng;
use circnn_wire::{ClientConfig, EventConfig, EventServer, ModelRegistry, WireClient};

/// Connections opened per wave: std's `listen(2)` backlog. A burst of
/// more SYNs than that overflows the accept queue, and the one SYN
/// retransmit that follows costs a full second.
const CONNECT_WAVE: usize = 128;

/// One measured connection-sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Concurrent TCP connections held open for the whole window.
    pub conns: usize,
    /// Closed-loop requests issued per connection.
    pub requests_per_conn: usize,
    /// Seconds spent opening the connections and confirming each one
    /// accepted, before the measured window opened.
    pub connect_s: f64,
    /// Replies received inside the window (one latency sample each).
    pub replies: usize,
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
        // Thousands of connections share one accept loop and one worker —
        // be patient, don't flake.
        connect_timeout: Some(Duration::from_secs(30)),
        read_timeout: Some(Duration::from_secs(60)),
        write_timeout: Some(Duration::from_secs(60)),
        retries: 0,
        ..Default::default()
    }
}

/// Opens `conns` connections in waves of at most [`CONNECT_WAVE`]. A wave
/// is the barrier: every connection of it answers a `ping` — proof the
/// server accepted and registered it — before the next wave's first SYN.
fn connect_all(addr: std::net::SocketAddr, conns: usize) -> Vec<WireClient> {
    let mut clients: Vec<WireClient> = Vec::with_capacity(conns);
    while clients.len() < conns {
        let start = clients.len();
        for _ in start..conns.min(start + CONNECT_WAVE) {
            clients.push(
                WireClient::connect_with(addr, sweep_client_config()).expect("sweep connect"),
            );
        }
        for wire in &mut clients[start..] {
            wire.ping().expect("sweep ping");
        }
    }
    clients
}

/// Drives `conns` closed-loop connections (one request in flight each)
/// from a fixed pool of client threads and returns `(connect_s, secs,
/// latencies_us)`. The window opens once every connection is established.
fn sweep_flood(
    addr: std::net::SocketAddr,
    conns: usize,
    requests_per_conn: usize,
) -> (f64, f64, Vec<f64>) {
    const CLIENT_THREADS: usize = 8;
    let c0 = Instant::now();
    let mut clients = connect_all(addr, conns);
    let connect_s = c0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let latencies_us: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .chunks_mut(conns.div_ceil(CLIENT_THREADS))
            .enumerate()
            .map(|(ct, clients)| {
                s.spawn(move || {
                    let mut rng = seeded_rng(0xFEED + ct as u64);
                    let mut lats = Vec::with_capacity(clients.len() * requests_per_conn);
                    let mut stamps = vec![t0; clients.len()];
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
    (connect_s, t0.elapsed().as_secs_f64(), latencies_us)
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
    let (connect_s, secs, mut latencies_us) = sweep_flood(addr, conns, requests_per_conn);
    server.shutdown();
    latencies_us.sort_by(|a, b| a.total_cmp(b));
    let p99 =
        latencies_us[((latencies_us.len() as f64 * 0.99) as usize).min(latencies_us.len() - 1)];
    SweepPoint {
        conns,
        requests_per_conn,
        connect_s,
        replies: latencies_us.len(),
        event_rps: latencies_us.len() as f64 / secs,
        event_p99_us: p99,
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

/// Renders the connection sweep as the `BENCH_wire.json` document.
pub fn to_json(sweep: &[SweepPoint]) -> String {
    let mut out = String::from(
        "{\n  \"bench\": \"wire_connection_sweep\",\n  \"unit\": \"requests_per_second\",\n  \"sweep\": [\n",
    );
    for (i, p) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"conns\": {}, \"requests_per_conn\": {}, \"connect_s\": {:.3}, \
             \"event_rps\": {:.0}, \"event_p99_us\": {:.0}}}{}\n",
            p.conns,
            p.requests_per_conn,
            p.connect_s,
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
        "{:>7} {:>8} | {:>9} | {:>12} {:>12}",
        "conns", "reqs", "connect", "throughput", "p99"
    );
    for p in sweep {
        println!(
            "{:>7} {:>8} | {:>7.3} s | {:>8.0} r/s {:>9.0} µs",
            p.conns, p.replies, p.connect_s, p.event_rps, p.event_p99_us,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_a_sweep_point() {
        let p = SweepPoint {
            conns: 8,
            requests_per_conn: 4,
            connect_s: 0.25,
            replies: 32,
            event_rps: 1234.0,
            event_p99_us: 567.0,
        };
        let json = to_json(std::slice::from_ref(&p));
        assert!(json.contains("\"sweep\""));
        assert!(json.contains("\"conns\": 8"));
        assert!(json.contains("\"connect_s\": 0.250"));
        assert!(json.contains("event_p99_us"));
    }
}
