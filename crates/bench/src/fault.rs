//! Everything that is not steady state: overload behavior —
//! client-observed latency and shed rate under 1×/2×/4× offered load for
//! each [`OverloadPolicy`] — and the latency cost of a shard-replica
//! failover. Steady-state numbers belong to the repo benchmark
//! (`benchmark/`); neither experiment here has a named metric there.
//!
//! The server is a one-worker, one-tenant pool running a fixed-cost model
//! (a calibrated sleep per dispatch), so its capacity is known exactly. An
//! **open-loop** submitter offers requests on a fixed schedule — like real
//! ingress traffic, it does not slow down because the server is behind —
//! and every request's latency is measured from its *scheduled* arrival
//! time, so time a blocked submitter spends parked counts against the
//! policy that parked it.
//!
//! The trajectory this reproduces is the PR's acceptance criterion:
//!
//! * `Block` — admission waits for queue space. At 4× overload the
//!   backlog (and with it p99 latency) grows without bound for as long as
//!   the run lasts; nothing is shed.
//! * `Reject` — admission fails fast once the queue is full. Completed
//!   requests keep a bounded p99 (≤ queue depth × service time); the
//!   excess load surfaces as a ~75 % shed rate at 4×.
//! * `ShedOldest` — admission evicts the stalest queued request. Same
//!   bounded p99, same shed rate, but the *newest* requests survive —
//!   the right trade when stale answers are worthless.
//!
//! The failover experiment ([`measure_failover`]) serves one operator
//! from a 2-shard cluster with two replicas per shard through a
//! [`ShardRouter`], kills shard 0's primary mid-run, and reports the
//! first request after the kill against the steady and recovered medians;
//! every reply is checked bitwise against the in-process kernel.
//!
//! The `fault` binary wraps [`run`] and writes `BENCH_fault.json`.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use circnn_core::{BlockCirculantMatrix, Workspace};
use circnn_serve::{MultiServer, OverloadPolicy, ServeError, ServeModel, TenantConfig};
use circnn_shard::topology::{segment_ranges, split_operator, ClusterSpec, ShardSpec};
use circnn_shard::{RouterConfig, ShardRouter};
use circnn_tensor::init::seeded_rng;
use circnn_wire::{ClientConfig, EventConfig, EventServer, ModelRegistry};

/// Fixed-cost model: sleeps `delay` per dispatch, then echoes. With
/// `max_batch = 1` the server's capacity is exactly `1 / delay`.
struct FixedCost {
    len: usize,
    delay: Duration,
}

impl ServeModel for FixedCost {
    type Scratch = ();
    fn make_scratch(&self) {}
    fn input_len(&self) -> usize {
        self.len
    }
    fn output_len(&self) -> usize {
        self.len
    }
    fn infer_batch(&self, x: &[f32], _batch: usize, _scratch: &mut (), out: &mut [f32]) {
        std::thread::sleep(self.delay);
        out.copy_from_slice(x);
    }
}

/// One measured (policy, overload) point.
#[derive(Debug, Clone)]
pub struct FaultPoint {
    /// Overload policy under test.
    pub policy: OverloadPolicy,
    /// Offered load as a multiple of server capacity (1, 2, 4).
    pub overload: u32,
    /// Offered request rate, requests/second.
    pub offered_rps: f64,
    /// Requests that completed with a result.
    pub completed: u64,
    /// Requests shed from the queue (`ShedOldest`).
    pub shed: u64,
    /// Requests refused at admission (`Reject`).
    pub rejected: u64,
    /// Median completed-request latency from *scheduled* arrival, µs.
    pub p50_us: f64,
    /// 99th-percentile completed-request latency, µs.
    pub p99_us: f64,
}

impl FaultPoint {
    /// Fraction of offered requests that were shed or rejected.
    pub fn shed_rate(&self) -> f64 {
        let total = self.completed + self.shed + self.rejected;
        if total == 0 {
            0.0
        } else {
            (self.shed + self.rejected) as f64 / total as f64
        }
    }
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

fn policy_name(p: OverloadPolicy) -> &'static str {
    match p {
        OverloadPolicy::Block => "block",
        OverloadPolicy::Reject => "reject",
        OverloadPolicy::ShedOldest => "shed_oldest",
    }
}

/// Offers `requests` requests at `overload ×` the server's capacity under
/// `policy` and measures the outcome mix and completed-request latency.
pub fn measure(
    policy: OverloadPolicy,
    overload: u32,
    requests: u64,
    service_time: Duration,
) -> FaultPoint {
    const LEN: usize = 8;
    let pool = MultiServer::start(1).expect("one worker");
    let tenant = pool
        .add_tenant(
            FixedCost {
                len: LEN,
                delay: service_time,
            },
            TenantConfig {
                max_batch: 1,
                max_wait: Duration::ZERO,
                queue_capacity: 32,
                overload: policy,
            },
        )
        .expect("valid config");

    let interval = service_time / overload;
    let offered_rps = 1.0 / interval.as_secs_f64();
    let (tx, rx) = mpsc::channel::<(Instant, circnn_serve::ResponseHandle)>();
    let mut rejected = 0u64;

    // Collector: waits out every admitted request and tallies outcomes.
    // Completions arrive in admission order (single FIFO worker), so a
    // serial drain observes each fulfillment promptly.
    let collector = std::thread::spawn(move || {
        let (mut completed, mut shed, mut latencies) = (0u64, 0u64, Vec::new());
        for (scheduled, handle) in rx {
            match handle.wait() {
                Ok(_) => {
                    completed += 1;
                    latencies.push(scheduled.elapsed().as_secs_f64() * 1e6);
                }
                Err(ServeError::Overloaded) => shed += 1,
                Err(e) => panic!("unexpected serve error: {e}"),
            }
        }
        (completed, shed, latencies)
    });

    // Open-loop submitter: request i is *due* at `t0 + i × interval`
    // regardless of server progress; lateness caused by a blocking
    // admission is charged to the request's latency.
    let t0 = Instant::now();
    for i in 0..requests {
        let due = t0 + interval * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        match tenant.submit(vec![0.25; LEN]) {
            Ok(handle) => tx.send((due, handle)).expect("collector alive"),
            Err(ServeError::Overloaded) => rejected += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    drop(tx);
    let (completed, shed, mut latencies) = collector.join().expect("collector");
    pool.shutdown();
    let stats = tenant.stats().expect("the tenant stays registered");
    debug_assert_eq!(stats.shed, shed, "server-side shed count agrees");
    debug_assert_eq!(stats.rejected, rejected, "server-side reject count");

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    FaultPoint {
        policy,
        overload,
        offered_rps,
        completed,
        shed,
        rejected,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
    }
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

/// The failover experiment: an `m × n` operator (block size `k`) row-split
/// over a 2-shard cluster, two replicas per shard, behind an in-process
/// [`ShardRouter`]. `requests` batches of `batch` rows run before shard
/// 0's primary is killed, one right after, and `requests` more once the
/// router has failed over.
///
/// # Panics
///
/// Panics if any reply differs from [`BlockCirculantMatrix::matmat`] by a
/// single bit — a failover that serves wrong rows is not a latency.
pub fn measure_failover(
    m: usize,
    n: usize,
    k: usize,
    batch: usize,
    requests: usize,
) -> FailoverPoint {
    let w = BlockCirculantMatrix::random(&mut seeded_rng(4242), m, n, k).expect("valid shape");
    let slices = split_operator(&w, 2).expect("splittable");
    let mut servers: Vec<Vec<EventServer>> = Vec::new();
    let mut spec = ClusterSpec { shards: Vec::new() };
    for slice in &slices {
        let replicas: Vec<EventServer> = (0..2)
            .map(|_| {
                let registry = Arc::new(ModelRegistry::new(2).expect("pool"));
                registry
                    .add_segment("op", slice.clone(), TenantConfig::default())
                    .expect("register segment");
                EventServer::bind("127.0.0.1:0", registry, EventConfig::default()).expect("bind")
            })
            .collect();
        spec.shards.push(ShardSpec {
            replicas: replicas.iter().map(EventServer::local_addr).collect(),
        });
        servers.push(replicas);
    }
    let config = RouterConfig {
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
    };
    let router = ShardRouter::new(&spec, config).expect("router");
    router
        .add_sharded_model("op", n, &segment_ranges(&slices))
        .expect("register");

    // One routed request, timed; the bitwise check stays outside the
    // timed span.
    let mut ws = Workspace::new();
    let mut serve = |seed: u64| -> f64 {
        let x = circnn_tensor::init::uniform(&mut seeded_rng(seed), &[batch * n], -1.0, 1.0);
        let t = Instant::now();
        let served = router
            .infer_batch("op", batch, x.data(), None)
            .expect("serve");
        let us = t.elapsed().as_secs_f64() * 1e6;
        let direct: Vec<f32> = x
            .data()
            .chunks(n)
            .flat_map(|row| w.matmat(row, 1, &mut ws).expect("matmat"))
            .collect();
        assert_eq!(served, direct, "routed batch must be bitwise-exact");
        us
    };
    let mut steady: Vec<f64> = (0..requests).map(|i| serve(2000 + i as u64)).collect();
    // Kill shard 0's primary, then measure the very next request — it
    // pays the dead-connection detection plus the failover retry.
    servers[0].remove(0).shutdown();
    let first_after_kill_us = serve(3000);
    let mut recovered: Vec<f64> = (0..requests).map(|i| serve(4000 + i as u64)).collect();

    router.drain_pools();
    for server in servers.into_iter().flatten() {
        server.shutdown();
    }
    steady.sort_by(|a, b| a.total_cmp(b));
    recovered.sort_by(|a, b| a.total_cmp(b));
    FailoverPoint {
        steady_p50_us: percentile(&steady, 0.50),
        first_after_kill_us,
        recovered_p50_us: percentile(&recovered, 0.50),
    }
}

/// Runs the full policy × overload grid, then the failover experiment.
pub fn run(quick: bool) -> (Vec<FaultPoint>, FailoverPoint) {
    let (requests, service_time) = if quick {
        (240, Duration::from_millis(1))
    } else {
        (1500, Duration::from_millis(2))
    };
    let mut points = Vec::new();
    for policy in [
        OverloadPolicy::Block,
        OverloadPolicy::Reject,
        OverloadPolicy::ShedOldest,
    ] {
        for overload in [1u32, 2, 4] {
            points.push(measure(policy, overload, requests, service_time));
        }
    }
    let failover = if quick {
        measure_failover(128, 128, 16, 4, 10)
    } else {
        measure_failover(512, 512, 16, 8, 60)
    };
    (points, failover)
}

/// Renders the points and the failover summary as the `BENCH_fault.json`
/// document.
pub fn to_json(points: &[FaultPoint], failover: &FailoverPoint) -> String {
    let mut out = String::from(
        "{\n  \"bench\": \"fault_overload\",\n  \"unit\": \"microseconds\",\n  \"points\": [\n",
    );
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"policy\": \"{}\", \"overload\": {}, \"offered_rps\": {:.0}, \
             \"completed\": {}, \"shed\": {}, \"rejected\": {}, \
             \"shed_rate\": {:.3}, \"p50_us\": {:.0}, \"p99_us\": {:.0}}}{}\n",
            policy_name(p.policy),
            p.overload,
            p.offered_rps,
            p.completed,
            p.shed,
            p.rejected,
            p.shed_rate(),
            p.p50_us,
            p.p99_us,
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
pub fn print(points: &[FaultPoint], failover: &FailoverPoint) {
    println!(
        "{:>11} {:>4} | {:>9} {:>9} {:>5} {:>5} {:>6} | {:>10} {:>10}",
        "policy", "load", "offered", "done", "shed", "rej", "rate", "p50", "p99"
    );
    for p in points {
        println!(
            "{:>11} {:>3}x | {:>5.0} r/s {:>9} {:>5} {:>5} {:>5.0}% | {:>7.1} ms {:>7.1} ms",
            policy_name(p.policy),
            p.overload,
            p.offered_rps,
            p.completed,
            p.shed,
            p.rejected,
            p.shed_rate() * 100.0,
            p.p50_us / 1e3,
            p.p99_us / 1e3,
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

    /// A small point per policy: every offered request is accounted for,
    /// and the JSON carries the acceptance-relevant fields.
    #[test]
    fn measures_and_serializes_small_points() {
        let points: Vec<_> = [
            OverloadPolicy::Block,
            OverloadPolicy::Reject,
            OverloadPolicy::ShedOldest,
        ]
        .into_iter()
        .map(|p| measure(p, 4, 60, Duration::from_millis(1)))
        .collect();
        for p in &points {
            assert_eq!(p.completed + p.shed + p.rejected, 60, "{p:?}");
        }
        // Block never sheds; the bounded policies must under 4× load.
        assert_eq!(points[0].shed + points[0].rejected, 0);
        assert!(points[1].rejected > 0, "{:?}", points[1]);
        assert!(points[2].shed > 0, "{:?}", points[2]);
        let failover = measure_failover(32, 32, 8, 2, 3);
        assert!(failover.first_after_kill_us > 0.0);
        let json = to_json(&points, &failover);
        assert!(json.contains("\"policy\": \"block\""));
        assert!(json.contains("\"p99_us\""));
        assert!(json.contains("\"shed_rate\""));
        assert!(json.contains("\"failover\""));
        assert!(json.contains("first_after_kill_us"));
    }
}
