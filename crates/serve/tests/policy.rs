//! Batching-policy edge cases on a one-tenant pool: the work-conserving
//! flush (idle pool, deep queue, busy sibling worker), oversize splits, backpressure, shutdown drains, panic
//! quarantine, overload policies, and the bit-identity guarantee the
//! whole design rests on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use circnn_core::{BlockCirculantMatrix, Workspace};
use circnn_nn::{Layer, Linear, Relu, Sequential};
use circnn_serve::{
    MultiServer, OverloadPolicy, SequentialModel, ServeError, ServeModel, ServeStats, TenantConfig,
    TenantHandle,
};
use circnn_tensor::init::seeded_rng;

fn operator(m: usize, n: usize, k: usize, seed: u64) -> BlockCirculantMatrix {
    BlockCirculantMatrix::random(&mut seeded_rng(seed), m, n, k).expect("valid shape")
}

/// A `workers`-wide pool serving `model` as its only tenant.
fn serve<M: ServeModel>(
    model: Arc<M>,
    workers: usize,
    cfg: TenantConfig,
) -> (MultiServer, TenantHandle) {
    let pool = MultiServer::start(workers).unwrap();
    let tenant = pool.add_tenant_shared(model, cfg).unwrap();
    (pool, tenant)
}

/// Drains and joins the pool, then reads the tenant's final statistics.
fn shutdown(pool: MultiServer, tenant: &TenantHandle) -> ServeStats {
    pool.shutdown();
    tenant.stats().unwrap()
}

fn request(n: usize, seed: u64) -> Vec<f32> {
    circnn_tensor::init::uniform(&mut seeded_rng(seed), &[n], -1.0, 1.0)
        .data()
        .to_vec()
}

/// Work-conserving batching: on an idle pool a lone request is dispatched
/// at once — `max_wait` is slack to spend while workers are busy, not a
/// timer an idle worker sleeps out.
#[test]
fn lone_request_on_an_idle_pool_is_dispatched_at_once() {
    let (pool, tenant) = serve(
        Arc::new(SlowEcho {
            len: 4,
            delay: Duration::from_millis(5),
        }),
        1,
        TenantConfig {
            max_batch: 64, // never reachable with one request
            max_wait: Duration::from_millis(200),
            queue_capacity: 64,
            ..Default::default()
        },
    );
    let sent = Instant::now();
    tenant.submit(vec![1.0; 4]).unwrap().wait().unwrap();
    let took = sent.elapsed();
    assert!(
        took < Duration::from_millis(50),
        "an idle pool sat on a lone request for {took:?}"
    );
    let stats = shutdown(pool, &tenant);
    assert_eq!(
        (stats.requests, stats.idle_flushes, stats.timeout_flushes),
        (1, 1, 0),
        "{stats}"
    );
}

/// The other half of the rule: requests that queue up behind a running
/// slab still leave in slabs of `max_batch` — the idle flush must not turn
/// a deep queue into a storm of small batches.
#[test]
fn requests_queued_behind_a_running_slab_leave_in_full_slabs() {
    let max_batch = 16;
    let (pool, tenant) = serve(
        Arc::new(SlowEcho {
            len: 4,
            delay: Duration::from_millis(40),
        }),
        1,
        TenantConfig {
            max_batch,
            max_wait: Duration::from_millis(200),
            queue_capacity: 64,
            ..Default::default()
        },
    );
    // The blocker is dispatched alone (idle pool); the 64 behind it all
    // arrive while it runs.
    let blocker = tenant.submit(vec![0.0; 4]).unwrap();
    std::thread::sleep(Duration::from_millis(10));
    let handles: Vec<_> = (0..64)
        .map(|i| tenant.submit(vec![i as f32; 4]).unwrap())
        .collect();
    blocker.wait().unwrap();
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(h.wait().unwrap(), vec![i as f32; 4]);
    }
    let stats = shutdown(pool, &tenant);
    assert_eq!(stats.requests, 65);
    assert_eq!(stats.full_flushes, 64 / max_batch as u64, "{stats}");
    assert_eq!(stats.max_occupancy, max_batch, "{stats}");
    assert_eq!(
        (stats.idle_flushes, stats.timeout_flushes),
        (1, 0),
        "{stats}"
    );
}

/// With two workers and one busy, a lone request is still batching slack:
/// the collecting worker holds it, but for no longer than `max_wait`.
#[test]
fn lone_request_behind_a_busy_worker_waits_at_most_max_wait() {
    let (pool, tenant) = serve(
        Arc::new(SlowEcho {
            len: 4,
            delay: Duration::from_millis(300),
        }),
        2,
        TenantConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(40),
            queue_capacity: 8,
            ..Default::default()
        },
    );
    let blocker = tenant.submit(vec![0.0; 4]).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    // The blocker runs until ≈ 300 ms; the lone request must start at
    // ≈ 20 + 40 ms on the second worker rather than queue behind it.
    let sent = Instant::now();
    tenant.submit(vec![1.0; 4]).unwrap().wait().unwrap();
    let took = sent.elapsed();
    assert!(
        took >= Duration::from_millis(300 + 30) && took < Duration::from_millis(300 + 150),
        "expected ≈ max_wait + one model run, took {took:?}"
    );
    blocker.wait().unwrap();
    let stats = shutdown(pool, &tenant);
    assert_eq!(
        (stats.idle_flushes, stats.timeout_flushes),
        (1, 1),
        "{stats}"
    );
}

/// …and it is released early when the busy worker finishes: from then on
/// waiting could only idle the pool.
#[test]
fn lone_request_is_released_when_the_busy_worker_finishes() {
    let (pool, tenant) = serve(
        Arc::new(SlowEcho {
            len: 4,
            delay: Duration::from_millis(100),
        }),
        2,
        TenantConfig {
            max_batch: 8,
            max_wait: Duration::from_secs(30),
            queue_capacity: 8,
            ..Default::default()
        },
    );
    let blocker = tenant.submit(vec![0.0; 4]).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let sent = Instant::now();
    tenant.submit(vec![1.0; 4]).unwrap().wait().unwrap();
    let took = sent.elapsed();
    // ≈ 80 ms until the blocker finishes, then one 100 ms run.
    assert!(
        took >= Duration::from_millis(150) && took < Duration::from_secs(2),
        "expected release at the busy worker's finish, took {took:?}"
    );
    blocker.wait().unwrap();
    let stats = shutdown(pool, &tenant);
    assert_eq!(
        (stats.idle_flushes, stats.timeout_flushes),
        (2, 0),
        "{stats}"
    );
}

/// Offered load beyond `max_batch` splits into multiple full slabs; no
/// slab ever exceeds the cap.
#[test]
fn oversize_load_splits_into_max_batch_slabs() {
    let w = operator(32, 48, 8, 2);
    let (pool, tenant) = serve(
        Arc::new(w),
        1,
        TenantConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(200),
            queue_capacity: 64,
            ..Default::default()
        },
    );
    let handles: Vec<_> = (0..10)
        .map(|i| tenant.submit(request(48, 200 + i)).unwrap())
        .collect();
    for h in handles {
        h.wait().unwrap();
    }
    let stats = shutdown(pool, &tenant);
    assert_eq!(stats.requests, 10);
    assert!(stats.batches >= 3, "10 requests / cap 4 needs ≥ 3 slabs");
    assert!(stats.max_occupancy <= 4, "slab exceeded max_batch: {stats}");
    assert!(
        stats.full_flushes >= 1,
        "at least the first slabs were full"
    );
}

/// Shutdown must drain: every request parked before shutdown resolves
/// with a real result, even though the collector was still waiting on a
/// far-away `max_wait` deadline.
#[test]
fn shutdown_drains_in_flight_requests() {
    let w = operator(32, 48, 8, 3);
    let wref = Arc::new(w);
    let (pool, tenant) = serve(
        Arc::clone(&wref),
        2,
        TenantConfig {
            max_batch: 64,
            max_wait: Duration::from_secs(3600), // would park ~forever
            queue_capacity: 64,
            ..Default::default()
        },
    );
    let inputs: Vec<Vec<f32>> = (0..7).map(|i| request(48, 300 + i)).collect();
    let handles: Vec<_> = inputs
        .iter()
        .map(|x| tenant.submit(x.clone()).unwrap())
        .collect();
    let stats = shutdown(pool, &tenant); // must not hang on max_wait
    assert_eq!(stats.requests, 7, "drain lost requests: {stats}");
    let mut ws = Workspace::new();
    for (x, h) in inputs.iter().zip(handles) {
        let served = h.wait().expect("drained request must carry a result");
        let direct = wref.matmat(x, 1, &mut ws).unwrap();
        assert_eq!(served, direct);
    }
}

/// The headline guarantee: whatever batches the scheduler forms under
/// concurrent load, every client's answer is bit-identical to a direct
/// single-request `matmat` call.
#[test]
fn concurrent_results_are_bit_identical_to_direct_matmat() {
    let (m, n, k) = (64, 96, 16);
    let w = Arc::new(operator(m, n, k, 4));
    let (pool, tenant) = serve(
        Arc::clone(&w),
        2,
        TenantConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(500),
            queue_capacity: 64,
            ..Default::default()
        },
    );
    std::thread::scope(|s| {
        for client in 0..6u64 {
            let (tenant, w) = (&tenant, Arc::clone(&w));
            s.spawn(move || {
                let mut ws = Workspace::new();
                for r in 0..20u64 {
                    let x = request(n, 1000 + client * 97 + r);
                    let served = tenant.submit(x.clone()).unwrap().wait().unwrap();
                    let direct = w.matmat(&x, 1, &mut ws).unwrap();
                    assert_eq!(served, direct, "client {client} request {r} diverged");
                }
            });
        }
    });
    let stats = shutdown(pool, &tenant);
    assert_eq!(stats.requests, 6 * 20);
    // (No assertion on coalescing itself: a fast enough machine may
    // legally drain every request alone. Bit-identity above is the point.)
}

/// Same guarantee through a whole network (`SequentialModel`): served
/// rows equal the read-only `infer` path run directly, bitwise.
#[test]
fn sequential_model_served_equals_direct_infer() {
    let mut rng = seeded_rng(5);
    let mut net = Sequential::new()
        .add(circnn_core::CirculantLinear::new(&mut rng, 48, 64, 16).unwrap())
        .add(Relu::new())
        .add(Linear::new(&mut rng, 64, 10));
    net.set_training(false);
    // Reference copies of the outputs computed through the same read-only
    // path the server uses, one request at a time.
    let inputs: Vec<Vec<f32>> = (0..12).map(|i| request(48, 500 + i)).collect();
    let mut scratch = circnn_nn::InferScratch::new();
    let direct: Vec<Vec<f32>> = inputs
        .iter()
        .map(|x| {
            let t = circnn_tensor::Tensor::from_vec(x.clone(), &[1, 48]);
            net.infer(&t, &mut scratch).data().to_vec()
        })
        .collect();
    let model = SequentialModel::new(net, 48).unwrap();
    let (pool, tenant) = serve(
        Arc::new(model),
        2,
        TenantConfig {
            max_batch: 5,
            max_wait: Duration::from_millis(5),
            queue_capacity: 32,
            ..Default::default()
        },
    );
    let handles: Vec<_> = inputs
        .iter()
        .map(|x| tenant.submit(x.clone()).unwrap())
        .collect();
    for (h, expect) in handles.into_iter().zip(&direct) {
        assert_eq!(&h.wait().unwrap(), expect);
    }
    pool.shutdown();
}

/// A deliberately slow model to make queue states observable.
struct SlowEcho {
    len: usize,
    delay: Duration,
}

impl ServeModel for SlowEcho {
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

/// Backpressure: with the single worker busy, `try_submit` fails once the
/// bounded queue is full, and succeeds again after it drains.
#[test]
fn bounded_queue_exerts_backpressure() {
    let (pool, tenant) = serve(
        Arc::new(SlowEcho {
            len: 4,
            delay: Duration::from_millis(30),
        }),
        1,
        TenantConfig {
            max_batch: 1, // every request is its own (slow) batch
            max_wait: Duration::ZERO,
            queue_capacity: 2,
            ..Default::default()
        },
    );
    // First request occupies the worker; then stuff the queue. The worker
    // sleeps 30 ms per request, so it cannot absorb a 50-burst that takes
    // microseconds — some try_submits must hit the 2-deep bound.
    let mut handles = vec![tenant.submit(vec![0.0; 4]).unwrap()];
    let mut rejections = 0;
    for i in 0..50 {
        match tenant.try_submit_with_deadline(vec![i as f32; 4], None) {
            Ok(h) => handles.push(h),
            Err(ServeError::QueueFull) => rejections += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(rejections > 0, "a 2-deep queue must reject a 50-burst");
    for h in handles {
        h.wait().unwrap();
    }
    // Once drained, the queue accepts again.
    tenant
        .try_submit_with_deadline(vec![1.0; 4], None)
        .unwrap()
        .wait()
        .unwrap();
    pool.shutdown();
}

/// A model that panics on marked inputs, to exercise worker recovery.
struct Fragile {
    len: usize,
}

impl ServeModel for Fragile {
    type Scratch = ();
    fn make_scratch(&self) {}
    fn input_len(&self) -> usize {
        self.len
    }
    fn output_len(&self) -> usize {
        self.len
    }
    fn infer_batch(&self, x: &[f32], _batch: usize, _scratch: &mut (), out: &mut [f32]) {
        assert!(x[0] >= 0.0, "poison request");
        out.copy_from_slice(x);
    }
}

/// A panicking batch cancels its own requests but must not kill the
/// worker: the pool keeps serving afterwards.
#[test]
fn worker_survives_a_panicking_batch() {
    let (pool, tenant) = serve(
        Arc::new(Fragile { len: 4 }),
        1,
        TenantConfig {
            max_batch: 1, // keep the poison isolated in its own batch
            max_wait: Duration::ZERO,
            queue_capacity: 8,
            ..Default::default()
        },
    );
    let poison = tenant.submit(vec![-1.0; 4]).unwrap();
    assert_eq!(poison.wait(), Err(ServeError::Canceled));
    let healthy = tenant.submit(vec![2.0; 4]).unwrap();
    assert_eq!(healthy.wait().unwrap(), vec![2.0; 4]);
    let stats = shutdown(pool, &tenant);
    assert_eq!(stats.requests, 1, "only the completed request counts");
}

/// Fragile AND slow: panics on poison rows, and holds the worker long
/// enough to make co-batching deterministic.
struct SlowFragile {
    len: usize,
    delay: Duration,
}

impl ServeModel for SlowFragile {
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
        for row in x.chunks(self.len) {
            assert!(row[0] >= 0.0, "poison request");
        }
        out.copy_from_slice(x);
    }
}

/// Panic quarantine: when a poison request panics a MULTI-request batch,
/// the healthy co-batched members are retried individually and complete
/// with correct bytes — only the poison member is canceled — and the
/// panic/retry counters record exactly what happened.
#[test]
fn panicking_batch_never_takes_healthy_cobatched_requests_down() {
    let (pool, tenant) = serve(
        Arc::new(SlowFragile {
            len: 4,
            delay: Duration::from_millis(60),
        }),
        1,
        TenantConfig {
            max_batch: 4,
            max_wait: Duration::ZERO,
            queue_capacity: 8,
            ..Default::default()
        },
    );
    // Occupy the single worker so the next three requests coalesce into
    // one slab behind it.
    let blocker = tenant.submit(vec![1.0; 4]).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let poison = tenant.submit(vec![-1.0, 0.0, 0.0, 0.0]).unwrap();
    let healthy_a = tenant.submit(vec![2.0; 4]).unwrap();
    let healthy_b = tenant.submit(vec![3.0; 4]).unwrap();

    assert_eq!(blocker.wait().unwrap(), vec![1.0; 4]);
    // The poison member is canceled; its co-batched neighbours survive
    // with bitwise-correct results.
    assert_eq!(poison.wait(), Err(ServeError::Canceled));
    assert_eq!(healthy_a.wait().unwrap(), vec![2.0; 4]);
    assert_eq!(healthy_b.wait().unwrap(), vec![3.0; 4]);

    let stats = shutdown(pool, &tenant);
    assert_eq!(
        stats.requests, 3,
        "blocker + two rescued members count; the poison does not: {stats}"
    );
    assert_eq!(
        stats.panics, 2,
        "one batch panic + one re-panic in quarantine: {stats}"
    );
    assert_eq!(stats.retries, 3, "all three members were retried: {stats}");
}

/// `OverloadPolicy::Reject`: a blocking submit against a full queue fails
/// fast with the typed Overloaded error instead of parking, the rejection
/// is counted, and already-admitted requests still complete.
#[test]
fn reject_policy_fails_fast_when_the_queue_is_full() {
    let (pool, tenant) = serve(
        Arc::new(SlowEcho {
            len: 4,
            delay: Duration::from_millis(150),
        }),
        1,
        TenantConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            queue_capacity: 2,
            overload: OverloadPolicy::Reject,
        },
    );
    let blocker = tenant.submit(vec![0.0; 4]).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let queued_a = tenant.submit(vec![1.0; 4]).unwrap();
    let queued_b = tenant.submit(vec![2.0; 4]).unwrap();
    // Queue is at capacity: Block would park here; Reject must not.
    match tenant.submit(vec![3.0; 4]) {
        Err(ServeError::Overloaded) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(blocker.wait().unwrap(), vec![0.0; 4]);
    assert_eq!(queued_a.wait().unwrap(), vec![1.0; 4]);
    assert_eq!(queued_b.wait().unwrap(), vec![2.0; 4]);
    let stats = shutdown(pool, &tenant);
    assert_eq!(stats.rejected, 1, "{stats}");
    assert_eq!(stats.shed, 0, "{stats}");
}

/// `OverloadPolicy::ShedOldest`: a blocking submit against a full queue
/// evicts the oldest queued request (which resolves with the typed
/// Overloaded error), admits the new one, and counts the shed.
#[test]
fn shed_oldest_policy_evicts_the_stalest_queued_request() {
    let (pool, tenant) = serve(
        Arc::new(SlowEcho {
            len: 4,
            delay: Duration::from_millis(150),
        }),
        1,
        TenantConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            queue_capacity: 2,
            overload: OverloadPolicy::ShedOldest,
        },
    );
    let blocker = tenant.submit(vec![0.0; 4]).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let oldest = tenant.submit(vec![1.0; 4]).unwrap();
    let middle = tenant.submit(vec![2.0; 4]).unwrap();
    // Queue full: the NEW request is admitted and the oldest queued one
    // is shed with a typed error.
    let newest = tenant.submit(vec![3.0; 4]).unwrap();
    assert_eq!(oldest.wait(), Err(ServeError::Overloaded));
    assert_eq!(blocker.wait().unwrap(), vec![0.0; 4]);
    assert_eq!(middle.wait().unwrap(), vec![2.0; 4]);
    assert_eq!(newest.wait().unwrap(), vec![3.0; 4]);
    let stats = shutdown(pool, &tenant);
    assert_eq!(stats.shed, 1, "{stats}");
    assert_eq!(stats.rejected, 0, "{stats}");
    // Non-blocking submission keeps its fail-fast QueueFull contract
    // regardless of policy (the caller opted out of waiting).
}

/// Mis-sized requests are rejected at the door, not inside a worker.
#[test]
fn wrong_length_is_rejected_on_submit() {
    let (pool, tenant) = serve(Arc::new(operator(16, 32, 8, 6)), 2, TenantConfig::default());
    match tenant.submit(vec![0.0; 31]) {
        Err(ServeError::BadInput { expected, got }) => {
            assert_eq!((expected, got), (32, 31));
        }
        other => panic!("expected BadInput, got {other:?}"),
    }
    pool.shutdown();
}

/// Zero-valued knobs are rejected at startup: the pool's worker count and
/// each tenant policy count.
#[test]
fn zero_config_knobs_are_rejected() {
    match MultiServer::start(0) {
        Err(ServeError::BadConfig(_)) => {}
        other => panic!("expected BadConfig, got {:?}", other.map(|_| ())),
    }
    let pool = MultiServer::start(1).unwrap();
    for cfg in [
        TenantConfig {
            max_batch: 0,
            ..Default::default()
        },
        TenantConfig {
            queue_capacity: 0,
            ..Default::default()
        },
    ] {
        match pool.add_tenant(operator(16, 32, 8, 7), cfg) {
            Err(ServeError::BadConfig(_)) => {}
            other => panic!("expected BadConfig, got {:?}", other.map(|_| ())),
        }
    }
}
