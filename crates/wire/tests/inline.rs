//! Run to completion: on an idle pool the I/O thread that decoded a
//! request runs its slab itself. These tests pin where slabs run (the
//! model records its thread), that a slab runs on the loop only within
//! its tenant's `max_wait`, that replies keep their order per connection,
//! and that inline slabs count against the pool's seats.

mod common;

use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use circnn_core::{BlockCirculantMatrix, Workspace};
use circnn_serve::{ServeModel, TenantConfig};
use circnn_tensor::init::seeded_rng;
use circnn_wire::frame::{self, Reply, Request};
use circnn_wire::{EventConfig, EventServer, ModelRegistry, WireClient};

use common::{request, Doubler, SlowEcho};

/// Name prefix of the event-loop threads.
const LOOP_THREAD: &str = "circnn-wire-ev";
/// Name prefix of the pool workers.
const POOL_THREAD: &str = "circnn-pool-";

/// Wraps a model and records the name of every thread that calls it.
struct Traced<M> {
    inner: M,
    threads: Arc<Mutex<Vec<String>>>,
}

impl<M> Traced<M> {
    fn new(inner: M) -> (Self, Arc<Mutex<Vec<String>>>) {
        let threads = Arc::new(Mutex::new(Vec::new()));
        let traced = Self {
            inner,
            threads: Arc::clone(&threads),
        };
        (traced, threads)
    }
}

impl<M: ServeModel> ServeModel for Traced<M> {
    type Scratch = M::Scratch;
    fn make_scratch(&self) -> M::Scratch {
        self.inner.make_scratch()
    }
    fn input_len(&self) -> usize {
        self.inner.input_len()
    }
    fn output_len(&self) -> usize {
        self.inner.output_len()
    }
    fn infer_batch(&self, x: &[f32], batch: usize, scratch: &mut M::Scratch, out: &mut [f32]) {
        let name = std::thread::current().name().unwrap_or("").to_string();
        self.threads.lock().unwrap().push(name);
        self.inner.infer_batch(x, batch, scratch, out);
    }
}

fn recorded(threads: &Mutex<Vec<String>>) -> Vec<String> {
    threads.lock().unwrap().clone()
}

/// The first request of an unmeasured tenant runs on a worker; once the
/// tenant is measured, a lone request on the idle one-worker pool runs on
/// the loop thread that decoded it, and every reply is bit-identical to
/// the direct call. From the first inline slab on, every lone request
/// stays inline: an inline slab gives its seat back before its reply is
/// written, so the next request always finds the pool idle.
#[test]
fn lone_request_runs_on_the_loop_thread_bitwise() {
    let w = BlockCirculantMatrix::random(&mut seeded_rng(40), 48, 64, 16).unwrap();
    let (model, threads) = Traced::new(w.clone());
    let registry = Arc::new(ModelRegistry::new(1).unwrap());
    registry
        .add_model("fc", model, TenantConfig::default())
        .unwrap();
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();
    let mut wire = WireClient::connect(server.local_addr()).unwrap();
    let mut ws = Workspace::new();
    const REQUESTS: u64 = 10;
    for r in 0..REQUESTS {
        let x = request(64, 4000 + r);
        let direct = w.matmat(&x, 1, &mut ws).unwrap();
        assert_eq!(wire.infer("fc", &x).unwrap(), direct, "request {r}");
    }
    let threads = recorded(&threads);
    assert_eq!(threads.len(), REQUESTS as usize, "{threads:?}");
    assert!(threads[0].starts_with(POOL_THREAD), "{threads:?}");
    // The hand-back from the warm-up's worker races the next request only
    // if that worker stalls for a whole loopback round trip; allow it
    // twice, then every request must run on the loop.
    let first_inline = threads
        .iter()
        .position(|t| t.starts_with(LOOP_THREAD))
        .expect("no request ran on the loop thread");
    assert!(first_inline <= 3, "{threads:?}");
    assert!(
        threads[first_inline..]
            .iter()
            .all(|t| t.starts_with(LOOP_THREAD)),
        "{threads:?}"
    );
    server.shutdown();
}

/// The inline rule's cost test: a tenant with `max_wait = 0` never runs
/// on the loop, and neither does one whose measured slab (a 3 ms model)
/// exceeds its 1 ms `max_wait`.
#[test]
fn zero_slack_and_overlong_slabs_never_run_on_the_loop() {
    let (zero, zero_threads) = Traced::new(Doubler);
    let (long, long_threads) = Traced::new(SlowEcho(Duration::from_millis(3)));
    let registry = Arc::new(ModelRegistry::new(1).unwrap());
    registry
        .add_model(
            "zero",
            zero,
            TenantConfig {
                max_wait: Duration::ZERO,
                ..Default::default()
            },
        )
        .unwrap();
    registry
        .add_model(
            "long",
            long,
            TenantConfig {
                max_wait: Duration::from_millis(1),
                ..Default::default()
            },
        )
        .unwrap();
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();
    let mut wire = WireClient::connect(server.local_addr()).unwrap();
    for r in 0..6 {
        let x = request(8, 500 + r);
        let want: Vec<f32> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        assert_eq!(wire.infer("zero", &x).unwrap(), want);
        let x = request(4, 600 + r);
        assert_eq!(wire.infer("long", &x).unwrap(), x);
    }
    for threads in [recorded(&zero_threads), recorded(&long_threads)] {
        assert_eq!(threads.len(), 6, "{threads:?}");
        assert!(
            threads.iter().all(|t| t.starts_with(POOL_THREAD)),
            "{threads:?}"
        );
    }
    server.shutdown();
}

/// A 4-wide echo that holds the CPU for about a millisecond per call.
struct Spin;

impl ServeModel for Spin {
    type Scratch = ();
    fn make_scratch(&self) {}
    fn input_len(&self) -> usize {
        4
    }
    fn output_len(&self) -> usize {
        4
    }
    fn infer_batch(&self, x: &[f32], _batch: usize, _scratch: &mut (), out: &mut [f32]) {
        let until = Instant::now() + Duration::from_millis(1);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
        out.copy_from_slice(x);
    }
}

/// Keeps `window` v3 `Infer` frames in flight on `raw` — a new one goes
/// out as each reply arrives — until `total` replies are in; returns
/// their ids in arrival order, each echo checked.
fn closed_loop(raw: &mut TcpStream, window: u64, total: u64) -> Vec<u64> {
    let mut buf = Vec::new();
    let send = |raw: &mut TcpStream, id: u64, buf: &mut Vec<u8>| {
        let req = Request::Infer {
            model: "spin".to_string(),
            deadline_micros: 0,
            input: vec![id as f32; 4],
        };
        frame::encode_request_v3(id, &req, buf);
        frame::write_frame(raw, buf).unwrap();
    };
    for id in 0..window {
        send(raw, id, &mut buf);
    }
    let mut arrived = Vec::new();
    while (arrived.len() as u64) < total {
        frame::read_frame(raw, &mut buf).unwrap();
        let (tag, reply) = frame::decode_reply_tagged(&buf).unwrap();
        let id = tag.expect("a v3 reply carries its id");
        assert_eq!(
            reply,
            Reply::Infer {
                output: vec![id as f32; 4]
            }
        );
        arrived.push(id);
        let next = arrived.len() as u64 + window - 1;
        if next < total {
            send(raw, next, &mut buf);
        }
    }
    arrived
}

/// One worker, two connections, each keeping eight v3 requests in flight
/// to a ≈ 1 ms model. While both are busy the worker mostly runs their
/// slabs in turn; once the shorter one is done the other usually finds
/// the pool idle between its slabs, and they run on its loop. Where slabs
/// run depends on timing; what must hold is that the replies arrive in
/// request order on each connection: a slab holds its seat until its
/// replies are out, so a later inline slab cannot overtake a finished,
/// undelivered one. (Releasing the seat before fulfilling fails this
/// test in a fraction of runs, more often with the test pinned to one
/// CPU; `sched::tests::a_slab_keeps_its_seat_until_its_replies_are_out`
/// checks the rule deterministically.)
#[test]
fn pipelined_replies_keep_request_order_per_connection() {
    let registry = Arc::new(ModelRegistry::new(1).unwrap());
    registry
        .add_model(
            "spin",
            Spin,
            TenantConfig {
                max_wait: Duration::from_millis(50),
                ..Default::default()
            },
        )
        .unwrap();
    let server =
        EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default()).unwrap();
    let addr = server.local_addr();
    const WINDOW: u64 = 8;
    std::thread::scope(|s| {
        for (conn, total) in [(0, 64), (1, 24)] {
            s.spawn(move || {
                let mut raw = TcpStream::connect(addr).unwrap();
                raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let arrived = closed_loop(&mut raw, WINDOW, total);
                assert_eq!(
                    arrived,
                    (0..total).collect::<Vec<_>>(),
                    "connection {conn}: replies out of request order"
                );
            });
        }
    });
    server.shutdown();
}

/// Counts the calls inside every `Exclusive` model sharing `now`, and
/// the most ever seen at once.
struct Exclusive {
    now: Arc<AtomicUsize>,
    most: Arc<AtomicUsize>,
    threads: Arc<Mutex<Vec<String>>>,
}

impl ServeModel for Exclusive {
    type Scratch = ();
    fn make_scratch(&self) {}
    fn input_len(&self) -> usize {
        4
    }
    fn output_len(&self) -> usize {
        4
    }
    fn infer_batch(&self, x: &[f32], _batch: usize, _scratch: &mut (), out: &mut [f32]) {
        let inside = self.now.fetch_add(1, Ordering::SeqCst) + 1;
        self.most.fetch_max(inside, Ordering::SeqCst);
        let name = std::thread::current().name().unwrap_or("").to_string();
        self.threads.lock().unwrap().push(name);
        std::thread::sleep(Duration::from_micros(200));
        out.copy_from_slice(x);
        self.now.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Seats: with two I/O loops over a one-worker pool, the loops and the
/// worker together never run more than one slab at a time. Tenant `x`
/// has slack, so its lone slabs run on the loops; tenant `y` has none,
/// so its slabs go to the worker, which would flush them at once beside
/// a running inline slab if inline slabs took no seat.
#[test]
fn two_loops_and_one_worker_share_one_seat() {
    let now = Arc::new(AtomicUsize::new(0));
    let most = Arc::new(AtomicUsize::new(0));
    let threads = Arc::new(Mutex::new(Vec::new()));
    let registry = Arc::new(ModelRegistry::new(1).unwrap());
    for (name, max_wait) in [("x", Duration::from_millis(20)), ("y", Duration::ZERO)] {
        let model = Exclusive {
            now: Arc::clone(&now),
            most: Arc::clone(&most),
            threads: Arc::clone(&threads),
        };
        let cfg = TenantConfig {
            max_wait,
            ..Default::default()
        };
        registry.add_model(name, model, cfg).unwrap();
    }
    let cfg = EventConfig {
        io_threads: 2,
        ..EventConfig::default()
    };
    let server = EventServer::bind("127.0.0.1:0", Arc::clone(&registry), cfg).unwrap();
    let addr = server.local_addr();
    std::thread::scope(|s| {
        for client in 0..4u64 {
            s.spawn(move || {
                let mut wire = WireClient::connect(addr).unwrap();
                for r in 0..30 {
                    // Uneven pauses leave the pool idle now and then, so
                    // some `x` slabs find it idle and run on a loop.
                    std::thread::sleep(Duration::from_micros((client * 131 + r * 71) % 500));
                    let x = request(4, client * 100 + r);
                    let tenant = if (client + r) % 2 == 0 { "x" } else { "y" };
                    assert_eq!(wire.infer(tenant, &x).unwrap(), x);
                }
            });
        }
    });
    assert_eq!(most.load(Ordering::SeqCst), 1, "two slabs ran at once");
    let threads = recorded(&threads);
    assert!(
        threads.iter().any(|t| t.starts_with(LOOP_THREAD)),
        "no slab ran on a loop: {threads:?}"
    );
    server.shutdown();
}
