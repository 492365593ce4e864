//! The four workloads as the untraced run measures them: set-up, then
//! rounds of the workload's traffic and a short reading of the engine job
//! list on f32 and on i16, with further set-ups between rounds (the fastest
//! is `setup_s`).
//! `engine-offline` inverts the split: most of its window goes to the job
//! list, and its "traffic" is lone B = 1 calls straight into the engine.

use circnn_serve::ServeModel;

use crate::client::{Conn, Outcome};
use crate::drive::{self, generator_width, Shape};
use crate::engine::{Mix, MixResult, Precision};
use crate::host;
use crate::json::Value;
use crate::pool::{DirectFn, Pool, POOL_VECTORS};
use crate::spec;
use crate::stack::{self, ShardStack, WireStack, FC_SHAPE, MODEL, SHARD_SHAPE};
use crate::stats;
use crate::trace::{Clock, Span};

/// Arrival rate of `lenet-wire-open`: about a fifth of the closed-loop
/// capacity measured on the reference box when the benchmark was defined
/// (≈ 4 900 req/s). The issue's 2000 req/s was re-centred once, downwards:
/// the scheduler answers load with bigger batches, and at 40 % of capacity
/// that feedback turned a 20 % host slowdown into 45 % more latency, too
/// unsteady to gate on (see README, "lenet-wire-open"). Frozen from here:
/// changing it is a benchmark change of its own.
pub const LENET_OPEN_RATE_RPS: f64 = 1000.0;

/// Share of `--seconds` a wire workload spends on its traffic; the rest is
/// split evenly between the f32 and i16 engine readings.
const TRAFFIC_SHARE: f64 = 0.75;
/// Share of `--seconds` `engine-offline` spends on lone B = 1 calls.
const OFFLINE_CALLS_SHARE: f64 = 0.25;

/// How many times set-up runs in an untraced run: once before the first
/// round, then after every third.
pub const SETUP_REPEATS: usize = 6;
/// Rounds of (traffic, f32 list, i16 list) the measured window is cut into:
/// at `run_seconds` a traffic round of the wire workloads is a little over
/// a second, one slice's worth of replies at 1000 req/s.
const ROUNDS: usize = 18;

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Corrupt the references, to prove the checker notices.
    pub flip_reference: bool,
    pub setup_repeats: usize,
}

impl RunConfig {
    pub fn ns(&self, share: f64) -> u64 {
        (self.seconds * share * 1e9) as u64
    }
}

/// `attempted / succeeded / failed` of one phase of a run.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
}

impl Phase {
    pub fn of_traffic(name: &'static str, out: &Outcome) -> Self {
        Self {
            name,
            attempted: out.attempted,
            succeeded: out.succeeded(),
            failed: out.failed,
        }
    }

    pub fn of_mix(name: &'static str, r: &MixResult) -> Self {
        Self {
            name,
            attempted: r.attempted,
            succeeded: r.attempted - r.failed,
            failed: r.failed,
        }
    }
}

/// Everything a run reports.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64)>,
    pub phases: Vec<Phase>,
    /// Context that is not a metric: sample counts, the percentile the
    /// tail really is, lateness, offered rate.
    pub notes: Vec<(String, Value)>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn note(&mut self, name: &str, value: impl Into<Value>) {
        self.notes.push((name.to_string(), value.into()));
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// A bare block-circulant operator `(m, n, k)`.
    Operator((usize, usize, usize)),
    Lenet,
}

/// How a workload is served and offered.
#[derive(Debug, Clone, Copy)]
pub struct Serving {
    pub model: ModelKind,
    /// Samples per request.
    pub rows: usize,
    pub shape: Shape,
    /// Behind the 2-shard router instead of one server.
    pub sharded: bool,
    /// Closed-loop requests of warm-up, counted not timed, so that set-up
    /// time tracks the speed of the code and not a constant.
    pub warm_up: u64,
}

/// The serving side of a workload. `engine-offline` has none of its own;
/// where the traced ladder needs one for it, it borrows the interactive
/// shape — the lone-request path is the one its latency metrics watch.
pub fn serving(workload: &str) -> Serving {
    match workload {
        spec::FC_WIRE_CLOSED => Serving {
            model: ModelKind::Operator(FC_SHAPE),
            rows: 1,
            shape: Shape::Closed {
                conns: 1,
                window: 64,
            },
            sharded: false,
            warm_up: 4000,
        },
        spec::FC_WIRE_INTERACTIVE | spec::ENGINE_OFFLINE => Serving {
            model: ModelKind::Operator(FC_SHAPE),
            rows: 1,
            shape: Shape::Closed {
                conns: 1,
                window: 1,
            },
            sharded: false,
            warm_up: 400,
        },
        spec::LENET_WIRE_OPEN => Serving {
            model: ModelKind::Lenet,
            rows: 1,
            shape: Shape::Open {
                rate_rps: LENET_OPEN_RATE_RPS,
            },
            sharded: false,
            warm_up: 600,
        },
        spec::SHARD_2X_CLOSED => Serving {
            model: ModelKind::Operator(SHARD_SHAPE),
            rows: 8,
            shape: Shape::Closed {
                conns: 1,
                window: 4,
            },
            sharded: true,
            warm_up: 200,
        },
        other => panic!("unknown workload {other:?}"),
    }
}

pub enum Front {
    Wire(WireStack),
    Shard(ShardStack),
}

impl Front {
    pub fn addr(&self) -> std::net::SocketAddr {
        match self {
            Front::Wire(s) => s.addr,
            Front::Shard(s) => s.addr,
        }
    }

    pub fn shutdown(self) {
        match self {
            Front::Wire(s) => s.shutdown(),
            Front::Shard(s) => s.shutdown(),
        }
    }
}

/// A workload's serving side, set up and warm: model built and registered,
/// references computed, server(s) bound, generator connected.
pub struct Deployment {
    pub pool: Pool,
    /// The model as a direct call (rung 0).
    pub direct: Box<DirectFn<'static>>,
    pub front: Front,
    pub conns: Vec<Conn>,
    pub connect_ns: Vec<u64>,
}

/// The workload's pool, with references from `model` called directly.
fn pool_of<M: ServeModel>(model: M, seed: u64, rows: usize) -> (Pool, Box<DirectFn<'static>>) {
    let (n, m) = (model.input_len(), model.output_len());
    let mut direct = stack::direct_of(model);
    let pool = Pool::build(seed, MODEL, n, m, rows, POOL_VECTORS, &mut direct);
    (pool, direct)
}

impl Deployment {
    pub fn start(serving: &Serving, seed: u64, clock: &Clock) -> Self {
        let (pool, direct, front) = match serving.model {
            ModelKind::Operator(shape) => {
                let op = stack::operator(shape);
                let (pool, direct) = pool_of(op.clone(), seed, serving.rows);
                let front = if serving.sharded {
                    Front::Shard(ShardStack::start(&op))
                } else {
                    Front::Wire(WireStack::serving(op))
                };
                (pool, direct, front)
            }
            ModelKind::Lenet => {
                // `SequentialModel` is not `Clone`; the same seed builds
                // the same network twice, and every reply is checked
                // against the first copy's outputs anyway.
                let (pool, direct) = pool_of(stack::lenet(), seed, serving.rows);
                let front = Front::Wire(WireStack::serving(stack::lenet()));
                (pool, direct, front)
            }
        };
        let count = match serving.shape {
            Shape::Closed { conns, .. } => conns,
            Shape::Open { .. } => generator_width(),
        };
        let (mut conns, connect_ns) = drive::connect(front.addr(), count, clock);
        let warm = drive::warm_up(&mut conns, &pool, seed, serving.warm_up, clock);
        assert_eq!(warm.failed, 0, "a warm-up request failed");
        Self {
            pool,
            direct,
            front,
            conns,
            connect_ns,
        }
    }

    pub fn shutdown(self) {
        drop(self.conns);
        self.front.shutdown();
    }
}

/// `build()` and how long it took, in s.
fn timed_s<T>(clock: &Clock, build: impl FnOnce() -> T) -> (T, f64) {
    let t0 = clock.now_ns();
    let built = build();
    (built, (clock.now_ns() - t0) as f64 / 1e9)
}

/// `setup_s` from every set-up of a run: the fastest, for the reason every
/// other metric is its best stretch (see [`measure`]) — set-up is
/// arithmetic, and a neighbour on the host costs it up to a third.
fn report_setup(report: &mut Report, setups_s: &[f64]) {
    report.metric(
        spec::SETUP_S,
        setups_s.iter().copied().fold(f64::INFINITY, f64::min),
    );
    report.note("setup_s_median", stats::median(setups_s));
    report.note("setups", setups_s.len() as u64);
}

/// One traffic window: the outcome, and when on the clock it began.
type Window = (Outcome, u64);

/// The measured part of an untraced run, in [`ROUNDS`] rounds of traffic,
/// f32 job list, i16 job list, and every metric is its **best stretch** of
/// the run: the best slice of the traffic ([`drive::best_slices`]), the
/// best call of each job kind ([`Mix::best_samples_per_s`]). The reference
/// box is a few vCPUs of a shared host whose neighbours take up to a third
/// off its speed for seconds to minutes at a time: interference only ever
/// slows the code, so its best short stretch is what it does when the host
/// leaves it alone, and that repeats from run to run where a median over
/// the run follows the host's mood (CALIBRATION.md has both, side by
/// side). Interleaving the three kinds of work spreads each of them over
/// the whole run, set-up included: the first set-up builds what is
/// measured, and `set_up_again` (build once more, time it, tear it down) is
/// called between rounds until the run has set up `cfg.setup_repeats`
/// times. `traffic(phase, window_ns)` drives one window of the workload's
/// traffic.
fn measure(
    report: &mut Report,
    cfg: &RunConfig,
    clock: &Clock,
    traffic_share: f64,
    mix: &mut Mix,
    mut traffic: impl FnMut(u64, u64) -> Window,
    mut set_up_again: impl FnMut(),
) {
    // Set-ups still to run, one after every `every` rounds.
    let mut again = cfg.setup_repeats.saturating_sub(1);
    let every = ROUNDS / again.clamp(1, ROUNDS);
    let window_ns = cfg.ns(traffic_share / ROUNDS as f64);
    let reading_ns = cfg.ns((1.0 - traffic_share) / 2.0 / ROUNDS as f64);
    let mut windows = Vec::with_capacity(ROUNDS);
    let (mut f32, mut q16) = (MixResult::default(), MixResult::default());
    // Counted once, against the precision it concerns.
    q16.failed += mix.bound_violations();
    for round in 0..ROUNDS as u64 {
        let round_end_ns = clock.now_ns() + window_ns + 2 * reading_ns;
        windows.push(traffic(round + 1, window_ns));
        // A reading runs whole passes, so it overruns; the round's end
        // stays put, and the overrun comes out of the next reading.
        let left_ns = |end_ns: u64| end_ns.saturating_sub(clock.now_ns());
        let flip = cfg.flip_reference;
        f32.absorb(mix.run(
            Precision::F32,
            left_ns(round_end_ns - reading_ns),
            clock,
            flip,
        ));
        q16.absorb(mix.run(Precision::Q16, left_ns(round_end_ns), clock, flip));
        if again > 0 && (round as usize + 1) % every == 0 {
            set_up_again();
            again -= 1;
        }
    }

    let mut total = Phase {
        name: "traffic",
        attempted: 0,
        succeeded: 0,
        failed: 0,
    };
    for (out, _) in &windows {
        total.attempted += out.attempted;
        total.succeeded += out.succeeded();
        total.failed += out.failed;
    }
    report.phases.push(total);
    report.phases.push(Phase::of_mix("engine-f32", &f32));
    report.phases.push(Phase::of_mix("engine-q16", &q16));

    // With nothing correct back there is nothing to summarize; the failed
    // count already says so.
    let lent: Vec<(&Outcome, u64)> = windows.iter().map(|(out, t0)| (out, *t0)).collect();
    if let Some(best) = drive::best_slices(&lent, window_ns) {
        report.metric(spec::THROUGHPUT_RPS, best.rps);
        report.metric(spec::LATENCY_P50_US, best.p50_us);
        report.metric(spec::LATENCY_P99_US, best.p99_us);
        report.note("latency_tail_percentile", best.tail_percentile);
    }
    // The whole run, host and all: what the best slice is the best of.
    if let Some(all) = drive::summarize(&lent, window_ns) {
        report.note("latency_samples", all.window_tail.samples as u64);
        report.note("whole_run_rps", all.rps);
        report.note("whole_run_p50_us", all.p50_us);
        report.note("whole_run_p99_us", all.window_tail.value);
    }
    let late: Vec<f64> = windows
        .iter()
        .flat_map(|(out, _)| out.lateness_ns.iter().map(|&l| l as f64 / 1e3))
        .collect();
    if !late.is_empty() {
        report.note(
            "generator_lateness_p99_us",
            stats::percentile(&stats::sort(late), 0.99),
        );
    }
    report.metric(spec::THROUGHPUT_SPS_F32, mix.best_samples_per_s(&f32));
    report.metric(spec::THROUGHPUT_SPS_Q16, mix.best_samples_per_s(&q16));
    report.note("engine_passes_f32", f32.rates.len() as u64);
    report.note("engine_passes_q16", q16.rates.len() as u64);
    report.note("whole_run_sps_f32", stats::median(&f32.rates));
    report.note("whole_run_sps_q16", stats::median(&q16.rates));
}

/// The untraced run of a wire workload.
fn run_wire(cfg: &RunConfig, clock: &Clock) -> Report {
    let serving = serving(&cfg.workload);
    let build = || {
        (
            Deployment::start(&serving, cfg.seed, clock),
            Mix::new(cfg.seed),
        )
    };
    let ((mut dep, mut mix), first_s) = timed_s(clock, build);
    let mut setups_s = vec![first_s];
    if cfg.flip_reference {
        dep.pool.flip_references();
    }
    let mut report = Report::default();
    if let Shape::Open { rate_rps } = serving.shape {
        report.note("offered_rps", rate_rps);
    }
    report.note(
        "connect_us_median",
        stats::median(
            &dep.connect_ns
                .iter()
                .map(|&n| n as f64 / 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    let (conns, pool) = (&mut dep.conns, &dep.pool);
    measure(
        &mut report,
        cfg,
        clock,
        TRAFFIC_SHARE,
        &mut mix,
        |phase, ns| {
            drive::wire_window(
                conns,
                pool,
                serving.shape,
                (cfg.seed, phase),
                ns,
                clock,
                false,
            )
        },
        || {
            let ((again, _), s) = timed_s(clock, build);
            again.shutdown();
            setups_s.push(s);
        },
    );
    dep.shutdown();
    report_setup(&mut report, &setups_s);
    report.metric(spec::PEAK_RSS_MB, host::peak_rss_mb());
    report
}

/// The untraced run of `engine-offline`.
fn run_offline(cfg: &RunConfig, clock: &Clock) -> Report {
    let build = || {
        let (pool, direct) = pool_of(stack::operator(FC_SHAPE), cfg.seed, 1);
        (pool, direct, Mix::new(cfg.seed))
    };
    let ((mut pool, mut direct, mut mix), first_s) = timed_s(clock, build);
    let mut setups_s = vec![first_s];
    if cfg.flip_reference {
        pool.flip_references();
    }
    let mut report = Report::default();
    // The library user's request is a call: lone B = 1 calls, one at a
    // time, are this workload's closed loop.
    measure(
        &mut report,
        cfg,
        clock,
        OFFLINE_CALLS_SHARE,
        &mut mix,
        |_, ns| {
            let t0_ns = clock.now_ns();
            let (_, out) = drive::direct_calls(&mut direct, &pool, 1, ns, clock);
            (out, t0_ns)
        },
        || setups_s.push(timed_s(clock, build).1),
    );
    report_setup(&mut report, &setups_s);
    report.metric(spec::PEAK_RSS_MB, host::peak_rss_mb());
    report
}

/// The untraced run: every end-to-end metric of `cfg.workload`.
pub fn run_untraced(cfg: &RunConfig) -> Report {
    let clock = Clock::start();
    if cfg.workload == spec::ENGINE_OFFLINE {
        run_offline(cfg, &clock)
    } else {
        run_wire(cfg, &clock)
    }
}
