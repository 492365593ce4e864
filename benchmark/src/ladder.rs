//! The traced run: every per-layer metric. One seeded request stream is
//! pushed through successively taller stacks — rung 0 a direct call into
//! the model, rung 1 the scheduler in-process, rung 2 the server over
//! loopback, rung 3 the shard router — and a layer's self time is its
//! rung's p50 minus the rung below. Around the ladder, fixed-shape surveys
//! time the layers no rung isolates (plane FFTs, engine job kinds, LeNet's
//! layers, codec calls, the open-loop rate ladder). Every timed call into
//! a layer is a span, written out when the run ends.

use circnn_serve::{ServeModel, ServeStats};
use circnn_wire::frame;
use circnn_wire::{Reply, WireClient};

use crate::client::{Outcome, Sample};
use crate::drive::{self, generator_width, Shape};
use crate::engine;
use crate::pool::Pool;
use crate::rng::SplitMix64;
use crate::spec;
use crate::stack::{self, ShardStack, MODEL};
use crate::stats;
use crate::trace::{self, Clock, Span};
use crate::workloads::{
    serving, Deployment, Front, Phase, Report, RunConfig, Serving, LENET_OPEN_RATE_RPS,
};

/// Shares of `--seconds` (they sum to 1).
const ENGINE_SURVEY: f64 = 0.17;
const NN_SURVEY: f64 = 0.07;
const CODEC_SURVEY: f64 = 0.02;
const RUNG_DIRECT: f64 = 0.04;
const RUNG_TRAFFIC: f64 = 0.10; // ×3: in-process, wire traced, wire untraced
const PINGS: f64 = 0.01;
const SHARD_DEPTH: f64 = 0.05; // ×3: single node, direct leg, router in-process
const SHARD_ROUTED: f64 = 0.06;
const RATE_STEP: f64 = 0.06; // ×3

/// The open-loop rate ladder and its latency limit.
const RATES_RPS: [f64; 3] = [1000.0, 2000.0, 3000.0];
const SLO_P99_US: f64 = 10_000.0;
/// A backlog at window end worth more than this many seconds of arrivals
/// counts as growing.
const BACKLOG_LIMIT_S: f64 = 0.02;

/// Marks `out`'s request spans as children of `rung` and moves their ids
/// into the rung's own range, then hands them to the report.
fn adopt(
    report: &mut Report,
    rung: &'static str,
    index: u64,
    window: (u64, u64),
    out: &mut Outcome,
) {
    report.spans.push(Span {
        name: rung,
        parent: "",
        request_id: index << 40,
        start_ns: window.0,
        end_ns: window.0 + window.1,
    });
    for mut span in out.spans.drain(..) {
        span.request_id += index << 40;
        if span.parent.is_empty() {
            span.parent = rung;
        }
        report.spans.push(span);
    }
}

/// Spans for a rung whose driver keeps only samples: each sample *is* the
/// interval of one call into the layer.
fn spans_of(samples: &[Sample], name: &'static str) -> Vec<Span> {
    samples
        .iter()
        .enumerate()
        .map(|(i, s)| Span {
            name,
            parent: "",
            request_id: i as u64,
            start_ns: s.start_ns(),
            end_ns: s.done_ns(),
        })
        .collect()
}

/// What the tenant did between two `ServeStats` snapshots.
struct ServeDelta {
    requests: f64,
    batches: f64,
    full: f64,
    timeout: f64,
    infer_us: f64,
    latency_us: f64,
    expired: f64,
    shed: f64,
    rejected: f64,
    panics: f64,
}

fn serve_delta(before: &ServeStats, after: &ServeStats) -> ServeDelta {
    let d = |f: fn(&ServeStats) -> u64| (f(after) - f(before)) as f64;
    ServeDelta {
        requests: d(|s| s.requests),
        batches: d(|s| s.batches),
        full: d(|s| s.full_flushes),
        timeout: d(|s| s.timeout_flushes),
        // The snapshots carry means; the sums they are means of subtract.
        infer_us: after.mean_infer_us * after.batches as f64
            - before.mean_infer_us * before.batches as f64,
        latency_us: after.mean_latency_us * after.requests as f64
            - before.mean_latency_us * before.requests as f64,
        expired: d(|s| s.expired),
        shed: d(|s| s.shed),
        rejected: d(|s| s.rejected),
        panics: d(|s| s.panics),
    }
}

/// `count` blocking callers, each issuing one request at a time through
/// the call `make` builds for it, until the window closes.
fn blocking_callers<F>(
    count: usize,
    pool: &Pool,
    (seed, phase): (u64, u64),
    window_ns: u64,
    clock: &Clock,
    check: impl Fn(usize, &[f32]) -> bool + Sync,
    make: impl Fn(usize) -> F,
) -> (Outcome, u64)
where
    F: FnMut(&[f32]) -> Result<Vec<f32>, String> + Send,
{
    let t0_ns = clock.now_ns();
    let mut total = Outcome::default();
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..count)
            .map(|c| {
                let mut call = make(c);
                let check = &check;
                s.spawn(move || {
                    let mut picks = SplitMix64::stream(seed, (phase << 8) + c as u64);
                    let mut out = Outcome::default();
                    loop {
                        let start_ns = clock.now_ns();
                        if start_ns >= t0_ns + window_ns {
                            return out;
                        }
                        let pick = picks.below(pool.len());
                        out.attempted += 1;
                        match call(&pool.inputs[pick]) {
                            Ok(y) if check(pick, &y) => {
                                out.samples.push(Sample::new(start_ns, clock.now_ns()));
                            }
                            Ok(_) => out.failed += 1,
                            Err(e) => {
                                eprintln!("benchmark: call failed: {e}");
                                out.failed += 1;
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            total.merge(t.join().expect("a caller thread panicked"));
        }
    });
    (total, t0_ns)
}

/// `wire.*` codec timings at the workload's payload size.
fn codec_survey(report: &mut Report, pool: &Pool, budget_ns: u64, clock: &Clock) {
    let request = &pool.requests[0];
    let reply = if pool.rows == 1 {
        Reply::Infer {
            output: pool.references[0].clone(),
        }
    } else {
        Reply::InferBatch {
            batch: pool.rows as u32,
            output: pool.references[0].clone(),
        }
    };
    let (mut request_frame, mut reply_frame) = (Vec::new(), Vec::new());
    frame::encode_request_v3(7, request, &mut request_frame);
    frame::encode_reply_v3(7, &reply, &mut reply_frame);
    let each = budget_ns / 4;
    let mut buf = Vec::new();
    report.metric(
        "wire.encode_request_ns",
        engine::median_call_ns(each, 8, clock, || {
            frame::encode_request_v3(7, request, &mut buf);
            std::hint::black_box(&buf);
        }),
    );
    report.metric(
        "wire.decode_request_ns",
        engine::median_call_ns(each, 8, clock, || {
            std::hint::black_box(frame::decode_request_tagged(&request_frame).expect("own frame"));
        }),
    );
    report.metric(
        "wire.encode_reply_ns",
        engine::median_call_ns(each, 8, clock, || {
            frame::encode_reply_v3(7, &reply, &mut buf);
            std::hint::black_box(&buf);
        }),
    );
    report.metric(
        "wire.decode_reply_ns",
        engine::median_call_ns(each, 8, clock, || {
            std::hint::black_box(frame::decode_reply_tagged(&reply_frame).expect("own frame"));
        }),
    );
    report.metric("wire.bytes_per_request", request_frame.len() as f64);
    report.metric("wire.bytes_per_reply", reply_frame.len() as f64);
}

/// Rungs 0–2 for the workload's own model and loop shape: `ladder.*`,
/// `serve.*`, most of `wire.*`, `trace.overhead_share`.
fn serving_ladder(
    report: &mut Report,
    cfg: &RunConfig,
    serving: &Serving,
    clock: &Clock,
) -> Option<()> {
    // Always one plain server here; the shard section adds the router.
    let single = Serving {
        sharded: false,
        ..*serving
    };
    let mut dep = Deployment::start(&single, cfg.seed, clock);
    if cfg.flip_reference {
        dep.pool.flip_references();
    }
    let Front::Wire(stack) = &dep.front else {
        unreachable!("a non-sharded deployment is one wire server");
    };

    // Connection set-up is its own number, outside every window.
    let (extra, connect_ns) = drive::connect(stack.addr, 8, clock);
    drop(extra);
    report.metric(
        "wire.connect_us",
        stats::median(
            &connect_ns
                .iter()
                .map(|&n| n as f64 / 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    codec_survey(report, &dep.pool, cfg.ns(CODEC_SURVEY), clock);

    // Rung 1: the same traffic straight into the tenant queue.
    let window_ns = cfg.ns(RUNG_TRAFFIC);
    let before = stack.stats();
    let (mut inproc, t0_ns) = drive::inproc_window(
        &stack.tenant(),
        &dep.pool,
        serving.shape,
        (cfg.seed, 2),
        window_ns,
        clock,
    );
    let d = serve_delta(&before, &stack.stats());
    report
        .phases
        .push(Phase::of_traffic("rung1-serve", &inproc));
    let rung1 = drive::summarize(&[(&inproc, t0_ns)], window_ns)?;
    inproc.spans = spans_of(&inproc.samples, "serve.submit_wait");
    adopt(report, "rung1.serve", 1, (t0_ns, window_ns), &mut inproc);
    let batches = d.batches.max(1.0);
    let mean_infer_us = d.infer_us / batches;
    let mean_latency_us = d.latency_us / d.requests.max(1.0);
    report.metric("serve.inproc_rps", rung1.rps);
    report.metric("serve.inproc_p50_us", rung1.p50_us);
    report.metric("serve.mean_occupancy", d.requests / batches);
    report.metric("serve.full_flush_share", d.full / batches);
    report.metric("serve.timeout_flush_share", d.timeout / batches);
    report.metric("serve.mean_infer_us", mean_infer_us);
    report.metric("serve.queue_wait_us", mean_latency_us - mean_infer_us);
    report.metric("serve.expired", d.expired);
    report.metric("serve.shed", d.shed);
    report.metric("serve.rejected", d.rejected);
    report.metric("serve.panics", d.panics);

    // Rung 0: the model called directly at the occupancy rung 1 achieved.
    let occupancy = (d.requests / batches).round().max(1.0) as usize;
    let t0_ns = clock.now_ns();
    let (call_ns, mut direct) = drive::direct_calls(
        &mut dep.direct,
        &dep.pool,
        occupancy,
        cfg.ns(RUNG_DIRECT),
        clock,
    );
    report
        .phases
        .push(Phase::of_traffic("rung0-direct", &direct));
    if call_ns.is_empty() {
        return None;
    }
    let direct_us = stats::median(&call_ns) / 1e3;
    direct.spans = spans_of(&direct.samples, "core.call");
    adopt(
        report,
        "rung0.direct",
        0,
        (t0_ns, cfg.ns(RUNG_DIRECT)),
        &mut direct,
    );
    report.note("rung0_occupancy", occupancy as u64);
    report.metric("ladder.direct_us", direct_us);
    report.metric("serve.self_us", rung1.p50_us - direct_us);

    // Rung 2: over loopback, traced, then the same window untraced.
    let (mut traced, t0_ns) = drive::wire_window(
        &mut dep.conns,
        &dep.pool,
        serving.shape,
        (cfg.seed, 3),
        window_ns,
        clock,
        true,
    );
    report
        .phases
        .push(Phase::of_traffic("rung2-wire-traced", &traced));
    let rung2 = drive::summarize(&[(&traced, t0_ns)], window_ns)?;
    report.metric(
        "wire.client_send_us",
        trace::median_us(&traced.spans, "client.send").expect("sends were traced"),
    );
    report.metric(
        "wire.client_recv_us",
        trace::median_us(&traced.spans, "client.recv").expect("receives were traced"),
    );
    adopt(report, "rung2.wire", 2, (t0_ns, window_ns), &mut traced);
    report.metric("ladder.wire_p50_us", rung2.p50_us);
    report.metric("wire.self_us", rung2.p50_us - rung1.p50_us);

    let (untraced, t0_ns) = drive::wire_window(
        &mut dep.conns,
        &dep.pool,
        serving.shape,
        (cfg.seed, 3),
        window_ns,
        clock,
        false,
    );
    report
        .phases
        .push(Phase::of_traffic("rung2-wire-untraced", &untraced));
    let plain = drive::summarize(&[(&untraced, t0_ns)], window_ns)?;
    report.note("traced_rps", rung2.rps);
    report.note("untraced_rps", plain.rps);
    report.metric("trace.overhead_share", 1.0 - rung2.rps / plain.rps);

    // Idle round trips: the floor under every wire latency.
    let conn = &mut dep.conns[0];
    let t_end = clock.now_ns() + cfg.ns(PINGS);
    let mut rtts = Vec::new();
    while clock.now_ns() < t_end || rtts.len() < 20 {
        rtts.push(conn.ping(clock).expect("ping") as f64 / 1e3);
    }
    report.metric("wire.ping_rtt_us", stats::median(&rtts));
    dep.shutdown();
    Some(())
}

/// `shard.*`: the 2-shard deployment entered at three depths, and the same
/// operator unsharded as the base, all at `shard-2x-closed`'s shape.
fn shard_section(report: &mut Report, cfg: &RunConfig, clock: &Clock) -> Option<()> {
    let spec = serving(spec::SHARD_2X_CLOSED);
    let Shape::Closed {
        window: callers, ..
    } = spec.shape
    else {
        unreachable!("shard-2x-closed is a closed loop");
    };
    let mut base = Deployment::start(
        &Serving {
            sharded: false,
            ..spec
        },
        cfg.seed,
        clock,
    );
    let op = stack::operator(stack::SHARD_SHAPE);
    let cluster = ShardStack::start(&op);
    if cfg.flip_reference {
        base.pool.flip_references();
    }
    let pool = &base.pool;
    let depth_ns = cfg.ns(SHARD_DEPTH);

    let (single, t0_ns) = drive::wire_window(
        &mut base.conns,
        pool,
        spec.shape,
        (cfg.seed, 4),
        depth_ns,
        clock,
        false,
    );
    report
        .phases
        .push(Phase::of_traffic("shard-single-node", &single));
    report.metric(
        "shard.single_node_p50_us",
        drive::summarize(&[(&single, t0_ns)], depth_ns)?.p50_us,
    );

    // One scatter leg alone: `callers` blocking clients on shard 0.
    let (row_start, row_end) = cluster.segments[0];
    let m = op.rows();
    let leg_matches = |pick: usize, y: &[f32]| {
        let rows = row_end - row_start;
        y.len() == pool.rows * rows
            && (0..pool.rows).all(|b| {
                y[b * rows..(b + 1) * rows]
                    .iter()
                    .zip(&pool.references[pick][b * m + row_start..b * m + row_end])
                    .all(|(a, r)| a.to_bits() == r.to_bits())
            })
    };
    let shard0 = cluster.shard_addrs[0];
    let (mut leg, t0_ns) = blocking_callers(
        callers,
        pool,
        (cfg.seed, 5),
        depth_ns,
        clock,
        leg_matches,
        |_| {
            let mut client = WireClient::connect(shard0).expect("connecting to shard 0");
            move |x: &[f32]| {
                client
                    .infer_segment(MODEL, row_start, row_end, pool.rows, x, None)
                    .map_err(|e| e.to_string())
            }
        },
    );
    report
        .phases
        .push(Phase::of_traffic("shard-direct-leg", &leg));
    let leg_p50 = drive::summarize(&[(&leg, t0_ns)], depth_ns)?.p50_us;
    leg.spans = spans_of(&leg.samples, "wire.infer_segment");
    adopt(report, "shard.direct_leg", 3, (t0_ns, depth_ns), &mut leg);
    report.metric("shard.direct_leg_p50_us", leg_p50);

    // The router's scatter/gather, called in-process.
    let router = &cluster.router;
    let full_matches = |pick: usize, y: &[f32]| pool.matches(pick, y);
    let (mut routed_inproc, t0_ns) = blocking_callers(
        callers,
        pool,
        (cfg.seed, 6),
        depth_ns,
        clock,
        full_matches,
        |_| {
            move |x: &[f32]| {
                router
                    .infer_batch(MODEL, pool.rows, x, None)
                    .map_err(|e| e.to_string())
            }
        },
    );
    report
        .phases
        .push(Phase::of_traffic("shard-router-inproc", &routed_inproc));
    let inproc_p50 = drive::summarize(&[(&routed_inproc, t0_ns)], depth_ns)?.p50_us;
    routed_inproc.spans = spans_of(&routed_inproc.samples, "shard.infer_batch");
    adopt(
        report,
        "shard.router_inproc",
        4,
        (t0_ns, depth_ns),
        &mut routed_inproc,
    );
    report.metric("shard.router_inproc_p50_us", inproc_p50);

    // Rung 3: through the router's own wire front.
    let routed_ns = cfg.ns(SHARD_ROUTED);
    let (mut conns, _) = drive::connect(cluster.addr, 1, clock);
    let warm = drive::warm_up(&mut conns, pool, cfg.seed, 50, clock);
    assert_eq!(warm.failed, 0, "a warm-up request failed");
    let (mut routed, t0_ns) = drive::wire_window(
        &mut conns,
        pool,
        spec.shape,
        (cfg.seed, 7),
        routed_ns,
        clock,
        true,
    );
    report
        .phases
        .push(Phase::of_traffic("rung3-shard", &routed));
    let routed_p50 = drive::summarize(&[(&routed, t0_ns)], routed_ns)?.p50_us;
    adopt(report, "rung3.shard", 5, (t0_ns, routed_ns), &mut routed);
    report.metric("shard.routed_p50_us", routed_p50);
    report.metric("shard.self_us", inproc_p50 - leg_p50);
    report.metric("shard.front_us", routed_p50 - inproc_p50);
    report.metric("shard.legs_per_request", cluster.segments.len() as f64);

    drop(conns);
    cluster.shutdown();
    base.shutdown();
    Some(())
}

/// `loadgen.*`: LeNet under open-loop arrivals at each fixed rate.
fn rate_ladder(report: &mut Report, cfg: &RunConfig, clock: &Clock) -> Option<()> {
    let spec = serving(spec::LENET_WIRE_OPEN);
    let mut dep = Deployment::start(&spec, cfg.seed, clock);
    if cfg.flip_reference {
        dep.pool.flip_references();
    }
    let step_ns = cfg.ns(RATE_STEP);
    let mut slo_rate = 0.0f64;
    for (i, rate_rps) in RATES_RPS.into_iter().enumerate() {
        let (out, t0_ns) = drive::wire_window(
            &mut dep.conns,
            &dep.pool,
            Shape::Open { rate_rps },
            (cfg.seed, 8 + i as u64),
            step_ns,
            clock,
            false,
        );
        report.phases.push(Phase {
            name: ["rate-1000", "rate-2000", "rate-3000"][i],
            attempted: out.attempted,
            succeeded: out.succeeded(),
            failed: out.failed,
        });
        let s = drive::summarize(&[(&out, t0_ns)], step_ns)?;
        report.metric(&format!("loadgen.p99_us.r{rate_rps}"), s.p99_us);
        report.note(
            &format!("rate_{rate_rps}_tail_percentile"),
            s.tail_percentile,
        );
        report.note(&format!("rate_{rate_rps}_backlog_at_end"), s.backlog_at_end);
        let backlog_grows = s.backlog_at_end as f64 > rate_rps * BACKLOG_LIMIT_S;
        if out.failed == 0 && s.p99_us <= SLO_P99_US && !backlog_grows {
            slo_rate = slo_rate.max(rate_rps);
        }
        if rate_rps == LENET_OPEN_RATE_RPS {
            let late = stats::sort(out.lateness_ns.iter().map(|&l| l as f64 / 1e3).collect());
            report.metric(
                "loadgen.offered_rps",
                out.attempted as f64 * 1e9 / step_ns as f64,
            );
            report.metric("loadgen.achieved_rps", s.rps);
            report.metric("loadgen.lateness_p99_us", stats::percentile(&late, 0.99));
        }
    }
    report.metric("loadgen.slo_rate_rps", slo_rate);
    dep.shutdown();
    Some(())
}

/// The traced run: every per-layer metric, whatever the workload; the
/// workload chooses the model and loop shape the serving ladder climbs.
pub fn run_traced(cfg: &RunConfig) -> Report {
    let clock = Clock::start();
    let mut report = Report::default();
    let serving = serving(&cfg.workload);

    for (name, value) in engine::engine_survey(cfg.seed, cfg.ns(ENGINE_SURVEY), &clock) {
        report.metric(&name, value);
    }
    let lenet = stack::lenet();
    let mut rng = SplitMix64::stream(cfg.seed, 0x1e_4e7);
    let images: Vec<Vec<f32>> = (0..32).map(|_| rng.vector(lenet.input_len())).collect();
    for (name, value) in engine::nn_survey(&lenet, &images, cfg.ns(NN_SURVEY), &clock) {
        report.metric(&name, value);
    }

    // A section that gets no correct reply back stops there (`None`); the
    // metrics it did not reach are reported as missing and the run fails.
    serving_ladder(&mut report, cfg, &serving, &clock);
    shard_section(&mut report, cfg, &clock);
    rate_ladder(&mut report, cfg, &clock);
    report.note("generator_width", generator_width() as u64);
    report
}
