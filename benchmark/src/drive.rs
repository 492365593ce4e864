//! Pushing one seeded request stream through a stack at a chosen height:
//! a direct call into the model (rung 0), the scheduler in-process
//! (rung 1), or a server over loopback (rungs 2 and 3) — and summarizing
//! what came back.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::mpsc;

use circnn_serve::{ResponseHandle, ServeError, TenantHandle};

use crate::client::{self, Arrivals, Conn, Outcome, Sample, Stop};
use crate::pool::{DirectFn, Pool};
use crate::rng::{poisson_schedule, SplitMix64};
use crate::stats::{self, Tail};
use crate::trace::Clock;

/// How requests are offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// `conns` callers, each keeping `window` requests in flight and
    /// sending the next only when a reply arrives.
    Closed { conns: usize, window: usize },
    /// Poisson arrivals at `rate_rps`, sent when due whatever has come
    /// back, split over every generator connection.
    Open { rate_rps: f64 },
}

/// Generator threads and the most connections it opens: `min(nproc, 2)`,
/// so the generator never outnumbers the cores it shares with the server.
pub fn generator_width() -> usize {
    crate::host::nproc().min(2)
}

/// Opens `count` connections; returns them with each one's connect time.
pub fn connect(addr: SocketAddr, count: usize, clock: &Clock) -> (Vec<Conn>, Vec<u64>) {
    let mut conns = Vec::with_capacity(count);
    let mut took_ns = Vec::with_capacity(count);
    for _ in 0..count {
        let t0 = clock.now_ns();
        conns.push(Conn::connect(addr).expect("connecting to the in-process server"));
        took_ns.push(clock.now_ns() - t0);
    }
    (conns, took_ns)
}

/// One closed loop per connection, each on its own thread; `stream` keeps
/// the pick streams of different uses of a seed apart.
fn closed_loops(
    conns: &mut [Conn],
    pool: &Pool,
    (seed, stream): (u64, u64),
    window: usize,
    stop: Stop,
    clock: &Clock,
    trace: bool,
) -> Outcome {
    let mut total = Outcome::default();
    std::thread::scope(|s| {
        let threads: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut picks = SplitMix64::stream(seed, (stream << 8) + c as u64);
                    client::closed_loop(conn, pool, &mut picks, window, stop, clock, trace)
                })
            })
            .collect();
        for t in threads {
            total.merge(t.join().expect("a generator thread panicked"));
        }
    });
    total
}

/// A fixed number of closed-loop requests over every connection: fills
/// caches, sizes workspaces and buffers. Part of set-up, never measured.
pub fn warm_up(
    conns: &mut [Conn],
    pool: &Pool,
    seed: u64,
    requests: u64,
    clock: &Clock,
) -> Outcome {
    let per_conn = requests.div_ceil(conns.len() as u64);
    closed_loops(
        conns,
        pool,
        (seed, 0x3a00),
        8,
        Stop::Count(per_conn),
        clock,
        false,
    )
}

/// One measured window of wire traffic of the given shape. `phase` keeps
/// the pick and arrival streams of different windows of a run apart.
/// Returns the outcome and the window's start on `clock`.
pub fn wire_window(
    conns: &mut [Conn],
    pool: &Pool,
    shape: Shape,
    (seed, phase): (u64, u64),
    window_ns: u64,
    clock: &Clock,
    trace: bool,
) -> (Outcome, u64) {
    match shape {
        Shape::Closed {
            conns: use_conns,
            window,
        } => {
            let t0_ns = clock.now_ns();
            let stop = Stop::At(t0_ns + window_ns);
            let conns = &mut conns[..use_conns];
            let total = closed_loops(conns, pool, (seed, phase), window, stop, clock, trace);
            (total, t0_ns)
        }
        Shape::Open { rate_rps } => {
            let (due_ns, picks) = arrivals(pool, (seed, phase), rate_rps, window_ns);
            // A short lead so the first arrivals are not already late.
            let t0_ns = clock.now_ns() + 2_000_000;
            let arrivals = Arrivals {
                t0_ns,
                due_ns: &due_ns,
                picks: &picks,
            };
            (
                client::open_loop(conns, pool, &arrivals, clock, trace),
                t0_ns,
            )
        }
    }
}

fn arrivals(
    pool: &Pool,
    (seed, phase): (u64, u64),
    rate_rps: f64,
    window_ns: u64,
) -> (Vec<u64>, Vec<usize>) {
    let due_ns = poisson_schedule(seed ^ (phase << 32), rate_rps, window_ns);
    let mut rng = SplitMix64::stream(seed, phase << 8);
    let picks = due_ns.iter().map(|_| rng.below(pool.len())).collect();
    (due_ns, picks)
}

fn submit(
    tenant: &TenantHandle,
    pool: &Pool,
    pick: usize,
) -> Result<Vec<ResponseHandle>, ServeError> {
    pool.inputs[pick]
        .chunks(pool.input_len)
        .map(|row| tenant.submit(row.to_vec()))
        .collect()
}

/// Waits for every row of one request and checks the stitched output.
fn redeem(handles: Vec<ResponseHandle>, pool: &Pool, pick: usize) -> bool {
    let mut output = Vec::with_capacity(pool.rows * pool.output_len);
    for h in handles {
        match h.wait() {
            Ok(row) => output.extend_from_slice(&row),
            Err(_) => return false,
        }
    }
    pool.matches(pick, &output)
}

/// The same traffic as [`wire_window`], submitted straight to the tenant
/// queue: no sockets, no frames — rung 1.
pub fn inproc_window(
    tenant: &TenantHandle,
    pool: &Pool,
    shape: Shape,
    (seed, phase): (u64, u64),
    window_ns: u64,
    clock: &Clock,
) -> (Outcome, u64) {
    let mut total = Outcome::default();
    match shape {
        Shape::Closed { conns, window } => {
            let t0_ns = clock.now_ns();
            std::thread::scope(|s| {
                let threads: Vec<_> = (0..conns)
                    .map(|c| {
                        s.spawn(move || {
                            let mut picks = SplitMix64::stream(seed, (phase << 8) + c as u64);
                            let mut out = Outcome::default();
                            let mut in_flight = VecDeque::with_capacity(window);
                            loop {
                                while in_flight.len() < window {
                                    let start_ns = clock.now_ns();
                                    if start_ns >= t0_ns + window_ns {
                                        break;
                                    }
                                    let pick = picks.below(pool.len());
                                    out.attempted += 1;
                                    match submit(tenant, pool, pick) {
                                        Ok(h) => in_flight.push_back((h, pick, start_ns)),
                                        Err(_) => out.failed += 1,
                                    }
                                }
                                let Some((handles, pick, start_ns)) = in_flight.pop_front() else {
                                    return out;
                                };
                                if redeem(handles, pool, pick) {
                                    let done_ns = clock.now_ns();
                                    out.samples.push(Sample::new(start_ns, done_ns));
                                } else {
                                    out.failed += 1;
                                }
                            }
                        })
                    })
                    .collect();
                for t in threads {
                    total.merge(t.join().expect("a generator thread panicked"));
                }
            });
            (total, t0_ns)
        }
        Shape::Open { rate_rps } => {
            let (due_ns, picks) = arrivals(pool, (seed, phase), rate_rps, window_ns);
            let (due_ns, picks) = (&due_ns, &picks);
            let stride = generator_width();
            let t0_ns = clock.now_ns() + 2_000_000;
            std::thread::scope(|s| {
                let mut threads = Vec::new();
                for c in 0..stride {
                    let (tx, rx) = mpsc::channel::<(Vec<ResponseHandle>, usize)>();
                    threads.push(s.spawn(move || {
                        let mut out = Outcome::default();
                        for i in (c..due_ns.len()).step_by(stride) {
                            client::wait_until(clock, t0_ns + due_ns[i]);
                            out.lateness_ns.push(clock.now_ns() - (t0_ns + due_ns[i]));
                            out.attempted += 1;
                            match submit(tenant, pool, picks[i]) {
                                Ok(h) => tx.send((h, i)).expect("the waiter outlives the sender"),
                                Err(_) => out.failed += 1,
                            }
                        }
                        out
                    }));
                    threads.push(s.spawn(move || {
                        let mut out = Outcome::default();
                        for (handles, i) in rx {
                            if redeem(handles, pool, picks[i]) {
                                out.samples
                                    .push(Sample::new(t0_ns + due_ns[i], clock.now_ns()));
                            } else {
                                out.failed += 1;
                            }
                        }
                        out
                    }));
                }
                for t in threads {
                    total.merge(t.join().expect("a generator thread panicked"));
                }
            });
            (total, t0_ns)
        }
    }
}

/// Rung 0: the model called directly on `[batch, n]` slabs cut from the
/// pool, for `budget_ns`. Returns the per-call times (ns) and the outcome
/// (one attempt per call; a call fails if any row differs from its
/// batch-1 reference — batch-composition invariance makes that exact).
pub fn direct_calls(
    direct: &mut DirectFn<'_>,
    pool: &Pool,
    batch: usize,
    budget_ns: u64,
    clock: &Clock,
) -> (Vec<f64>, Outcome) {
    let (n, m) = (pool.input_len, pool.output_len);
    let samples = pool.len() * pool.rows;
    let sample_in = |s: usize| &pool.inputs[s / pool.rows][(s % pool.rows) * n..][..n];
    let sample_ref = |s: usize| &pool.references[s / pool.rows][(s % pool.rows) * m..][..m];
    let mut slab = vec![0.0f32; batch * n];
    let mut y = vec![0.0f32; batch * m];
    let mut call_ns = Vec::new();
    let mut out = Outcome::default();
    let mut first = 0usize;
    let t_end = clock.now_ns() + budget_ns;
    loop {
        for b in 0..batch {
            slab[b * n..(b + 1) * n].copy_from_slice(sample_in((first + b) % samples));
        }
        let start_ns = clock.now_ns();
        direct(&slab, batch, &mut y);
        let done_ns = clock.now_ns();
        out.attempted += 1;
        let correct = (0..batch).all(|b| {
            y[b * m..(b + 1) * m]
                .iter()
                .zip(sample_ref((first + b) % samples))
                .all(|(a, r)| a.to_bits() == r.to_bits())
        });
        if correct {
            call_ns.push((done_ns - start_ns) as f64);
            out.samples.push(Sample::new(start_ns, done_ns));
        } else {
            out.failed += 1;
        }
        first = (first + batch) % samples;
        if done_ns >= t_end {
            return (call_ns, out);
        }
    }
}

/// Replies a slice must hold: the fewest that leave ten beyond the p99.
pub const SLICE_REPLIES: usize = 1000;
/// The shortest a slice may be, so that a burst of replies is not a rate.
pub const SLICE_MIN_NS: u64 = 100_000_000;

/// Each end-to-end traffic metric at its best slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestSlices {
    /// Highest rate of correct replies any slice held.
    pub rps: f64,
    /// Lowest median latency of any slice.
    pub p50_us: f64,
    /// Lowest tail latency of any slice; a slice's tail is its p99, or
    /// the highest percentile with ten samples beyond it ([`stats::tail`]).
    pub p99_us: f64,
    /// The percentile the reported tail really is.
    pub tail_percentile: f64,
}

/// Cuts each round (`(outcome, start)` pairs, `window_ns` long) into
/// slices — consecutive replies in order of arrival, each slice the
/// shortest that holds [`SLICE_REPLIES`] of them and lasts
/// [`SLICE_MIN_NS`]; what is left over at a round's end joins its last
/// slice, and a round too short for one slice is one — and returns each
/// metric at its best slice (the three need not be the same slice).
/// `None` when no round got a correct reply back inside its window.
pub fn best_slices(rounds: &[(&Outcome, u64)], window_ns: u64) -> Option<BestSlices> {
    let mut best: Option<BestSlices> = None;
    for (out, t0_ns) in rounds {
        let end_ns = t0_ns + window_ns;
        let mut replies: Vec<(u64, f64)> = out
            .samples
            .iter()
            .filter(|s| s.done_ns() >= *t0_ns && s.done_ns() < end_ns)
            .map(|s| (s.done_ns(), s.latency_ns() as f64 / 1e3))
            .collect();
        replies.sort_by_key(|(done_ns, _)| *done_ns);
        let (mut first, mut from_ns) = (0, *t0_ns);
        while first < replies.len() {
            // The slice's last reply: the first that fills it.
            let mut last = first + SLICE_REPLIES - 1;
            while last < replies.len() && replies[last].0 - from_ns < SLICE_MIN_NS {
                last += 1;
            }
            // No room for another full slice after this one: take the rest.
            let until_ns = if last + SLICE_REPLIES >= replies.len() {
                last = replies.len() - 1;
                end_ns
            } else {
                replies[last].0
            };
            let latency_us = stats::sort(replies[first..=last].iter().map(|(_, l)| *l).collect());
            let tail = stats::tail(&latency_us);
            let slice = BestSlices {
                rps: latency_us.len() as f64 * 1e9 / (until_ns - from_ns) as f64,
                p50_us: stats::percentile(&latency_us, 0.5),
                p99_us: tail.value,
                tail_percentile: tail.percentile,
            };
            best = Some(match best {
                None => slice,
                Some(b) => {
                    let tail = if slice.p99_us < b.p99_us { slice } else { b };
                    BestSlices {
                        rps: b.rps.max(slice.rps),
                        p50_us: b.p50_us.min(slice.p50_us),
                        p99_us: tail.p99_us,
                        tail_percentile: tail.tail_percentile,
                    }
                }
            });
            (first, from_ns) = (last + 1, until_ns);
        }
    }
    best
}

/// What windows of traffic amount to as a whole, host and all: medians
/// over their whole seconds (the traced run's rungs, and the untraced
/// run's `whole_run_*` notes).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median of the rates of correct replies in each whole second.
    pub rps: f64,
    /// Median latency over all samples.
    pub p50_us: f64,
    /// Median over the seconds of each second's tail latency: the p99 a
    /// typical second shows. One host stall lands in one second and moves
    /// this as little as it moves the median rate.
    pub p99_us: f64,
    /// The lowest percentile any second's tail had to settle for (0.99
    /// when every second had ten samples beyond its p99).
    pub tail_percentile: f64,
    /// The tail over all samples of all windows, stalls included.
    pub window_tail: Tail,
    /// Correct replies that arrived after their window closed: work still
    /// in the system when arrivals stopped.
    pub backlog_at_end: u64,
}

/// Summarizes windows of `window_ns` each (`(outcome, start)` pairs): the
/// rounds of an untraced run, or the one window of a ladder rung. `None`
/// when no request succeeded (the outcomes' failed counts say why).
pub fn summarize(windows: &[(&Outcome, u64)], window_ns: u64) -> Option<Summary> {
    let latency_us = |s: &Sample| s.latency_ns() as f64 / 1e3;
    let all = stats::sort(
        windows
            .iter()
            .flat_map(|(out, _)| out.samples.iter().map(latency_us))
            .collect(),
    );
    if all.is_empty() {
        return None;
    }
    let slices = stats::slice_count(window_ns);
    let (mut rates, mut tails, mut backlog_at_end) = (Vec::new(), Vec::new(), 0u64);
    for (out, t0_ns) in windows {
        let end_ns = t0_ns + window_ns;
        rates.extend(stats::slice_rates(
            out.samples.iter().map(Sample::done_ns),
            *t0_ns,
            end_ns,
            slices,
        ));
        let mut by_slice = vec![Vec::new(); slices];
        for s in &out.samples {
            let done_ns = s.done_ns();
            if done_ns >= end_ns {
                backlog_at_end += 1;
            } else if done_ns >= *t0_ns {
                let i = (done_ns - t0_ns) as u128 * slices as u128 / window_ns as u128;
                by_slice[i as usize].push(latency_us(s));
            }
        }
        tails.extend(
            by_slice
                .into_iter()
                .filter(|slice| !slice.is_empty())
                .map(|slice| stats::tail(&stats::sort(slice))),
        );
    }
    let window_tail = stats::tail(&all);
    Some(Summary {
        rps: stats::median(&rates),
        p50_us: stats::percentile(&all, 0.5),
        p99_us: if tails.is_empty() {
            window_tail.value
        } else {
            stats::median(&tails.iter().map(|t| t.value).collect::<Vec<_>>())
        },
        tail_percentile: tails
            .iter()
            .map(|t| t.percentile)
            .fold(window_tail.percentile, f64::min),
        window_tail,
        backlog_at_end,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `count` replies spread evenly over a round starting at `t0_ns`,
    /// each taking `latency_ns`.
    fn round(t0_ns: u64, window_ns: u64, count: u64, latency_ns: u64) -> Outcome {
        let mut out = Outcome::default();
        for i in 0..count {
            let done_ns = t0_ns + (i + 1) * window_ns / (count + 1);
            out.samples.push(Sample::new(done_ns - latency_ns, done_ns));
        }
        out.attempted = count;
        out
    }

    #[test]
    fn best_slices_report_the_undisturbed_stretch() {
        let w = 1_000_000_000;
        // Rounds on a slowed host, one on a quiet one, one stalled.
        let slow = round(0, w, 1500, 400_000);
        let quiet = round(2 * w, w, 2000, 300_000);
        let stalled = round(4 * w, w, 40, 9_000_000);
        let rounds = [(&slow, 0), (&quiet, 2 * w), (&stalled, 4 * w), (&slow, 0)];
        let best = best_slices(&rounds, w).expect("replies came back");
        // 2000 replies are two slices of 1000, each half the round.
        assert!((best.rps - 2000.0).abs() < 2.5, "{}", best.rps);
        assert_eq!(best.p50_us, 300.0);
        assert_eq!(best.p99_us, 300.0);
        assert_eq!(best.tail_percentile, 0.99);
        // The whole-run summary of the same rounds follows the host.
        let all = summarize(&rounds, w).expect("replies came back");
        assert_eq!(all.p50_us, 400.0);
    }

    #[test]
    fn slices_hold_a_thousand_replies_and_last_a_tenth_of_a_second() {
        let w = 1_000_000_000;
        // 50 000 replies/s, the first half of the round twice as slow to
        // answer: slices are 100 ms (5000 replies), never 20 ms.
        let mut out = round(w, w, 50_000, 200_000);
        for s in out.samples.iter_mut().take(25_000) {
            *s = Sample::new(s.start_ns() - 200_000, s.done_ns());
        }
        let best = best_slices(&[(&out, w)], w).expect("replies came back");
        assert!((best.rps - 50_000.0).abs() < 50.0, "{}", best.rps);
        assert_eq!(best.p50_us, 200.0);
        // 1500 replies in a round: too few for two slices, so one of 1500.
        let out = round(0, w, 1500, 100_000);
        let best = best_slices(&[(&out, 0)], w).expect("replies came back");
        assert_eq!(best.rps, 1500.0);
    }

    #[test]
    fn best_slices_count_only_replies_inside_the_window() {
        let w = 1_000_000_000;
        let mut out = round(0, w, 100, 1_000);
        // Arrived after the window closed: backlog, not throughput.
        out.samples.push(Sample::new(w, w + 5_000));
        let best = best_slices(&[(&out, 0)], w).expect("replies came back");
        assert_eq!(best.rps, 100.0);
        assert!(best_slices(&[(&Outcome::default(), 0)], w).is_none());
    }
}
