//! The load generator's wire client: protocol-v3 request ids over a
//! blocking socket, built on the public `frame` codec so it can drive an
//! open loop and time its own codec calls. One connection per generator
//! thread; the open loop gives each connection a sending and a receiving
//! thread, so a late reply never delays a send.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use circnn_wire::frame::{self, FrameAssembler};
use circnn_wire::{Reply, Request};

use crate::pool::Pool;
use crate::rng::SplitMix64;
use crate::trace::{Clock, Span};

/// A reply not arriving for this long fails the requests still in flight
/// (a hang must end the run, not outlast the driver's patience).
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A generator that wakes early spins for at most this long; anything
/// longer is slept (the kernel's timer slack is about this size).
const SPIN_BELOW_NS: u64 = 60_000;

/// One request's life as the client saw it: when it started (the send in
/// a closed loop, the *due* time in an open loop) and when its verified
/// reply was in hand. Packed into 8 bytes — a closed loop keeps a million
/// of these, and the generator's memory should stay a small part of
/// `peak_rss_mb`: completion time to the µs, latency to the ns (saturating
/// at 4.29 s, beyond any latency a passing run has).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    done_us: u32,
    latency_ns: u32,
}

impl Sample {
    pub fn new(start_ns: u64, done_ns: u64) -> Self {
        Self {
            done_us: (done_ns / 1_000) as u32,
            latency_ns: u32::try_from(done_ns.saturating_sub(start_ns)).unwrap_or(u32::MAX),
        }
    }

    pub fn done_ns(&self) -> u64 {
        u64::from(self.done_us) * 1_000
    }

    pub fn latency_ns(&self) -> u64 {
        u64::from(self.latency_ns)
    }

    pub fn start_ns(&self) -> u64 {
        self.done_ns().saturating_sub(self.latency_ns())
    }
}

/// What one phase of traffic did. A request counts as failed when its
/// reply is missing, late beyond [`READ_TIMEOUT`], a typed error, or not
/// bit-identical to the reference; only correct replies become samples.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub samples: Vec<Sample>,
    /// Open loop only: how long after its due time each request was sent.
    pub lateness_ns: Vec<u64>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        // Exactly, not by doubling: sample storage is the generator's
        // largest allocation, and slack in it would be noise in
        // `peak_rss_mb`.
        self.samples.reserve_exact(other.samples.len());
        self.samples.extend(other.samples);
        self.lateness_ns.extend(other.lateness_ns);
        self.spans.extend(other.spans);
    }

    pub fn succeeded(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Records the generator's own send of request `id` as a span.
    fn sent(&mut self, id: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name: "client.send",
            parent: "request",
            request_id: id,
            start_ns,
            end_ns,
        });
    }

    /// Records a correct reply: the sample, and when tracing the
    /// generator's decode-and-verify (`data_ns..done_ns`) and the whole
    /// request as spans.
    fn replied(&mut self, trace: bool, id: u64, start_ns: u64, data_ns: u64, done_ns: u64) {
        self.samples.push(Sample::new(start_ns, done_ns));
        if trace {
            self.spans.push(Span {
                name: "client.recv",
                parent: "request",
                request_id: id,
                start_ns: data_ns,
                end_ns: done_ns,
            });
            self.spans.push(Span {
                name: "request",
                parent: "",
                request_id: id,
                start_ns,
                end_ns: done_ns,
            });
        }
    }
}

/// When a closed loop stops issuing new requests.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many requests (warm-up).
    Count(u64),
    /// At this clock time (a measured window).
    At(u64),
}

pub struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    read_buf: Box<[u8]>,
    write_buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Self {
            stream,
            assembler: FrameAssembler::new(),
            read_buf: vec![0u8; 64 * 1024].into_boxed_slice(),
            write_buf: Vec::new(),
        })
    }

    /// A second handle on the same socket, for the open loop's sender.
    fn sender(&self) -> std::io::Result<Sender> {
        Ok(Sender {
            stream: self.stream.try_clone()?,
            write_buf: Vec::new(),
        })
    }

    pub fn send(&mut self, id: u64, req: &Request) -> std::io::Result<()> {
        frame::encode_request_v3(id, req, &mut self.write_buf);
        self.stream.write_all(&self.write_buf)
    }

    /// Blocks for the next reply. Returns its id, the reply, and the clock
    /// time at which its last byte was in hand (so the caller can time its
    /// own decode-and-verify separately from waiting).
    pub fn recv(&mut self, clock: &Clock) -> Result<(u64, Reply, u64), String> {
        let mut data_ns = clock.now_ns();
        loop {
            if let Some(bytes) = self.assembler.next_frame().map_err(|e| e.to_string())? {
                let (tag, reply) = frame::decode_reply_tagged(bytes).map_err(|e| e.to_string())?;
                let id = tag.ok_or("a v3 request was answered without its id")?;
                return Ok((id, reply, data_ns));
            }
            let n = self
                .stream
                .read(&mut self.read_buf)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("the server closed the connection".to_string());
            }
            data_ns = clock.now_ns();
            self.assembler.push(&self.read_buf[..n]);
        }
    }

    /// One `Ping` round trip, in ns.
    pub fn ping(&mut self, clock: &Clock) -> Result<u64, String> {
        let t0 = clock.now_ns();
        self.send(u64::MAX, &Request::Ping)
            .map_err(|e| format!("write: {e}"))?;
        match self.recv(clock)? {
            (u64::MAX, Reply::Pong, _) => Ok(clock.now_ns() - t0),
            other => Err(format!("expected Pong, got {other:?}")),
        }
    }
}

struct Sender {
    stream: TcpStream,
    write_buf: Vec<u8>,
}

impl Sender {
    fn send(&mut self, id: u64, req: &Request) -> std::io::Result<()> {
        frame::encode_request_v3(id, req, &mut self.write_buf);
        self.stream.write_all(&self.write_buf)
    }
}

/// The rows a reply carries, or `None` for anything but an inference
/// reply (typed errors included).
fn reply_rows(reply: &Reply) -> Option<&[f32]> {
    match reply {
        Reply::Infer { output } | Reply::InferBatch { output, .. } => Some(output),
        _ => None,
    }
}

/// Closed loop on one connection: `window` requests in flight, the next
/// sent only when a reply arrives. Pool entries are drawn from `picks`.
pub fn closed_loop(
    conn: &mut Conn,
    pool: &Pool,
    picks: &mut SplitMix64,
    window: usize,
    stop: Stop,
    clock: &Clock,
    trace: bool,
) -> Outcome {
    // Replies may overtake each other by at most the window.
    let slots = (window * 2).next_power_of_two();
    let mut in_flight = vec![(u64::MAX, 0usize, 0u64); slots];
    let mut out = Outcome::default();
    let mut next_id = 0u64;
    let mut outstanding = 0u64;
    loop {
        while outstanding < window as u64 {
            let start_ns = clock.now_ns();
            let more = match stop {
                Stop::Count(n) => next_id < n,
                Stop::At(t) => start_ns < t,
            };
            if !more {
                break;
            }
            let pick = picks.below(pool.len());
            out.attempted += 1;
            if let Err(e) = conn.send(next_id, &pool.requests[pick]) {
                eprintln!("benchmark: send failed: {e}");
                out.failed += outstanding + 1;
                return out;
            }
            if trace {
                out.sent(next_id, start_ns, clock.now_ns());
            }
            in_flight[next_id as usize % slots] = (next_id, pick, start_ns);
            next_id += 1;
            outstanding += 1;
        }
        if outstanding == 0 {
            return out;
        }
        let (id, reply, data_ns) = match conn.recv(clock) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("benchmark: receive failed: {e}");
                out.failed += outstanding;
                return out;
            }
        };
        outstanding -= 1;
        let (sent_id, pick, start_ns) = in_flight[id as usize % slots];
        let correct =
            sent_id == id && reply_rows(&reply).is_some_and(|rows| pool.matches(pick, rows));
        let done_ns = clock.now_ns();
        if !correct {
            out.failed += 1;
            continue;
        }
        out.replied(trace, id, start_ns, data_ns, done_ns);
    }
}

/// Sleeps (then briefly spins) until the clock reads `due_ns`.
pub fn wait_until(clock: &Clock, due_ns: u64) {
    loop {
        let now = clock.now_ns();
        if now >= due_ns {
            return;
        }
        let remaining = due_ns - now;
        if remaining > SPIN_BELOW_NS {
            std::thread::sleep(Duration::from_nanos(remaining - SPIN_BELOW_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// An open-loop arrival stream: `due_ns[i]` (from `t0_ns`) is when request
/// `i` is due and `picks[i]` the pool entry it carries.
pub struct Arrivals<'a> {
    pub t0_ns: u64,
    pub due_ns: &'a [u64],
    pub picks: &'a [usize],
}

/// Open loop: request `i` goes out on connection `i % conns` at its due
/// time whether or not earlier replies have arrived, and its latency runs
/// from the due time, so a stall is charged to every request that was due
/// while it lasted.
pub fn open_loop(
    conns: &mut [Conn],
    pool: &Pool,
    arrivals: &Arrivals<'_>,
    clock: &Clock,
    trace: bool,
) -> Outcome {
    let stride = conns.len();
    let mut out = Outcome::default();
    std::thread::scope(|s| {
        let mut threads = Vec::new();
        for (c, conn) in conns.iter_mut().enumerate() {
            let mine = (c..arrivals.due_ns.len()).step_by(stride);
            let expected = mine.clone().count() as u64;
            let mut sender = conn.sender().expect("cloning a socket handle");
            let send = s.spawn(move || {
                let mut part = Outcome::default();
                for i in mine {
                    let due_ns = arrivals.t0_ns + arrivals.due_ns[i];
                    wait_until(clock, due_ns);
                    let start_ns = clock.now_ns();
                    part.lateness_ns.push(start_ns - due_ns);
                    if let Err(e) = sender.send(i as u64, &pool.requests[arrivals.picks[i]]) {
                        eprintln!("benchmark: send failed: {e}");
                        break;
                    }
                    if trace {
                        part.sent(i as u64, start_ns, clock.now_ns());
                    }
                }
                part
            });
            let recv = s.spawn(move || {
                let mut part = Outcome {
                    attempted: expected,
                    ..Outcome::default()
                };
                for received in 0..expected {
                    let (id, reply, data_ns) = match conn.recv(clock) {
                        Ok(r) => r,
                        Err(e) => {
                            eprintln!("benchmark: receive failed: {e}");
                            part.failed += expected - received;
                            break;
                        }
                    };
                    let i = id as usize;
                    let correct = i < arrivals.picks.len()
                        && i % stride == c
                        && reply_rows(&reply)
                            .is_some_and(|rows| pool.matches(arrivals.picks[i], rows));
                    let done_ns = clock.now_ns();
                    if !correct {
                        part.failed += 1;
                        continue;
                    }
                    let start_ns = arrivals.t0_ns + arrivals.due_ns[i];
                    part.replied(trace, id, start_ns, data_ns, done_ns);
                }
                part
            });
            threads.push(send);
            threads.push(recv);
        }
        for t in threads {
            out.merge(t.join().expect("a generator thread panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A serial fake server: answers every `Infer` with its input doubled,
    /// and sleeps `stall` before answering request id `stall_at`.
    fn fake_server(stall_at: u64, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut assembler = FrameAssembler::new();
            let mut buf = [0u8; 4096];
            let mut reply_buf = Vec::new();
            loop {
                let n = match stream.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => n,
                };
                assembler.push(&buf[..n]);
                while let Some(bytes) = assembler.next_frame().unwrap() {
                    let (tag, req) = frame::decode_request_tagged(bytes).unwrap();
                    let id = tag.unwrap();
                    let Request::Infer { input, .. } = req else {
                        panic!("the test sends only Infer");
                    };
                    if id == stall_at {
                        std::thread::sleep(stall);
                    }
                    let output = input.iter().map(|x| x * 2.0).collect();
                    frame::encode_reply_v3(id, &Reply::Infer { output }, &mut reply_buf);
                    if stream.write_all(&reply_buf).is_err() {
                        return;
                    }
                }
            }
        });
        (addr, handle)
    }

    fn doubling_pool() -> Pool {
        Pool::build(11, "fake", 4, 4, 1, 16, &mut |x, batch, out| {
            assert_eq!(batch, 1);
            for (o, v) in out.iter_mut().zip(x) {
                *o = v * 2.0;
            }
        })
    }

    #[test]
    fn closed_loop_verifies_every_reply() {
        let (addr, server) = fake_server(u64::MAX, Duration::ZERO);
        let clock = Clock::start();
        let mut pool = doubling_pool();
        let mut conn = Conn::connect(addr).unwrap();
        let mut picks = SplitMix64::stream(1, 0);
        let ok = closed_loop(
            &mut conn,
            &pool,
            &mut picks,
            4,
            Stop::Count(200),
            &clock,
            true,
        );
        assert_eq!((ok.attempted, ok.failed, ok.succeeded()), (200, 0, 200));
        assert_eq!(ok.spans.iter().filter(|s| s.name == "request").count(), 200);
        // Flipped references: the checker must notice.
        pool.flip_references();
        let bad = closed_loop(
            &mut conn,
            &pool,
            &mut picks,
            4,
            Stop::Count(200),
            &clock,
            false,
        );
        assert_eq!(bad.attempted, 200);
        assert_eq!((bad.failed, bad.succeeded()), (200, 0));
        drop(conn);
        server.join().unwrap();
    }

    /// The open loop's defining property: a stalled server inflates every
    /// request that falls due during the stall, because latency runs from
    /// the due time and sending does not wait for replies. A closed loop
    /// with one request in flight would show one slow request.
    #[test]
    fn open_loop_charges_a_stall_to_every_request_due_during_it() {
        let stall = Duration::from_millis(60);
        let (addr, server) = fake_server(20, stall);
        let clock = Clock::start();
        let pool = doubling_pool();
        // One request per ms for 100 ms; request 20 stalls the server 60 ms.
        let due_ns: Vec<u64> = (0..100u64).map(|i| i * 1_000_000).collect();
        let picks: Vec<usize> = (0..100).map(|i| i % pool.len()).collect();
        let mut conns = [Conn::connect(addr).unwrap()];
        let t0_ns = clock.now_ns() + 5_000_000;
        let arrivals = Arrivals {
            t0_ns,
            due_ns: &due_ns,
            picks: &picks,
        };
        let out = open_loop(&mut conns, &pool, &arrivals, &clock, false);
        assert_eq!((out.attempted, out.failed, out.succeeded()), (100, 0, 100));
        // Latency is measured from the due time.
        for s in &out.samples {
            // (to the µs: that is what a sample keeps of its completion)
            let start = s.start_ns();
            assert!(due_ns.iter().any(|d| (t0_ns + d).abs_diff(start) < 1_000));
        }
        // Requests 20..≈80 were due while the server slept: the one due at
        // the start waits the whole stall, the one due 30 ms in about half.
        let slow = out
            .samples
            .iter()
            .filter(|s| s.latency_ns() > 10_000_000)
            .count();
        assert!(slow >= 40, "only {slow} requests saw the stall");
        // The generator kept its schedule through the stall.
        let late = crate::stats::sort(out.lateness_ns.iter().map(|&l| l as f64).collect());
        assert!(crate::stats::percentile(&late, 0.9) < 5_000_000.0);
        drop(conns);
        server.join().unwrap();
    }

    #[test]
    fn late_generator_is_reported_and_charged() {
        let (addr, server) = fake_server(u64::MAX, Duration::ZERO);
        let clock = Clock::start();
        let pool = doubling_pool();
        std::thread::sleep(Duration::from_millis(30));
        // A window that began 25 ms ago: every request is already overdue.
        let due_ns: Vec<u64> = (0..10u64).map(|i| i * 100_000).collect();
        let picks = vec![0usize; 10];
        let mut conns = [Conn::connect(addr).unwrap()];
        let t0_ns = clock.now_ns() - 25_000_000;
        let arrivals = Arrivals {
            t0_ns,
            due_ns: &due_ns,
            picks: &picks,
        };
        let out = open_loop(&mut conns, &pool, &arrivals, &clock, false);
        assert_eq!(out.succeeded(), 10);
        assert!(out.lateness_ns.iter().all(|&l| l > 20_000_000));
        assert!(out.samples.iter().all(|s| s.latency_ns() > 20_000_000));
        drop(conns);
        server.join().unwrap();
    }
}
