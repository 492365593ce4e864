//! The offline engine job list (`engine-offline`, and the short engine
//! reading every other workload takes beside its traffic), and the
//! per-job / per-plane / per-layer timings the traced run derives from the
//! same jobs. No sockets, no scheduler: `forward_batch_into_with_threads`,
//! `infer_batch_into` and `step_batch_into_with_threads` called directly,
//! on f32 operators and on their `quantize()`d twins.

use circnn_core::{
    default_batch_threads, BlockCirculantMatrix, CirculantConv2d, CirculantRnnCell, ConvWorkspace,
    QuantConfig, QuantWorkspace, QuantizedConv2d, QuantizedOperator, QuantizedRnnCell,
    RecurrentWorkspace, Workspace,
};
use circnn_fft::BatchFftPlan;
use circnn_nn::{InferScratch, Layer};
use circnn_serve::SequentialModel;
use circnn_tensor::init::seeded_rng;
use circnn_tensor::Tensor;

use crate::rng::SplitMix64;
use crate::stack::{self, FC_SHAPE};
use crate::stats;
use crate::trace::Clock;

/// Which operator family a job runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    F32,
    Q16,
}

/// FC 2048/1024/128 — the shape whose quantized twin is *slower* than f32
/// (`BENCH_batched.json`, the 0.75x row).
pub const FC_LARGE_SHAPE: (usize, usize, usize) = (2048, 1024, 128);
/// conv 16→32 on 8×8, r = 3, k = 16.
const CONV: (usize, usize, usize, usize, usize) = (16, 32, 8, 3, 16);
/// RNN cell: 128 inputs, 512 hidden, k = 32.
const RNN: (usize, usize, usize) = (128, 512, 32);

/// Input slabs per job; calls rotate through them.
const SLABS: usize = 4;

/// The job list runs the engine's one-thread kernels (as the legacy
/// `batched_ns` columns do). The default, `default_batch_threads()`, spawns
/// and joins that many scoped threads in every plane dispatch; on the
/// 2-vCPU reference box that cost swings ±25 % with the host while the
/// arithmetic holds to ±3 %, so gating `throughput_sps_*` on it would gate
/// on the host. The serving workloads do run the default (it is what
/// `ServeModel` calls), and `core.fc_default_threads_ns_per_sample.b32`
/// keeps the difference in view.
const ONE_THREAD: usize = 1;

/// One kind of engine call on fixed inputs, with its batch-1 references.
pub trait Job {
    /// Samples (rows, images, sequence-steps) one call processes.
    fn samples_per_call(&self) -> usize;
    /// Runs slab `slab` (`< SLABS`); the result is left in
    /// `self.checked().out`.
    fn call(&mut self, precision: Precision, slab: usize);
    fn checked(&self) -> &Checked;
}

/// A job's output buffer and what it is checked against.
pub struct Checked {
    pub out: Vec<f32>,
    refs: References,
}

impl Checked {
    /// Whether `out` is, bit for bit, the reference of `(precision, slab)`.
    /// `flip` corrupts one bit of the reference first, so that the checker
    /// itself can be checked.
    fn matches(&self, precision: Precision, slab: usize, flip: bool) -> bool {
        let reference = self.refs.get(precision, slab);
        self.out.len() == reference.len()
            && self
                .out
                .iter()
                .zip(reference)
                .enumerate()
                .all(|(i, (a, r))| a.to_bits() == r.to_bits() ^ u32::from(flip && i == 0))
    }
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .fold(0.0f32, |m, (x, y)| m.max((x - y).abs()))
}

/// What `call(precision, slab)` must produce, bit for bit, for every slab
/// at both precisions (`[precision][slab]`): each sample computed alone
/// (batch 1) in set-up.
struct References {
    by_precision: [Vec<Vec<f32>>; 2],
    /// Whether every quantized reference lies within the operator's own
    /// `error_bound()` of the f32 reference.
    within_bound: bool,
}

impl References {
    fn build(
        slabs: usize,
        error_bound: f32,
        mut one_slab: impl FnMut(Precision, usize) -> Vec<f32>,
    ) -> Self {
        let f32_refs: Vec<Vec<f32>> = (0..slabs).map(|s| one_slab(Precision::F32, s)).collect();
        let q16_refs: Vec<Vec<f32>> = (0..slabs).map(|s| one_slab(Precision::Q16, s)).collect();
        let within_bound = f32_refs
            .iter()
            .zip(&q16_refs)
            .all(|(f, q)| max_abs_diff(f, q) <= error_bound);
        Self {
            by_precision: [f32_refs, q16_refs],
            within_bound,
        }
    }

    fn get(&self, precision: Precision, slab: usize) -> &[f32] {
        &self.by_precision[precision as usize][slab]
    }
}

pub struct FcJob {
    op: BlockCirculantMatrix,
    qop: QuantizedOperator,
    batch: usize,
    threads: usize,
    slabs: Vec<Vec<f32>>,
    ws: Workspace,
    qws: QuantWorkspace,
    checked: Checked,
}

impl FcJob {
    pub fn new(shape: (usize, usize, usize), batch: usize, seed: u64) -> Self {
        Self::with_threads(shape, batch, seed, ONE_THREAD)
    }

    pub fn with_threads(
        shape: (usize, usize, usize),
        batch: usize,
        seed: u64,
        threads: usize,
    ) -> Self {
        let op = stack::operator(shape);
        let qop = QuantizedOperator::from_operator(&op, QuantConfig::default())
            .expect("the default formats cannot overflow i32 at these shapes");
        let (m, n) = (op.rows(), op.cols());
        let mut rng = SplitMix64::stream(seed, (m * 131 + n * 17 + batch) as u64);
        let slabs: Vec<Vec<f32>> = (0..SLABS).map(|_| rng.vector(batch * n)).collect();
        let (mut ws, mut qws) = (Workspace::new(), QuantWorkspace::new());
        let refs = References::build(SLABS, qop.error_bound(), |precision, s| {
            let mut y = vec![0.0f32; batch * m];
            for (x, y) in slabs[s].chunks(n).zip(y.chunks_mut(m)) {
                match precision {
                    Precision::F32 => {
                        op.forward_batch_into_with_threads(x, 1, &mut ws, y, ONE_THREAD)
                    }
                    Precision::Q16 => qop.infer_batch_into(x, 1, &mut qws, y, ONE_THREAD),
                }
                .expect("sized slabs");
            }
            y
        });
        Self {
            checked: Checked {
                out: vec![0.0; batch * m],
                refs,
            },
            op,
            qop,
            batch,
            threads,
            slabs,
            ws,
            qws,
        }
    }

    /// The retired single-sample path on the job's first row — the base of
    /// the B = 1 ratio.
    pub fn matvec_once(&self) -> Vec<f32> {
        self.op
            .matvec(&self.slabs[0][..self.op.cols()])
            .expect("a sized input")
    }
}

impl Job for FcJob {
    fn samples_per_call(&self) -> usize {
        self.batch
    }

    fn call(&mut self, precision: Precision, slab: usize) {
        let x = &self.slabs[slab];
        match precision {
            Precision::F32 => self.op.forward_batch_into_with_threads(
                x,
                self.batch,
                &mut self.ws,
                &mut self.checked.out,
                self.threads,
            ),
            Precision::Q16 => self.qop.infer_batch_into(
                x,
                self.batch,
                &mut self.qws,
                &mut self.checked.out,
                self.threads,
            ),
        }
        .expect("sized slabs");
    }

    fn checked(&self) -> &Checked {
        &self.checked
    }
}

pub struct ConvJob {
    conv: CirculantConv2d,
    qconv: QuantizedConv2d,
    batch: usize,
    slabs: Vec<Tensor>,
    ws: ConvWorkspace,
    qws: QuantWorkspace,
    checked: Checked,
}

impl ConvJob {
    pub fn new(batch: usize, seed: u64) -> Self {
        let (c, p, hw, r, k) = CONV;
        let mut conv = CirculantConv2d::new(&mut seeded_rng(0xc0_4f), c, p, r, 1, r / 2, k)
            .expect("a valid conv shape");
        conv.set_training(false);
        let qconv = conv
            .quantize(QuantConfig::default())
            .expect("the default formats cannot overflow i32 at this shape");
        let (per_in, per_out) = (c * hw * hw, p * hw * hw);
        let mut rng = SplitMix64::stream(seed, 0xc0_4f00 + batch as u64);
        let slabs: Vec<Tensor> = (0..SLABS)
            .map(|_| Tensor::from_vec(rng.vector(batch * per_in), &[batch, c, hw, hw]))
            .collect();
        let (mut ws, mut qws) = (ConvWorkspace::new(), QuantWorkspace::new());
        let refs = References::build(SLABS, qconv.error_bound(), |precision, s| {
            let mut y = vec![0.0f32; batch * per_out];
            for (x, y) in slabs[s].data().chunks(per_in).zip(y.chunks_mut(per_out)) {
                let image = Tensor::from_vec(x.to_vec(), &[1, c, hw, hw]);
                match precision {
                    Precision::F32 => conv.infer_batch_into(&image, &mut ws, y, ONE_THREAD),
                    Precision::Q16 => qconv.infer_batch_into(&image, &mut qws, y, ONE_THREAD),
                }
                .expect("sized slabs");
            }
            y
        });
        Self {
            checked: Checked {
                out: vec![0.0; batch * per_out],
                refs,
            },
            conv,
            qconv,
            batch,
            slabs,
            ws,
            qws,
        }
    }
}

impl Job for ConvJob {
    fn samples_per_call(&self) -> usize {
        self.batch
    }

    fn call(&mut self, precision: Precision, slab: usize) {
        let x = &self.slabs[slab];
        match precision {
            Precision::F32 => {
                self.conv
                    .infer_batch_into(x, &mut self.ws, &mut self.checked.out, ONE_THREAD)
            }
            Precision::Q16 => {
                self.qconv
                    .infer_batch_into(x, &mut self.qws, &mut self.checked.out, ONE_THREAD)
            }
        }
        .expect("sized slabs");
    }

    fn checked(&self) -> &Checked {
        &self.checked
    }
}

/// One recurrent step `h' = tanh(W_ih·x + W_hh·h + b)` for `batch`
/// sequences; a sample is one sequence-step.
pub struct RnnJob {
    cell: CirculantRnnCell,
    qcell: QuantizedRnnCell,
    batch: usize,
    /// `(x, h)` per slab.
    slabs: Vec<(Vec<f32>, Vec<f32>)>,
    ws: RecurrentWorkspace,
    qws: QuantWorkspace,
    checked: Checked,
}

impl RnnJob {
    pub fn new(batch: usize, seed: u64) -> Self {
        let (in_dim, hidden, k) = RNN;
        let cell = CirculantRnnCell::new(&mut seeded_rng(0x4e_11), in_dim, hidden, k, 0.9)
            .expect("a valid cell shape");
        let qcell = cell
            .quantize(QuantConfig::default())
            .expect("the default formats cannot overflow i32 at this shape");
        let mut rng = SplitMix64::stream(seed, 0x4e_1100 + batch as u64);
        let slabs: Vec<(Vec<f32>, Vec<f32>)> = (0..SLABS)
            .map(|_| (rng.vector(batch * in_dim), rng.vector(batch * hidden)))
            .collect();
        let (mut ws, mut qws) = (RecurrentWorkspace::new(), QuantWorkspace::new());
        let refs = References::build(SLABS, qcell.error_bound(), |precision, s| {
            let (xs, hs) = &slabs[s];
            let mut next = vec![0.0f32; batch * hidden];
            for ((x, h), y) in xs
                .chunks(in_dim)
                .zip(hs.chunks(hidden))
                .zip(next.chunks_mut(hidden))
            {
                match precision {
                    Precision::F32 => {
                        cell.step_batch_into_with_threads(x, h, 1, &mut ws, y, ONE_THREAD)
                    }
                    Precision::Q16 => qcell.step_batch_into(x, h, 1, &mut qws, y, ONE_THREAD),
                }
                .expect("sized slabs");
            }
            next
        });
        Self {
            checked: Checked {
                out: vec![0.0; batch * hidden],
                refs,
            },
            cell,
            qcell,
            batch,
            slabs,
            ws,
            qws,
        }
    }
}

impl Job for RnnJob {
    fn samples_per_call(&self) -> usize {
        self.batch
    }

    fn call(&mut self, precision: Precision, slab: usize) {
        let (x, h) = &self.slabs[slab];
        match precision {
            Precision::F32 => self.cell.step_batch_into_with_threads(
                x,
                h,
                self.batch,
                &mut self.ws,
                &mut self.checked.out,
                ONE_THREAD,
            ),
            Precision::Q16 => self.qcell.step_batch_into(
                x,
                h,
                self.batch,
                &mut self.qws,
                &mut self.checked.out,
                ONE_THREAD,
            ),
        }
        .expect("sized slabs");
    }

    fn checked(&self) -> &Checked {
        &self.checked
    }
}

/// The fixed job list: five kinds, each with the number of calls per pass
/// that makes the kinds take about equal time on the reference box (f32;
/// see README, "engine-offline"). The counts are frozen: a change that
/// speeds one kind up shifts the mix's balance, which is the point — the
/// mix is a fixed amount of work, not a fixed split of time.
pub struct Mix {
    jobs: Vec<(Box<dyn Job>, usize)>,
}

/// What timed passes of the mix produced.
#[derive(Debug, Clone, Default)]
pub struct MixResult {
    /// Samples per second of each pass.
    pub rates: Vec<f64>,
    /// The fastest single call of each job kind, ns, in list order (empty
    /// before the first pass).
    pub best_call_ns: Vec<u64>,
    /// Engine calls made.
    pub attempted: u64,
    /// Verified outputs that differed from their reference.
    pub failed: u64,
}

impl MixResult {
    pub fn absorb(&mut self, other: MixResult) {
        self.rates.extend(other.rates);
        if self.best_call_ns.is_empty() {
            self.best_call_ns = other.best_call_ns;
        } else {
            for (mine, theirs) in self.best_call_ns.iter_mut().zip(other.best_call_ns) {
                *mine = (*mine).min(theirs);
            }
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

impl Mix {
    /// Builds the jobs and runs each once at both precisions, which sizes
    /// every workspace: set-up work, so that timed passes start warm.
    pub fn new(seed: u64) -> Self {
        let mut jobs: Vec<(Box<dyn Job>, usize)> = vec![
            (Box::new(FcJob::new(FC_SHAPE, 1, seed)), 200),
            (Box::new(FcJob::new(FC_SHAPE, 32, seed)), 80),
            (Box::new(FcJob::new(FC_LARGE_SHAPE, 32, seed)), 36),
            (Box::new(ConvJob::new(32, seed)), 30),
            (Box::new(RnnJob::new(8, seed)), 90),
        ];
        for (job, _) in &mut jobs {
            job.call(Precision::F32, 0);
            job.call(Precision::Q16, 0);
        }
        Self { jobs }
    }

    /// Jobs whose quantized references break their `error_bound()`.
    pub fn bound_violations(&self) -> u64 {
        self.jobs
            .iter()
            .filter(|(job, _)| !job.checked().refs.within_bound)
            .count() as u64
    }

    /// Runs whole passes of the list until `budget_ns` is spent (at least
    /// one), timing every call. After each pass, every job's last output is
    /// compared with its reference (`flip`: see [`Checked::matches`]).
    pub fn run(
        &mut self,
        precision: Precision,
        budget_ns: u64,
        clock: &Clock,
        flip: bool,
    ) -> MixResult {
        let samples: usize = self
            .jobs
            .iter()
            .map(|(job, calls)| job.samples_per_call() * calls)
            .sum();
        let mut result = MixResult {
            best_call_ns: vec![u64::MAX; self.jobs.len()],
            ..MixResult::default()
        };
        let t_end = clock.now_ns() + budget_ns;
        loop {
            let pass = result.rates.len();
            let t0 = clock.now_ns();
            let mut t = t0;
            for ((job, calls), best_ns) in self.jobs.iter_mut().zip(&mut result.best_call_ns) {
                for c in 0..*calls {
                    job.call(precision, (pass + c) % SLABS);
                    let done = clock.now_ns();
                    *best_ns = (*best_ns).min(done - t);
                    t = done;
                }
                std::hint::black_box(&job.checked().out);
            }
            result.rates.push(samples as f64 * 1e9 / (t - t0) as f64);
            for (job, calls) in &self.jobs {
                result.attempted += *calls as u64;
                let last_slab = (pass + calls - 1) % SLABS;
                if !job.checked().matches(precision, last_slab, flip) {
                    result.failed += 1;
                }
            }
            if t >= t_end {
                return result;
            }
        }
    }

    /// Samples per second of a pass in which every call takes the fastest
    /// time a call of its kind took in `result`: the job list on a host
    /// that left it alone (see `workloads::measure`). A call is 60 µs to
    /// 1.5 ms long, short enough to fit between a neighbour's bursts where
    /// a whole pass (70 ms) rarely does.
    pub fn best_samples_per_s(&self, result: &MixResult) -> f64 {
        let (mut samples, mut ns) = (0usize, 0u64);
        for ((job, calls), best_ns) in self.jobs.iter().zip(&result.best_call_ns) {
            samples += job.samples_per_call() * calls;
            ns += *calls as u64 * best_ns;
        }
        samples as f64 * 1e9 / ns as f64
    }
}

/// Median ns per call of `f` over `budget_ns` (after one untimed call);
/// `inner` calls share one pair of clock reads, for calls too short to time
/// alone.
pub fn median_call_ns(budget_ns: u64, inner: usize, clock: &Clock, mut f: impl FnMut()) -> f64 {
    f();
    let mut times = Vec::new();
    let t_end = clock.now_ns() + budget_ns;
    loop {
        let t0 = clock.now_ns();
        for _ in 0..inner {
            f();
        }
        let t1 = clock.now_ns();
        times.push((t1 - t0) as f64 / inner as f64);
        if t1 >= t_end && times.len() >= 5 {
            return stats::median(&times);
        }
    }
}

/// Median ns per *sample* of one job at one precision.
fn job_ns_per_sample(
    job: &mut dyn Job,
    precision: Precision,
    budget_ns: u64,
    clock: &Clock,
) -> f64 {
    let mut slab = 0;
    let call_ns = median_call_ns(budget_ns, 1, clock, || {
        job.call(precision, slab % SLABS);
        slab += 1;
        std::hint::black_box(&job.checked().out);
    });
    call_ns / job.samples_per_call() as f64
}

/// Lanes per plane dispatch in the fft timings.
const FFT_LANES: usize = 32;

/// `(forward, inverse)` median ns of one real-input plane dispatch of
/// length `k` over [`FFT_LANES`] lanes. Forward then inverse returns the
/// signal, so the loop needs no refill and its values stay bounded.
fn plane_fft_ns(k: usize, budget_ns: u64, clock: &Clock) -> (f64, f64) {
    let plan = BatchFftPlan::<f32>::new(k).expect("a power-of-two length");
    let mut re = SplitMix64::stream(k as u64, 0xff7).vector(k * FFT_LANES);
    let mut im = vec![0.0f32; k * FFT_LANES];
    const INNER: usize = 16;
    let (mut fwd, mut inv) = (Vec::new(), Vec::new());
    let t_end = clock.now_ns() + budget_ns;
    loop {
        let (mut fwd_ns, mut inv_ns) = (0u64, 0u64);
        for _ in 0..INNER {
            let t0 = clock.now_ns();
            plan.forward_planes_real(&mut re, &mut im, FFT_LANES)
                .expect("sized planes");
            let t1 = clock.now_ns();
            plan.inverse_planes_real(&mut re, &mut im, FFT_LANES)
                .expect("sized planes");
            let t2 = clock.now_ns();
            fwd_ns += t1 - t0;
            inv_ns += t2 - t1;
        }
        std::hint::black_box((&re, &im));
        fwd.push(fwd_ns as f64 / INNER as f64);
        inv.push(inv_ns as f64 / INNER as f64);
        if clock.now_ns() >= t_end && fwd.len() >= 5 {
            return (stats::median(&fwd), stats::median(&inv));
        }
    }
}

/// `fft.*` and `core.*`: plane dispatches at the job shapes and every job
/// kind timed alone, within `budget_ns` in total.
pub fn engine_survey(seed: u64, budget_ns: u64, clock: &Clock) -> Vec<(String, f64)> {
    let mut m = Vec::new();
    // 4 fft timings + 14 job timings share the budget equally.
    let each = budget_ns / 18;
    let (fwd16, inv16) = plane_fft_ns(16, 2 * each, clock);
    let (fwd128, inv128) = plane_fft_ns(128, 2 * each, clock);
    m.push(("fft.fwd_real_ns_per_plane.k16".to_string(), fwd16));
    m.push(("fft.fwd_real_ns_per_plane.k128".to_string(), fwd128));
    m.push(("fft.inv_real_ns_per_plane.k16".to_string(), inv16));
    m.push(("fft.inv_real_ns_per_plane.k128".to_string(), inv128));

    let mut time = |name: &str, job: &mut dyn Job, precision: Precision| -> f64 {
        let ns = job_ns_per_sample(job, precision, each, clock);
        m.push((name.to_string(), ns));
        ns
    };
    let mut fc1 = FcJob::new(FC_SHAPE, 1, seed);
    let mut fc8 = FcJob::new(FC_SHAPE, 8, seed);
    let mut fc32 = FcJob::new(FC_SHAPE, 32, seed);
    time("core.fc_ns_per_sample.b1", &mut fc1, Precision::F32);
    time("core.fc_ns_per_sample.b8", &mut fc8, Precision::F32);
    let fc32_ns = time("core.fc_ns_per_sample.b32", &mut fc32, Precision::F32);
    time("core.q16_fc_ns_per_sample.b32", &mut fc32, Precision::Q16);
    let mut fc32_default = FcJob::with_threads(FC_SHAPE, 32, seed, default_batch_threads());
    time(
        "core.fc_default_threads_ns_per_sample.b32",
        &mut fc32_default,
        Precision::F32,
    );
    let mut large = FcJob::new(FC_LARGE_SHAPE, 32, seed);
    time(
        "core.fc_large_ns_per_sample.b32",
        &mut large,
        Precision::F32,
    );
    time(
        "core.q16_fc_large_ns_per_sample.b32",
        &mut large,
        Precision::Q16,
    );
    let mut conv = ConvJob::new(32, seed);
    time("core.conv_ns_per_sample.b32", &mut conv, Precision::F32);
    time("core.q16_conv_ns_per_sample.b32", &mut conv, Precision::Q16);
    let mut rnn1 = RnnJob::new(1, seed);
    let mut rnn8 = RnnJob::new(8, seed);
    time("core.rnn_ns_per_step.b1", &mut rnn1, Precision::F32);
    time("core.rnn_ns_per_step.b8", &mut rnn8, Precision::F32);
    time("core.q16_rnn_ns_per_step.b8", &mut rnn8, Precision::Q16);
    let matvec_ns = median_call_ns(each, 1, clock, || {
        std::hint::black_box(fc1.matvec_once());
    });
    m.push(("core.single_sample_matvec_ns".to_string(), matvec_ns));

    // Counted and computed from the FC 512/512/16 shape, not measured: per
    // sample, q forward and p inverse block transforms; flops by the usual
    // 2.5·k·log2(k) per real transform and 8 per complex multiply-add over
    // the k/2+1 unique bins; bytes as input + output + both spectra planes
    // written and read once + the weight spectra amortized over B = 32.
    let (rows, cols, k) = FC_SHAPE;
    let (p, q, bins) = ((rows / k) as f64, (cols / k) as f64, (k / 2 + 1) as f64);
    let kf = k as f64;
    m.push(("fft.planes_per_sample".to_string(), p + q));
    m.push((
        "fft.share_of_core".to_string(),
        (q * fwd16 + p * inv16) / FFT_LANES as f64 / fc32_ns,
    ));
    m.push((
        "core.flops_per_sample".to_string(),
        (p + q) * 2.5 * kf * kf.log2() + 8.0 * p * q * bins,
    ));
    m.push((
        "core.bytes_per_sample".to_string(),
        4.0 * (rows + cols) as f64 + 2.0 * 8.0 * (p + q) * bins + 8.0 * p * q * bins / 32.0,
    ));
    m
}

/// `nn.*`: LeNet whole at B ∈ {1, 8, 32} on `inputs` (flat `[1, 28, 28]`
/// samples), and its 12 layers one by one at B = 8 through
/// `Sequential::iter` + `Layer::infer_batch`.
pub fn nn_survey(
    model: &SequentialModel,
    inputs: &[Vec<f32>],
    budget_ns: u64,
    clock: &Clock,
) -> Vec<(String, f64)> {
    let mut m = Vec::new();
    let mut dims = vec![0usize];
    dims.extend_from_slice(model.input_shape());
    let mut slab = |batch: usize| -> Tensor {
        let data: Vec<f32> = inputs.iter().take(batch).flatten().copied().collect();
        dims[0] = batch;
        Tensor::from_vec(data, &dims)
    };
    let net = model.network();
    let mut scratch = InferScratch::new();
    for batch in [1usize, 8, 32] {
        let x = slab(batch);
        let call_ns = median_call_ns(budget_ns / 5, 1, clock, || {
            std::hint::black_box(net.infer(&x, &mut scratch));
        });
        m.push((format!("nn.infer_us.b{batch}"), call_ns / 1e3));
    }

    let layers: Vec<_> = net.iter().collect();
    let names: Vec<String> = layers
        .iter()
        .enumerate()
        .map(|(i, l)| format!("{i:02}-{}", l.name().to_lowercase()))
        .collect();
    assert_eq!(
        names,
        crate::spec::LENET_LAYERS,
        "LeNet's layers changed; nn.layer_us.* names them"
    );
    let x0 = slab(8);
    let mut per_layer: Vec<Vec<f64>> = vec![Vec::new(); layers.len()];
    let t_end = clock.now_ns() + budget_ns * 2 / 5;
    let mut warm = false;
    while !warm || clock.now_ns() < t_end || per_layer[0].len() < 5 {
        scratch.rewind();
        let mut x = x0.clone();
        for (layer, times) in layers.iter().zip(&mut per_layer) {
            let t0 = clock.now_ns();
            let y = layer.infer_batch(&x, &mut scratch);
            // The first pass sizes the layers' scratch; it is not timed.
            if warm {
                times.push((clock.now_ns() - t0) as f64);
            }
            x = y;
        }
        warm = true;
    }
    for (name, times) in names.iter().zip(&per_layer) {
        m.push((format!("nn.layer_us.{name}"), stats::median(times) / 1e3));
    }
    m
}
