//! Recurrent networks over block-circulant weights, on the unified
//! spectral-plane engine.
//!
//! §4.4 claims the architecture serves "different network models like DBN
//! or RNN" — the recurrence is just more matvecs against resident weights,
//! which is exactly the engine's sweet spot (ESE, the paper's \[20\], is an
//! LSTM accelerator for the same reason). This module provides:
//!
//! * [`CirculantRnnCell`] — an Elman-style cell
//!   `h' = tanh(W_ih·x + W_hh·h + b)` with both weight matrices
//!   block-circulant. The batched step is **fused end to end on the
//!   engine**: both matmuls' frequency-domain products meet in the
//!   spectrum fill of *one* plane IFFT per output block (the sum moves
//!   inside the IFFT by linearity), and the bias add plus `tanh` ride that
//!   IFFT — one IFFT per output block per step instead of two, no
//!   post-IFFT sweep at all. The cached weight spectra stay resident in
//!   the operators across timesteps, so a sequence costs one weight-plane
//!   sweep per step for the whole batch.
//! * [`RecurrentWorkspace`] — the two-sided slab pipeline's grow-only
//!   plane arena (lanes = batch) plus the sequence-loop state slabs. After
//!   the first step at a given `(cell, batch)` every later step performs
//!   **zero heap allocations**.
//! * [`CirculantRnn`] — a sequence [`Layer`]: `[B, T, D]` in, final state
//!   or reservoir features out, with the read-only
//!   [`Layer::infer_batch`] path — so recurrent networks register in
//!   `SequentialModel` and serve over `circnn-wire` like FC nets and
//!   convnets.
//! * [`ReservoirClassifier`] — reservoir computing on top of the cell:
//!   the circulant recurrent weights stay **fixed** (scaled for echo-state
//!   stability) and only a dense linear readout is trained;
//!   [`ReservoirClassifier::into_network`] assembles the servable
//!   `Sequential` (reservoir layer + readout).

use circnn_nn::trainer::{train_classifier, TrainConfig};
use circnn_nn::{Adam, Layer, Linear, Sequential};
use circnn_tensor::Tensor;
use rand::Rng;

use crate::engine::{self, Activation, Arena, Epilogue, F32};
use crate::error::CircError;
use crate::matrix::{default_batch_threads, slab_apply, BlockCirculantMatrix, Workspace};
use crate::quantized::{QuantConfig, QuantizedRnnCell};

/// Reusable scratch arena for the fused recurrent step — the two-sided
/// slab pipeline over the spectral-plane engine (lanes = batch).
///
/// All buffers are grow-only: the first step at a given `(cell, batch)`
/// sizes them and every later step performs **zero heap allocations**, so
/// a serving worker keeps one `RecurrentWorkspace` (via its `InferScratch`
/// slot) and streams sequences through it. The weight spectra live in the
/// cell's operators (resident across timesteps); this arena only holds the
/// per-step planes and the sequence-loop state slabs.
#[derive(Debug, Clone, Default)]
pub struct RecurrentWorkspace {
    /// The step's planes: spectrum slot and accumulator set 0 belong to the
    /// input side (`W_ih·x`, spectra `[q_ih][bins][batch]`), slot and set 1
    /// to the hidden side (`W_hh·h`, `[q_hh][bins][batch]`); the two
    /// `[p][bins][batch]` accumulator sets are summed in the inverse's
    /// spectrum fill.
    arena: Arena<f32, f32>,
    /// Sequence-loop state slabs (`[batch, hidden]` double buffer, the
    /// `[batch, in_dim]` timestep gather, and the feature accumulator) —
    /// taken out during a sequence run so the step can borrow the arena.
    h: Vec<f32>,
    next: Vec<f32>,
    xslab: Vec<f32>,
    feats: Vec<f32>,
}

impl RecurrentWorkspace {
    /// An empty arena; buffers are sized lazily by the first step.
    pub fn new() -> Self {
        Self::default()
    }
}

/// An Elman recurrent cell with block-circulant input and recurrent
/// weights.
///
/// # Examples
///
/// ```
/// use circnn_core::rnn::CirculantRnnCell;
/// use circnn_tensor::init::seeded_rng;
///
/// # fn main() -> Result<(), circnn_core::CircError> {
/// let mut rng = seeded_rng(0);
/// let cell = CirculantRnnCell::new(&mut rng, 8, 32, 8, 0.9)?;
/// let h0 = vec![0.0; 32];
/// let h1 = cell.step(&[1.0; 8], &h0)?;
/// assert_eq!(h1.len(), 32);
/// assert!(h1.iter().all(|v| v.abs() <= 1.0)); // tanh range
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CirculantRnnCell {
    w_ih: BlockCirculantMatrix,
    w_hh: BlockCirculantMatrix,
    bias: Vec<f32>,
}

impl CirculantRnnCell {
    /// Creates a cell with `in_dim` inputs and `hidden` units, circulant
    /// block size `k`. The recurrent matrix is rescaled so its dense
    /// spectral-norm proxy (largest block-spectrum magnitude) equals
    /// `spectral_radius` — < 1 gives the echo-state (fading-memory)
    /// property.
    ///
    /// # Errors
    ///
    /// Returns [`CircError`] for invalid dimensions or block size.
    pub fn new<R: Rng>(
        rng: &mut R,
        in_dim: usize,
        hidden: usize,
        k: usize,
        spectral_radius: f32,
    ) -> Result<Self, CircError> {
        let w_ih = BlockCirculantMatrix::random(rng, hidden, in_dim, k)?;
        let mut w_hh = BlockCirculantMatrix::random(rng, hidden, hidden, k)?;
        // Estimate the operator norm via a few power iterations on W·Wᵀ and
        // rescale the defining vectors to the requested radius. The
        // iterations ride the batched engine (batch 1) with one warm
        // workspace and caller buffers — no per-iteration heap allocation.
        let mut ws = Workspace::new();
        let mut v = vec![1.0f32; hidden];
        let mut u = vec![0.0f32; hidden];
        let mut w = vec![0.0f32; hidden];
        for _ in 0..12 {
            w_hh.forward_batch_into(&v, 1, &mut ws, &mut u)?;
            w_hh.backward_batch_into(&u, 1, &mut ws, &mut w)?;
            let norm = w.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
            for (slot, x) in v.iter_mut().zip(&w) {
                *slot = x / norm;
            }
        }
        w_hh.forward_batch_into(&v, 1, &mut ws, &mut u)?;
        let sigma = u.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
        let scale = spectral_radius / sigma;
        let weights: Vec<f32> = w_hh.weights().iter().map(|&w| w * scale).collect();
        w_hh.set_weights(&weights)?;
        Ok(Self {
            w_ih,
            w_hh,
            bias: vec![0.0; hidden],
        })
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.w_hh.rows()
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.w_ih.cols()
    }

    /// Stored weight parameters (both matrices) — the compression story.
    pub fn num_parameters(&self) -> usize {
        self.w_ih.num_parameters() + self.w_hh.num_parameters() + self.bias.len()
    }

    /// Dense-equivalent parameter count.
    pub fn dense_parameters(&self) -> usize {
        self.w_ih.dense_parameters() + self.w_hh.dense_parameters() + self.bias.len()
    }

    /// The input-to-hidden operator (inspection / hand-off to the
    /// hardware simulator; spectra are always fresh).
    pub fn w_ih(&self) -> &BlockCirculantMatrix {
        &self.w_ih
    }

    /// The hidden-to-hidden (recurrent) operator.
    pub fn w_hh(&self) -> &BlockCirculantMatrix {
        &self.w_hh
    }

    /// Quantizes the cell for 16-bit fixed-point serving: both operators'
    /// spectra as i16 codes with their own per-block-row scales, two i32
    /// accumulator sets combined in the dequantizing epilogue where bias
    /// and `tanh` also fuse. The hidden-state scale derives from `tanh`'s
    /// exact unit range; the input scale from `cfg.input_range`.
    ///
    /// # Errors
    ///
    /// Returns [`CircError::QuantOverflow`] if `cfg` cannot guarantee
    /// overflow-free i32 accumulation for either operator.
    pub fn quantize(&self, cfg: QuantConfig) -> Result<QuantizedRnnCell, CircError> {
        QuantizedRnnCell::from_parts(&self.w_ih, &self.w_hh, &self.bias, cfg)
    }

    /// One recurrence step: `h' = tanh(W_ih·x + W_hh·h + b)`.
    ///
    /// Convenience wrapper over the fused batched step (batch 1, fresh
    /// workspace). Timestep loops should hold a [`RecurrentWorkspace`]
    /// and call [`CirculantRnnCell::step_batch_into`] — or use
    /// [`CirculantRnnCell::run`] / [`CirculantRnnCell::run_features`],
    /// which do exactly that and allocate nothing per step.
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] on wrong input/state sizes.
    pub fn step(&self, x: &[f32], h: &[f32]) -> Result<Vec<f32>, CircError> {
        let mut ws = RecurrentWorkspace::new();
        let mut next = vec![0.0f32; self.hidden()];
        self.step_batch_into(x, h, 1, &mut ws, &mut next)?;
        Ok(next)
    }

    /// One fused recurrence step for a whole batch of sequences: row-major
    /// `[batch, in_dim]` inputs and `[batch, hidden]` states in,
    /// `[batch, hidden]` next states out.
    ///
    /// The engine dataflow is the slab pipeline with two input sides: both
    /// are FFT'd into spectra planes (one real-input plane dispatch per
    /// block, all lanes at once), the `W_ih` and `W_hh` MACs write one
    /// accumulator set each, and a single plane IFFT per output block takes
    /// their sum in its spectrum fill (the sum `W_ih·x + W_hh·h` moves
    /// inside the IFFT by linearity) and applies bias and `tanh` to its
    /// cache-hot output — the cell's entire nonlinear update without one
    /// post-IFFT sweep. Each weight spectrum is swept once per step for the
    /// whole batch, and a warm `ws` makes the step allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] on wrong buffer sizes.
    pub fn step_batch_into(
        &self,
        x: &[f32],
        h: &[f32],
        batch: usize,
        ws: &mut RecurrentWorkspace,
        next: &mut [f32],
    ) -> Result<(), CircError> {
        self.step_batch_into_with_threads(x, h, batch, ws, next, default_batch_threads())
    }

    /// [`CirculantRnnCell::step_batch_into`] with an explicit worker
    /// thread count (results are bit-identical for every `threads` value).
    ///
    /// # Errors
    ///
    /// Same as [`CirculantRnnCell::step_batch_into`].
    pub fn step_batch_into_with_threads(
        &self,
        x: &[f32],
        h: &[f32],
        batch: usize,
        ws: &mut RecurrentWorkspace,
        next: &mut [f32],
        threads: usize,
    ) -> Result<(), CircError> {
        let (hidden, in_dim) = (self.hidden(), self.in_dim());
        let slabs = [(x.len(), in_dim), (h.len(), hidden), (next.len(), hidden)];
        engine::check_slabs(batch, &slabs)?;
        let side = |w| F32 {
            engines: core::slice::from_ref(w),
            forward: true,
        };
        let (ih, hh) = (side(&self.w_ih), side(&self.w_hh));
        let epi = Epilogue {
            bias: Some(&self.bias),
            act: Activation::Tanh,
        };
        let sides = [(&ih, x), (&hh, h)];
        slab_apply(&mut ws.arena, 0, sides, batch, next, threads, &epi);
        Ok(())
    }

    /// Runs a sequence from a zero state, returning the final hidden state.
    /// One warm workspace carries the whole sequence: zero heap
    /// allocations per timestep.
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] on wrong input sizes.
    pub fn run(&self, inputs: &[Vec<f32>]) -> Result<Vec<f32>, CircError> {
        let mut ws = RecurrentWorkspace::new();
        let mut h = vec![0.0f32; self.hidden()];
        let mut next = vec![0.0f32; self.hidden()];
        for x in inputs {
            self.step_batch_into(x, &h, 1, &mut ws, &mut next)?;
            core::mem::swap(&mut h, &mut next);
        }
        Ok(h)
    }

    /// Runs a sequence and returns reservoir *features*: the time-averaged
    /// hidden state concatenated with the per-unit mean energy
    /// (`[mean(h), mean(h²)]`, length `2·hidden`). The final state alone is
    /// dominated by the last inputs under the fading-memory property, and
    /// plain means cancel for sign-symmetric signals; the energy half
    /// captures each unit's frequency response. Zero heap allocations per
    /// timestep (one warm workspace carries the sequence).
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] on wrong input sizes.
    pub fn run_features(&self, inputs: &[Vec<f32>]) -> Result<Vec<f32>, CircError> {
        let hidden = self.hidden();
        let mut ws = RecurrentWorkspace::new();
        let mut h = vec![0.0f32; hidden];
        let mut next = vec![0.0f32; hidden];
        let mut feats = vec![0.0f32; 2 * hidden];
        for x in inputs {
            self.step_batch_into(x, &h, 1, &mut ws, &mut next)?;
            core::mem::swap(&mut h, &mut next);
            for (i, &v) in h.iter().enumerate() {
                feats[i] += v;
                feats[hidden + i] += v * v;
            }
        }
        let n = inputs.len().max(1) as f32;
        for f in &mut feats {
            *f /= n;
        }
        Ok(feats)
    }

    /// Batched [`CirculantRnnCell::run_features`]: encodes `batch`
    /// equal-length sequences at once (`inputs[t]` is the row-major
    /// `[batch, in_dim]` slab for timestep `t`), returning `[batch,
    /// 2·hidden]` features. Each weight spectrum is swept once per
    /// timestep for the whole batch, and every lane's trajectory is
    /// bit-identical to running that sequence alone.
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] on malformed slabs.
    pub fn run_features_batch(
        &self,
        inputs: &[Vec<f32>],
        batch: usize,
        ws: &mut RecurrentWorkspace,
    ) -> Result<Vec<f32>, CircError> {
        let hidden = self.hidden();
        let mut h = vec![0.0f32; batch * hidden];
        let mut next = vec![0.0f32; batch * hidden];
        let mut feats = vec![0.0f32; batch * 2 * hidden];
        for x in inputs {
            self.step_batch_into(x, &h, batch, ws, &mut next)?;
            core::mem::swap(&mut h, &mut next);
            for (b, row) in h.chunks(hidden).enumerate() {
                let f = &mut feats[b * 2 * hidden..(b + 1) * 2 * hidden];
                for (i, &v) in row.iter().enumerate() {
                    f[i] += v;
                    f[hidden + i] += v * v;
                }
            }
        }
        let n = inputs.len().max(1) as f32;
        for f in &mut feats {
            *f /= n;
        }
        Ok(feats)
    }
}

/// What a [`CirculantRnn`] layer emits per sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RnnReadout {
    /// The final hidden state, `[batch, hidden]`.
    FinalState,
    /// Reservoir features `[mean(h), mean(h²)]`, `[batch, 2·hidden]` —
    /// what [`ReservoirClassifier`] trains its readout on.
    Features,
}

/// A sequence layer over a fixed [`CirculantRnnCell`]: `[B, T, D]` in,
/// `[B, hidden]` (final state) or `[B, 2·hidden]` (reservoir features)
/// out, running the fused engine step per timestep with the weight spectra
/// resident across the whole sequence.
///
/// The recurrence is a **fixed feature extractor** (reservoir semantics):
/// the cell exposes no trainable parameters and [`Layer::backward_batch`]
/// propagates a zero gradient — train a readout *after* this layer (see
/// [`ReservoirClassifier`]), then serve the assembled network through the
/// read-only [`Layer::infer_batch`] path.
#[derive(Debug, Clone)]
pub struct CirculantRnn {
    cell: CirculantRnnCell,
    readout: RnnReadout,
    /// Training-path workspace (the `&mut self` forward entry).
    ws: RecurrentWorkspace,
}

impl CirculantRnn {
    /// Wraps a cell as a sequence layer.
    pub fn new(cell: CirculantRnnCell, readout: RnnReadout) -> Self {
        Self {
            cell,
            readout,
            ws: RecurrentWorkspace::new(),
        }
    }

    /// The wrapped cell.
    pub fn cell(&self) -> &CirculantRnnCell {
        &self.cell
    }

    /// Output width per sequence.
    pub fn out_dim(&self) -> usize {
        match self.readout {
            RnnReadout::FinalState => self.cell.hidden(),
            RnnReadout::Features => 2 * self.cell.hidden(),
        }
    }

    /// Read-only batched sequence inference into a caller-provided
    /// `[B, out_dim]` buffer with an explicit worker thread count — the
    /// zero-allocation serving core ([`Layer::infer_batch`] wraps it with
    /// a fresh output and [`crate::default_batch_threads`]). Results are
    /// bit-identical for every `threads` value and batch composition.
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] if `input` is not a
    /// non-empty `[B, T, in_dim]` tensor or `out` is not `B·out_dim` long.
    pub fn infer_batch_into(
        &self,
        input: &Tensor,
        ws: &mut RecurrentWorkspace,
        out: &mut [f32],
        threads: usize,
    ) -> Result<(), CircError> {
        if input.shape().rank() != 3 {
            return Err(CircError::DimensionMismatch {
                expected: 3,
                got: input.shape().rank(),
            });
        }
        let (batch, steps, d) = (input.dims()[0], input.dims()[1], input.dims()[2]);
        if batch == 0 || steps == 0 {
            return Err(CircError::DimensionMismatch {
                expected: 1,
                got: 0,
            });
        }
        if d != self.cell.in_dim() {
            return Err(CircError::DimensionMismatch {
                expected: self.cell.in_dim(),
                got: d,
            });
        }
        let hidden = self.cell.hidden();
        if out.len() != batch * self.out_dim() {
            return Err(CircError::DimensionMismatch {
                expected: batch * self.out_dim(),
                got: out.len(),
            });
        }
        // Take the state slabs out of the arena so the step can borrow it.
        engine::grow(&mut ws.h, batch * hidden);
        engine::grow(&mut ws.next, batch * hidden);
        engine::grow(&mut ws.xslab, batch * d);
        let mut h = std::mem::take(&mut ws.h);
        let mut next = std::mem::take(&mut ws.next);
        let mut xslab = std::mem::take(&mut ws.xslab);
        h[..batch * hidden].fill(0.0);
        let feats = match self.readout {
            RnnReadout::Features => {
                engine::grow(&mut ws.feats, batch * 2 * hidden);
                let mut feats = std::mem::take(&mut ws.feats);
                feats[..batch * 2 * hidden].fill(0.0);
                Some(feats)
            }
            RnnReadout::FinalState => None,
        };
        let mut feats = feats;
        let src = input.data();
        let mut result = Ok(());
        for t in 0..steps {
            // Gather timestep t's [batch, in_dim] slab from the [B, T, D]
            // layout.
            for b in 0..batch {
                xslab[b * d..(b + 1) * d]
                    .copy_from_slice(&src[(b * steps + t) * d..(b * steps + t + 1) * d]);
            }
            result = self.cell.step_batch_into_with_threads(
                &xslab[..batch * d],
                &h[..batch * hidden],
                batch,
                ws,
                &mut next[..batch * hidden],
                threads,
            );
            if result.is_err() {
                break;
            }
            core::mem::swap(&mut h, &mut next);
            if let Some(feats) = feats.as_mut() {
                for b in 0..batch {
                    let row = &h[b * hidden..(b + 1) * hidden];
                    let f = &mut feats[b * 2 * hidden..(b + 1) * 2 * hidden];
                    for (i, &v) in row.iter().enumerate() {
                        f[i] += v;
                        f[hidden + i] += v * v;
                    }
                }
            }
        }
        if result.is_ok() {
            match (&self.readout, feats.as_ref()) {
                (RnnReadout::FinalState, _) => out.copy_from_slice(&h[..batch * hidden]),
                (RnnReadout::Features, Some(feats)) => {
                    let n = steps as f32;
                    for (slot, &f) in out.iter_mut().zip(&feats[..batch * 2 * hidden]) {
                        *slot = f / n;
                    }
                }
                (RnnReadout::Features, None) => unreachable!("feats exist in Features mode"),
            }
        }
        // Return the slabs to the arena (allocation-free either way).
        ws.h = h;
        ws.next = next;
        ws.xslab = xslab;
        if let Some(feats) = feats {
            ws.feats = feats;
        }
        result
    }
}

impl Layer for CirculantRnn {
    fn forward_batch(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(
            input.shape().rank(),
            3,
            "rnn batch input must be [B, T, in_dim]"
        );
        let batch = input.dims()[0];
        let mut out = vec![0.0f32; batch * self.out_dim()];
        let mut ws = std::mem::take(&mut self.ws);
        self.infer_batch_into(input, &mut ws, &mut out, default_batch_threads())
            .expect("recurrent layer input shape mismatch");
        self.ws = ws;
        Tensor::from_vec(out, &[batch, self.out_dim()])
    }

    fn backward_batch(&mut self, input: &Tensor, grad_output: &Tensor) -> Tensor {
        // Reservoir semantics: zero gradient of the input's shape.
        let _ = grad_output;
        Tensor::zeros(input.dims())
    }

    fn infer_batch(&self, input: &Tensor, scratch: &mut circnn_nn::InferScratch) -> Tensor {
        let batch = input.dims()[0];
        let mut out = vec![0.0f32; batch * self.out_dim()];
        let ws: &mut RecurrentWorkspace = scratch.slot();
        self.infer_batch_into(input, ws, &mut out, default_batch_threads())
            .expect("recurrent layer input shape mismatch");
        Tensor::from_vec(out, &[batch, self.out_dim()])
    }

    fn supports_infer(&self) -> bool {
        true
    }

    fn infer_ready(&self) -> bool {
        // The cell's weight spectra are refreshed on every weight set;
        // there is no optimizer path that can leave them stale.
        true
    }

    fn param_count(&self) -> usize {
        0 // the reservoir is fixed; only downstream readouts train
    }

    fn name(&self) -> &'static str {
        "CirculantRnn"
    }
}

/// Reservoir-computing classifier: a fixed circulant RNN encodes each
/// sequence into reservoir features; a small dense readout is trained
/// on those features.
#[derive(Debug)]
pub struct ReservoirClassifier {
    cell: CirculantRnnCell,
    readout: Sequential,
    classes: usize,
}

impl ReservoirClassifier {
    /// Builds the reservoir and an untrained readout.
    ///
    /// # Errors
    ///
    /// Propagates [`CircError`] from the cell constructor.
    pub fn new<R: Rng>(
        rng: &mut R,
        in_dim: usize,
        hidden: usize,
        k: usize,
        classes: usize,
    ) -> Result<Self, CircError> {
        let cell = CirculantRnnCell::new(rng, in_dim, hidden, k, 0.9)?;
        let readout = Sequential::new().add(Linear::new(rng, 2 * hidden, classes));
        Ok(Self {
            cell,
            readout,
            classes,
        })
    }

    /// The underlying recurrent cell.
    pub fn cell(&self) -> &CirculantRnnCell {
        &self.cell
    }

    /// Encodes sequences into reservoir states `[n, hidden]`.
    ///
    /// # Errors
    ///
    /// Returns [`CircError`] on malformed sequences.
    pub fn encode(&self, sequences: &[Vec<Vec<f32>>]) -> Result<Tensor, CircError> {
        let width = 2 * self.cell.hidden();
        let batch = sequences.len();
        // Equal-length sequences (the common case for fixed-window
        // workloads) ride the batched engine: one weight-spectrum sweep per
        // timestep for the whole batch.
        let uniform = batch > 1
            && sequences.iter().all(|s| {
                s.len() == sequences[0].len() && s.iter().all(|x| x.len() == self.cell.in_dim())
            });
        if uniform && !sequences[0].is_empty() {
            let steps = sequences[0].len();
            let in_dim = self.cell.in_dim();
            let mut ws = RecurrentWorkspace::new();
            let mut slabs = Vec::with_capacity(steps);
            for t in 0..steps {
                let mut slab = vec![0.0f32; batch * in_dim];
                for (b, seq) in sequences.iter().enumerate() {
                    slab[b * in_dim..(b + 1) * in_dim].copy_from_slice(&seq[t]);
                }
                slabs.push(slab);
            }
            let feats = self.cell.run_features_batch(&slabs, batch, &mut ws)?;
            return Ok(Tensor::from_vec(feats, &[batch, width]));
        }
        let mut data = Vec::with_capacity(batch * width);
        for seq in sequences {
            data.extend(self.cell.run_features(seq)?);
        }
        Ok(Tensor::from_vec(data, &[batch, width]))
    }

    /// Trains the readout on labeled sequences; returns final training
    /// accuracy on the same set.
    ///
    /// # Errors
    ///
    /// Returns [`CircError`] on malformed sequences.
    ///
    /// # Panics
    ///
    /// Panics if a label is out of range for the class count.
    pub fn fit(
        &mut self,
        sequences: &[Vec<Vec<f32>>],
        labels: &[usize],
        epochs: usize,
    ) -> Result<f32, CircError> {
        assert!(
            labels.iter().all(|&l| l < self.classes),
            "label out of range"
        );
        let states = self.encode(sequences)?;
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig {
            epochs,
            batch_size: 16,
            ..Default::default()
        };
        let report = train_classifier(&mut self.readout, &mut opt, &states, labels, &cfg);
        Ok(report.train_accuracy.unwrap_or(0.0))
    }

    /// Classifies one sequence.
    ///
    /// # Errors
    ///
    /// Returns [`CircError`] on malformed sequences.
    pub fn predict(&mut self, sequence: &[Vec<f32>]) -> Result<usize, CircError> {
        let f = self.cell.run_features(sequence)?;
        Ok(self
            .readout
            .predict(&Tensor::from_vec(f, &[2 * self.cell.hidden()])))
    }

    /// Assembles the servable network: a [`CirculantRnn`] feature layer
    /// (reservoir-features readout, matching what [`ReservoirClassifier::fit`]
    /// trained on) followed by the trained dense readout. Register it with
    /// `SequentialModel::with_input_shape(net, &[T, in_dim])` and requests
    /// of `T·in_dim` flat values classify whole sequences over the wire —
    /// the recurrent engine path serves end to end.
    pub fn into_network(self) -> Sequential {
        let mut net = Sequential::new().add(CirculantRnn::new(self.cell, RnnReadout::Features));
        net.push(Box::new(self.readout));
        net.set_training(false);
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circnn_tensor::init::seeded_rng;

    #[test]
    fn step_matches_dense_materialization() {
        let mut rng = seeded_rng(1);
        let cell = CirculantRnnCell::new(&mut rng, 6, 16, 4, 0.8).unwrap();
        let x: Vec<f32> = (0..6).map(|i| (i as f32 * 0.4).sin()).collect();
        let h: Vec<f32> = (0..16).map(|i| (i as f32 * 0.2).cos() * 0.3).collect();
        let fast = cell.step(&x, &h).unwrap();
        let dih = cell.w_ih.to_dense();
        let dhh = cell.w_hh.to_dense();
        let pre_ih = dih.matvec(&x);
        let pre_hh = dhh.matvec(&h);
        for i in 0..16 {
            let expect = (pre_ih[i] + pre_hh[i]).tanh();
            assert!((fast[i] - expect).abs() < 1e-4, "{} vs {expect}", fast[i]);
        }
    }

    #[test]
    fn fused_step_is_batch_composition_invariant_bitwise() {
        // A sequence lane's next state must be bit-identical whether it
        // steps alone or inside any wider batch — the property that lets a
        // server coalesce recurrent requests freely.
        let mut rng = seeded_rng(7);
        let cell = CirculantRnnCell::new(&mut rng, 5, 12, 4, 0.9).unwrap();
        let batch = 4;
        let x: Vec<f32> = (0..batch * 5).map(|i| (i as f32 * 0.31).sin()).collect();
        let h: Vec<f32> = (0..batch * 12)
            .map(|i| (i as f32 * 0.17).cos() * 0.4)
            .collect();
        let mut ws = RecurrentWorkspace::new();
        let mut coalesced = vec![0.0f32; batch * 12];
        cell.step_batch_into(&x, &h, batch, &mut ws, &mut coalesced)
            .unwrap();
        for b in 0..batch {
            let mut alone = vec![0.0f32; 12];
            cell.step_batch_into(
                &x[b * 5..(b + 1) * 5],
                &h[b * 12..(b + 1) * 12],
                1,
                &mut ws,
                &mut alone,
            )
            .unwrap();
            assert_eq!(
                &coalesced[b * 12..(b + 1) * 12],
                &alone[..],
                "lane {b} diverged across batch compositions"
            );
        }
    }

    #[test]
    fn fused_step_is_bit_identical_across_thread_counts() {
        let mut rng = seeded_rng(8);
        let cell = CirculantRnnCell::new(&mut rng, 6, 24, 8, 0.9).unwrap();
        let batch = 3;
        let x: Vec<f32> = (0..batch * 6).map(|i| (i as f32 * 0.23).sin()).collect();
        let h: Vec<f32> = (0..batch * 24)
            .map(|i| (i as f32 * 0.11).cos() * 0.2)
            .collect();
        let mut ws1 = RecurrentWorkspace::new();
        let mut ws4 = RecurrentWorkspace::new();
        let mut n1 = vec![0.0f32; batch * 24];
        let mut n4 = vec![0.0f32; batch * 24];
        cell.step_batch_into_with_threads(&x, &h, batch, &mut ws1, &mut n1, 1)
            .unwrap();
        cell.step_batch_into_with_threads(&x, &h, batch, &mut ws4, &mut n4, 4)
            .unwrap();
        assert_eq!(n1, n4, "threaded step must be bit-identical to serial");
    }

    #[test]
    fn echo_state_property_forgets_initial_state() {
        // With spectral radius < 1, two runs from different initial states
        // converge given the same long input sequence.
        let mut rng = seeded_rng(2);
        let cell = CirculantRnnCell::new(&mut rng, 4, 32, 8, 0.8).unwrap();
        let seq: Vec<Vec<f32>> = (0..60)
            .map(|t| (0..4).map(|i| ((t * 4 + i) as f32 * 0.17).sin()).collect())
            .collect();
        let mut ws = RecurrentWorkspace::new();
        let mut ha = vec![0.5f32; 32];
        let mut hb = vec![-0.5f32; 32];
        let mut next = vec![0.0f32; 32];
        for x in &seq {
            cell.step_batch_into(x, &ha, 1, &mut ws, &mut next).unwrap();
            ha.copy_from_slice(&next);
            cell.step_batch_into(x, &hb, 1, &mut ws, &mut next).unwrap();
            hb.copy_from_slice(&next);
        }
        let dist: f32 = ha
            .iter()
            .zip(&hb)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f32>()
            .sqrt();
        assert!(dist < 0.05, "states did not converge: {dist}");
    }

    #[test]
    fn spectral_rescaling_hits_the_target_radius() {
        let mut rng = seeded_rng(3);
        let cell = CirculantRnnCell::new(&mut rng, 4, 24, 8, 0.7).unwrap();
        // Re-estimate the norm of the rescaled matrix.
        let mut v = vec![1.0f32; 24];
        for _ in 0..20 {
            let u = cell.w_hh.matvec(&v).unwrap();
            let w = cell.w_hh.matvec_t(&u).unwrap();
            let n = w.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
            for (slot, x) in v.iter_mut().zip(&w) {
                *slot = x / n;
            }
        }
        let u = cell.w_hh.matvec(&v).unwrap();
        let sigma = u.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((sigma - 0.7).abs() < 0.05, "sigma = {sigma}");
    }

    #[test]
    fn rnn_layer_matches_cell_features_and_is_servable() {
        let mut rng = seeded_rng(9);
        let cell = CirculantRnnCell::new(&mut rng, 3, 16, 4, 0.9).unwrap();
        let layer = CirculantRnn::new(cell.clone(), RnnReadout::Features);
        assert!(layer.supports_infer() && layer.infer_ready());
        let (batch, steps, d) = (3usize, 7usize, 3usize);
        let flat: Vec<f32> = (0..batch * steps * d)
            .map(|i| (i as f32 * 0.19).sin())
            .collect();
        let input = Tensor::from_vec(flat.clone(), &[batch, steps, d]);
        let mut scratch = circnn_nn::InferScratch::new();
        let served = layer.infer_batch(&input, &mut scratch);
        assert_eq!(served.dims(), &[batch, 2 * 16]);
        // Per-sequence reference through the cell's own feature path
        // (batch 1 lanes are bit-identical by composition invariance).
        for b in 0..batch {
            let seq: Vec<Vec<f32>> = (0..steps)
                .map(|t| flat[(b * steps + t) * d..(b * steps + t + 1) * d].to_vec())
                .collect();
            let expect = cell.run_features(&seq).unwrap();
            assert_eq!(
                &served.data()[b * 32..(b + 1) * 32],
                &expect[..],
                "sequence {b} diverged from the cell reference"
            );
        }
        // Final-state mode agrees with run().
        let fs = CirculantRnn::new(cell.clone(), RnnReadout::FinalState);
        let served_fs = fs.infer_batch(&input, &mut scratch);
        for b in 0..batch {
            let seq: Vec<Vec<f32>> = (0..steps)
                .map(|t| flat[(b * steps + t) * d..(b * steps + t + 1) * d].to_vec())
                .collect();
            let expect = cell.run(&seq).unwrap();
            assert_eq!(&served_fs.data()[b * 16..(b + 1) * 16], &expect[..]);
        }
    }

    #[test]
    fn rnn_layer_validates_shapes() {
        let mut rng = seeded_rng(10);
        let cell = CirculantRnnCell::new(&mut rng, 3, 8, 4, 0.9).unwrap();
        let layer = CirculantRnn::new(cell, RnnReadout::FinalState);
        let mut ws = RecurrentWorkspace::new();
        let mut out = vec![0.0f32; 8];
        let bad_rank = Tensor::zeros(&[4, 3]);
        assert!(layer
            .infer_batch_into(&bad_rank, &mut ws, &mut out, 1)
            .is_err());
        let bad_dim = Tensor::zeros(&[1, 2, 5]);
        assert!(layer
            .infer_batch_into(&bad_dim, &mut ws, &mut out, 1)
            .is_err());
        let ok_input = Tensor::zeros(&[1, 2, 3]);
        assert!(layer
            .infer_batch_into(&ok_input, &mut ws, &mut out[..5], 1)
            .is_err());
        assert!(layer
            .infer_batch_into(&ok_input, &mut ws, &mut out, 1)
            .is_ok());
    }

    #[test]
    fn reservoir_classifies_frequency_patterns() {
        // Two classes of sequences: low vs high frequency sinusoids.
        let make_seq = |freq: f32, phase: f32| -> Vec<Vec<f32>> {
            (0..24)
                .map(|t| vec![(freq * t as f32 + phase).sin()])
                .collect()
        };
        let mut sequences = Vec::new();
        let mut labels = Vec::new();
        for i in 0..24 {
            let phase = i as f32 * 0.7;
            sequences.push(make_seq(0.25, phase));
            labels.push(0);
            sequences.push(make_seq(1.1, phase));
            labels.push(1);
        }
        let mut rng = seeded_rng(4);
        let mut clf = ReservoirClassifier::new(&mut rng, 1, 64, 16, 2).unwrap();
        let acc = clf.fit(&sequences, &labels, 60).unwrap();
        assert!(acc > 0.9, "training accuracy {acc}");
        // Held-out phases.
        let mut correct = 0;
        for i in 0..10 {
            let phase = 100.0 + i as f32 * 0.31;
            if clf.predict(&make_seq(0.25, phase)).unwrap() == 0 {
                correct += 1;
            }
            if clf.predict(&make_seq(1.1, phase)).unwrap() == 1 {
                correct += 1;
            }
        }
        assert!(correct >= 16, "held-out correct = {correct}/20");
    }

    #[test]
    fn assembled_network_serves_what_the_classifier_predicts() {
        let make_seq = |freq: f32, phase: f32| -> Vec<Vec<f32>> {
            (0..16)
                .map(|t| vec![(freq * t as f32 + phase).sin()])
                .collect()
        };
        let mut sequences = Vec::new();
        let mut labels = Vec::new();
        for i in 0..16 {
            let phase = i as f32 * 0.5;
            sequences.push(make_seq(0.3, phase));
            labels.push(0);
            sequences.push(make_seq(1.2, phase));
            labels.push(1);
        }
        let mut rng = seeded_rng(5);
        let mut clf = ReservoirClassifier::new(&mut rng, 1, 32, 8, 2).unwrap();
        clf.fit(&sequences, &labels, 40).unwrap();
        let probe = make_seq(0.3, 50.0);
        let direct = clf.predict(&probe).unwrap();
        let net = clf.into_network();
        let flat: Vec<f32> = probe.iter().flatten().copied().collect();
        let mut scratch = circnn_nn::InferScratch::new();
        let served = net.infer(&Tensor::from_vec(flat, &[1, probe.len(), 1]), &mut scratch);
        assert_eq!(served.dims()[0], 1);
        let served_class = if served.data()[0] >= served.data()[1] {
            0
        } else {
            1
        };
        assert_eq!(served_class, direct, "served argmax diverged from predict");
    }

    #[test]
    fn compression_carries_over_to_the_recurrent_weights() {
        let mut rng = seeded_rng(5);
        let cell = CirculantRnnCell::new(&mut rng, 64, 256, 64, 0.9).unwrap();
        assert!(cell.dense_parameters() > 30 * cell.num_parameters());
    }

    #[test]
    fn rejects_bad_shapes() {
        let mut rng = seeded_rng(6);
        let cell = CirculantRnnCell::new(&mut rng, 4, 8, 4, 0.9).unwrap();
        assert!(cell.step(&[0.0; 3], &[0.0; 8]).is_err());
        assert!(cell.step(&[0.0; 4], &[0.0; 7]).is_err());
        let mut ws = RecurrentWorkspace::new();
        let mut next = vec![0.0f32; 8];
        assert!(cell
            .step_batch_into(&[0.0; 4], &[0.0; 8], 0, &mut ws, &mut next)
            .is_err());
        assert!(cell
            .step_batch_into(&[0.0; 4], &[0.0; 8], 1, &mut ws, &mut next[..7])
            .is_err());
    }
}
