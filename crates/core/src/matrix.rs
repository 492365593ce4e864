//! The block-circulant operator: CirCNN's weight representation.
//!
//! An `m×n` matrix is partitioned into `p×q` circulant blocks of size `k`
//! (`p = ⌈m/k⌉`, `q = ⌈n/k⌉`; ragged edges are zero-padded, which the
//! paper's Fig. 4 contrasts against the wasteful whole-matrix padding of
//! \[54\]). Only the `p·q·k` defining vectors are stored, plus their
//! spectra `FFT(w_ij)` laid out as the planes the MAC sweeps — mirroring
//! the hardware, where "RAM … is used to store weights, e.g., the FFT
//! results FFT(w_ij)" (§4.2).
//!
//! The computational kernels are exactly the paper's:
//!
//! * **Algorithm 1 (forward)** — `a_i = IFFT(Σ_j FFT(w_ij)* ∘ FFT(x_j))`,
//!   with the frequency-domain accumulation so each output block needs one
//!   IFFT rather than `q` (the sum moves inside the IFFT by linearity).
//! * **transpose apply** — `(Wᵀy)_j = IFFT(Σ_i FFT(w_ij) ∘ FFT(y_i))`,
//!   the `∂L/∂x` half of Algorithm 2.
//! * **weight gradient** — `∂L/∂w_ij = IFFT(conj(FFT(g_i)) ∘ FFT(x_j))`,
//!   the other half of Algorithm 2.
//!
//! # One apply path
//!
//! Every apply runs the batched engine below; a single sample is a batch
//! of one. [`BlockCirculantMatrix::matvec`] and
//! [`BlockCirculantMatrix::matvec_t`] are `B = 1` calls into
//! [`BlockCirculantMatrix::forward_batch_into`] and
//! [`BlockCirculantMatrix::backward_batch_into`] with a fresh
//! [`Workspace`], so a sample's result is bit-identical whether it is
//! applied alone or inside any batch. Serving workloads present many
//! inputs at once, and the weight spectra are the same for every one of
//! them — so the kernels sweep the `p·q` weight-spectrum blocks **once
//! per batch** instead of once per sample. The entry points are:
//!
//! * [`Workspace`] — a reusable, grow-only scratch arena. After the first
//!   call at a given `(shape, batch)` the batched kernels perform **zero
//!   heap allocations**; a serving loop keeps one `Workspace` per worker.
//! * [`BlockCirculantMatrix::forward_batch_into`] /
//!   [`BlockCirculantMatrix::matmat`] — `Y = W·X` for a row-major
//!   `[batch, n]` input, `[batch, m]` output (Algorithm 1 over a batch).
//! * [`BlockCirculantMatrix::backward_batch_into`] — the batched transpose
//!   apply `Wᵀ·G` (the `∂L/∂x` half of Algorithm 2).
//! * [`BlockCirculantMatrix::weight_gradient_batch`] — the `∂L/∂w` half,
//!   with the **batch reduction done in the frequency domain** so the whole
//!   batch costs `p·q` IFFTs total rather than `p·q` per sample.
//!
//! Internally the batch dimension is innermost (structure-of-arrays
//! **block-major** `[block][bin][batch]` planes, split re/im), which turns
//! the hot complex-MAC loop into stride-1 chains the compiler vectorizes.
//! The stages themselves — pack, real-input plane FFT, register-tiled MAC,
//! plane IFFT with the fused bias/activation epilogue — live in the shared
//! spectral-plane core (`crate::engine`). Over them, `slab_apply` is the
//! slab pipeline (lanes = batch) of this operator, the recurrent step and
//! their i16 twins; the CONV pipeline rides the same stages. With the
//! `parallel` feature (default) the block-row/-column sweeps are split
//! across `std::thread::scope` threads; every output element is
//! accumulated in the same order regardless of thread count, so serial and
//! parallel results are **bit-identical** and runs stay reproducible.

use circnn_fft::{BatchFftPlan, Complex, RealFftPlan};
use circnn_nn::LinearOp;
use circnn_tensor::Tensor;
use rand::Rng;

use crate::engine::{self, Arena, Epilogue, LaneMap, Precision, Side, F32};
use crate::error::CircError;

/// An `m×n` block-circulant matrix with block size `k`.
///
/// # Examples
///
/// ```
/// use circnn_core::BlockCirculantMatrix;
///
/// # fn main() -> Result<(), circnn_core::CircError> {
/// let w = BlockCirculantMatrix::zeros(6, 10, 4)?; // ragged: blocks pad to 8×12
/// assert_eq!(w.block_rows(), 2);
/// assert_eq!(w.block_cols(), 3);
/// assert_eq!(w.num_parameters(), 2 * 3 * 4);
/// assert_eq!(w.matvec(&vec![1.0; 10])?.len(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BlockCirculantMatrix {
    /// Unique per-instance identity (fresh on clone), stamped into
    /// [`Workspace`] spectra so a cross-operator forward/backward mix-up
    /// fails loudly instead of producing silently wrong gradients.
    id: u64,
    m: usize,
    n: usize,
    k: usize,
    p: usize,
    q: usize,
    bins: usize,
    /// Defining vectors, block-row-major: block `(i, j)` at
    /// `[(i·q + j)·k .. +k]`. Convention: first **row** of each block.
    weights: Vec<f32>,
    /// Real FFT that computes each block's `FFT(w_ij)` for the planes.
    ///
    /// Not the one-lane plane FFT (`bplan` at a batch of one): the two
    /// agree bit for bit only at `k ≤ 4`. Over 2 000 random weight vectors
    /// per `k` (entries in ±0.15), 14–16 % of the bins differ at `k = 8`,
    /// 26 % at 16, 37 % at 128 and 39 % at 1 024, in the last bits. The
    /// weight spectra are what every served output is built from, so
    /// switching this plan would change the bits `tests/golden.rs` pins.
    plan: RealFftPlan<f32>,
    /// Batch-plane FFT for the batched engine (one dispatch per block for a
    /// whole batch of samples).
    bplan: BatchFftPlan<f32>,
    /// Weight spectra re-laid out for the batched MAC: `[bins][p][q]`
    /// (forward: contiguous sweep over block columns `j`).
    wplane_re: Vec<f32>,
    wplane_im: Vec<f32>,
    /// Transposed planes `[bins][q][p]` for the backward sweep over block
    /// rows.
    wplane_t_re: Vec<f32>,
    wplane_t_im: Vec<f32>,
}

/// Source of per-instance identities for the workspace stamps.
static NEXT_OPERATOR_ID: core::sync::atomic::AtomicU64 = core::sync::atomic::AtomicU64::new(0);

impl Clone for BlockCirculantMatrix {
    fn clone(&self) -> Self {
        Self {
            // A clone can diverge from the original (e.g. `set_weights`),
            // so it gets its own identity.
            id: NEXT_OPERATOR_ID.fetch_add(1, core::sync::atomic::Ordering::Relaxed),
            m: self.m,
            n: self.n,
            k: self.k,
            p: self.p,
            q: self.q,
            bins: self.bins,
            weights: self.weights.clone(),
            plan: self.plan.clone(),
            bplan: self.bplan.clone(),
            wplane_re: self.wplane_re.clone(),
            wplane_im: self.wplane_im.clone(),
            wplane_t_re: self.wplane_t_re.clone(),
            wplane_t_im: self.wplane_t_im.clone(),
        }
    }
}

/// A contiguous row-slice of a block-circulant operator, carrying the
/// placement metadata needed to stitch its output segment back into the
/// parent's `[m]` output.
///
/// The slice is itself a fully valid operator (`rows() × cols()` with the
/// parent's block size), because a block row's output segment depends on
/// every input block spectrum but on no other row's accumulators — the
/// row-parallel structure the paper exploits across PEs, lifted to
/// process scale. Computing the slice on the same input is **bitwise
/// identical** to rows `row_start .. row_start + rows()` of the parent's
/// output (same FFT plans, same ascending-`j` accumulation order).
#[derive(Debug, Clone)]
pub struct RowSlice {
    /// The slice as a standalone `m' × n` operator.
    pub operator: BlockCirculantMatrix,
    /// First logical output row of the parent this slice produces.
    pub row_start: usize,
    /// Logical row count `m` of the parent operator.
    pub full_rows: usize,
}

impl RowSlice {
    /// Exclusive end of the logical output-row range this slice produces.
    #[inline]
    pub fn row_end(&self) -> usize {
        self.row_start + self.operator.rows()
    }
}

impl BlockCirculantMatrix {
    fn validated(m: usize, n: usize, k: usize) -> Result<(usize, usize, usize), CircError> {
        if k == 0 || !k.is_power_of_two() {
            return Err(CircError::BadBlockSize(k));
        }
        if m == 0 || n == 0 {
            return Err(CircError::DimensionMismatch {
                expected: 1,
                got: 0,
            });
        }
        Ok((m.div_ceil(k), n.div_ceil(k), k / 2 + 1))
    }

    /// An all-zero operator.
    ///
    /// # Errors
    ///
    /// Returns [`CircError::BadBlockSize`] unless `k` is a nonzero power of
    /// two, or [`CircError::DimensionMismatch`] if `m` or `n` is zero.
    pub fn zeros(m: usize, n: usize, k: usize) -> Result<Self, CircError> {
        let (p, q, bins) = Self::validated(m, n, k)?;
        Ok(Self {
            id: NEXT_OPERATOR_ID.fetch_add(1, core::sync::atomic::Ordering::Relaxed),
            m,
            n,
            k,
            p,
            q,
            bins,
            weights: vec![0.0; p * q * k],
            plan: RealFftPlan::new(k)?,
            bplan: BatchFftPlan::new(k)?,
            wplane_re: vec![0.0; bins * p * q],
            wplane_im: vec![0.0; bins * p * q],
            wplane_t_re: vec![0.0; bins * p * q],
            wplane_t_im: vec![0.0; bins * p * q],
        })
    }

    /// He-style random initialization: each defining-vector entry is
    /// `N(0, √(2/n))`, matching the output variance of a dense He init
    /// (each output sums `n` weighted inputs either way).
    ///
    /// # Errors
    ///
    /// Same as [`BlockCirculantMatrix::zeros`].
    pub fn random<R: Rng>(rng: &mut R, m: usize, n: usize, k: usize) -> Result<Self, CircError> {
        let mut out = Self::zeros(m, n, k)?;
        let std = (2.0 / n as f32).sqrt();
        let w = circnn_tensor::init::normal(rng, &[out.weights.len()], 0.0, std);
        out.set_weights(w.data())?;
        Ok(out)
    }

    /// Builds from explicit defining vectors (block-row-major, `p·q·k` long).
    ///
    /// # Errors
    ///
    /// Returns [`CircError::BadWeightLength`] on a mis-sized buffer, plus
    /// the constructor errors of [`BlockCirculantMatrix::zeros`].
    pub fn from_weights(m: usize, n: usize, k: usize, weights: &[f32]) -> Result<Self, CircError> {
        let mut out = Self::zeros(m, n, k)?;
        out.set_weights(weights)?;
        Ok(out)
    }

    /// Least-squares projection of a dense matrix onto the block-circulant
    /// space: each block's defining vector is the mean of the corresponding
    /// cyclic diagonal (out-of-range entries count as zero).
    ///
    /// # Errors
    ///
    /// Returns [`CircError`] if `dense` is not rank-2 or `k` is invalid.
    pub fn project_from_dense(dense: &Tensor, k: usize) -> Result<Self, CircError> {
        if dense.shape().rank() != 2 {
            return Err(CircError::DimensionMismatch {
                expected: 2,
                got: dense.shape().rank(),
            });
        }
        let (m, n) = (dense.dims()[0], dense.dims()[1]);
        let mut out = Self::zeros(m, n, k)?;
        let mut weights = vec![0.0f32; out.p * out.q * k];
        for i in 0..out.p {
            for j in 0..out.q {
                for d in 0..k {
                    // Least-squares projection: average the cyclic diagonal
                    // over the entries that actually exist after cropping
                    // (ragged edge blocks have shorter diagonals).
                    let mut acc = 0.0f32;
                    let mut valid = 0u32;
                    for s in 0..k {
                        let row = i * k + s;
                        let col = j * k + (s + d) % k;
                        if row < m && col < n {
                            acc += dense.at(&[row, col]);
                            valid += 1;
                        }
                    }
                    weights[(i * out.q + j) * k + d] =
                        if valid == 0 { 0.0 } else { acc / valid as f32 };
                }
            }
        }
        out.set_weights(&weights)?;
        Ok(out)
    }

    /// Extracts the contiguous **block-row** range `block_rows` as a
    /// standalone operator plus its placement metadata — the unit a shard
    /// server loads so a router can scatter one input across row-slices
    /// and stitch the per-slice output segments back bit-identically.
    ///
    /// The slice covers logical rows `block_rows.start · k ..
    /// min(block_rows.end · k, m)` (the last block row may be ragged), has
    /// the same `n` and `k`, and stores exactly the defining vectors of
    /// blocks `(i, j)` with `i ∈ block_rows` — no weights are shared or
    /// recomputed, so the slice's cached spectra are bitwise equal to the
    /// parent's for those rows.
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] for an empty range or one
    /// extending past `block_rows()`.
    pub fn row_slice(&self, block_rows: core::ops::Range<usize>) -> Result<RowSlice, CircError> {
        if block_rows.start >= block_rows.end || block_rows.end > self.p {
            return Err(CircError::DimensionMismatch {
                expected: self.p,
                got: block_rows.end,
            });
        }
        let row_start = block_rows.start * self.k;
        let rows = (block_rows.end * self.k).min(self.m) - row_start;
        // Block (i, j) lives at weights[(i·q + j)·k ..][..k]; a block-row
        // range is one contiguous span of that layout.
        let span =
            &self.weights[block_rows.start * self.q * self.k..block_rows.end * self.q * self.k];
        Ok(RowSlice {
            operator: Self::from_weights(rows, self.n, self.k, span)?,
            row_start,
            full_rows: self.m,
        })
    }

    /// Logical row count `m`.
    #[inline]
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Logical column count `n`.
    #[inline]
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Block size `k`.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.k
    }

    /// Number of block rows `p = ⌈m/k⌉`.
    #[inline]
    pub fn block_rows(&self) -> usize {
        self.p
    }

    /// Number of block columns `q = ⌈n/k⌉`.
    #[inline]
    pub fn block_cols(&self) -> usize {
        self.q
    }

    /// Spectrum bins per block, `k/2 + 1`.
    #[inline]
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Stored parameter count `p·q·k` — the `O(n)` storage claim.
    #[inline]
    pub fn num_parameters(&self) -> usize {
        self.weights.len()
    }

    /// Parameter count of the dense equivalent, `m·n`.
    #[inline]
    pub fn dense_parameters(&self) -> usize {
        self.m * self.n
    }

    /// Parameter compression ratio `m·n / (p·q·k)` (≈ `k` when `k` divides
    /// both dimensions).
    pub fn compression_ratio(&self) -> f64 {
        self.dense_parameters() as f64 / self.num_parameters() as f64
    }

    /// The defining vectors (block-row-major).
    #[inline]
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Replaces all defining vectors and refreshes the cached spectra.
    ///
    /// # Errors
    ///
    /// Returns [`CircError::BadWeightLength`] if the buffer size differs
    /// from [`BlockCirculantMatrix::num_parameters`].
    pub fn set_weights(&mut self, weights: &[f32]) -> Result<(), CircError> {
        if weights.len() != self.weights.len() {
            return Err(CircError::BadWeightLength {
                expected: self.weights.len(),
                got: weights.len(),
            });
        }
        self.weights.copy_from_slice(weights);
        self.refresh_spectra()
    }

    /// Mutable view of the defining vectors for in-place optimizer updates.
    ///
    /// The cached spectra go stale after mutation; callers must follow up
    /// with [`BlockCirculantMatrix::refresh_spectra`] before the next apply.
    /// Crate-internal so the staleness contract stays within the layers
    /// that manage their own dirty flags.
    #[inline]
    pub(crate) fn weights_mut(&mut self) -> &mut [f32] {
        &mut self.weights
    }

    /// Recomputes the weight-spectrum planes from the time-domain weights:
    /// each block's `FFT(w_ij)` is transformed once into a `bins`-long
    /// scratch and scattered into the forward `[bin][p][q]` and transposed
    /// `[bin][q][p]` planes the MAC sweeps.
    pub(crate) fn refresh_spectra(&mut self) -> Result<(), CircError> {
        let (k, p, q) = (self.k, self.p, self.q);
        let mut spec = vec![Complex::zero(); self.bins];
        let mut scratch = vec![Complex::zero(); k / 2];
        for i in 0..p {
            for j in 0..q {
                let b = i * q + j;
                self.plan.forward_with_scratch(
                    &self.weights[b * k..(b + 1) * k],
                    &mut spec,
                    &mut scratch,
                )?;
                for (bin, w) in spec.iter().enumerate() {
                    self.wplane_re[(bin * p + i) * q + j] = w.re;
                    self.wplane_im[(bin * p + i) * q + j] = w.im;
                    self.wplane_t_re[(bin * q + j) * p + i] = w.re;
                    self.wplane_t_im[(bin * q + j) * p + i] = w.im;
                }
            }
        }
        Ok(())
    }

    /// `W·x` — Algorithm 1 on one sample: a batch of one through
    /// [`BlockCirculantMatrix::forward_batch_into`], so it is bit-identical
    /// to that sample's row of any batched apply.
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f32]) -> Result<Vec<f32>, CircError> {
        let mut y = vec![0.0f32; self.m];
        self.forward_batch_into(x, 1, &mut Workspace::new(), &mut y)?;
        Ok(y)
    }

    /// `Wᵀ·y` — the `∂L/∂x` kernel of Algorithm 2 (also the visible-unit
    /// pass of an RBM) on one sample: a batch of one through
    /// [`BlockCirculantMatrix::backward_batch_into`].
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] if `y.len() != self.rows()`.
    pub fn matvec_t(&self, y: &[f32]) -> Result<Vec<f32>, CircError> {
        let mut x = vec![0.0f32; self.n];
        self.backward_batch_into(y, 1, &mut Workspace::new(), &mut x)?;
        Ok(x)
    }

    /// Materializes the dense `m×n` equivalent (tests and inspection only —
    /// this is the `O(n²)` object the representation exists to avoid).
    pub fn to_dense(&self) -> Tensor {
        let mut dense = vec![0.0f32; self.m * self.n];
        for i in 0..self.p {
            for j in 0..self.q {
                let w = &self.weights[(i * self.q + j) * self.k..(i * self.q + j + 1) * self.k];
                for s in 0..self.k {
                    let row = i * self.k + s;
                    if row >= self.m {
                        break;
                    }
                    for t in 0..self.k {
                        let col = j * self.k + t;
                        if col < self.n {
                            dense[row * self.n + col] = w[(t + self.k - s) % self.k];
                        }
                    }
                }
            }
        }
        Tensor::from_vec(dense, &[self.m, self.n])
    }
}

/// Reusable scratch arena for the batched kernels.
///
/// All buffers are grow-only: the first call at a given `(shape, batch)`
/// sizes them, and every later call at the same or smaller size performs
/// **zero heap allocations**. For pure inference one `Workspace` can serve
/// any number of operators (buffers are re-sliced per call); a serving loop
/// keeps one per worker thread. For training, the forward/backward spectra
/// it retains belong to one operator's in-flight batch — interleaving a
/// second operator between a forward and its
/// [`BlockCirculantMatrix::weight_gradient_batch`] overwrites them, and the
/// stamp check makes that an error rather than a wrong gradient.
///
/// The forward pass leaves the batch input spectra in the arena and the
/// backward pass leaves the output-gradient spectra, which is what lets
/// [`BlockCirculantMatrix::weight_gradient_batch`] reduce the whole batch
/// in the frequency domain without re-running any FFTs — the batched analogue
/// of Algorithm 2's reuse of `FFT(x_j)`.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// The plane arena: spectrum slot 0 holds the forward input spectra
    /// `[q][bins][batch]` and slot 1 the backward output-gradient spectra
    /// `[p][bins][batch]`, split re/im; one accumulator set serves both
    /// directions. The per-thread plane scratch is `[k][batch]` during the
    /// applies and `[k][q]` during the weight gradient (whose batch-plane
    /// IFFT lanes are the `q` block pairs of one block row).
    arena: Arena<f32, f32>,
    /// `(operator id, batch)` of the spectra currently held in slots 0 / 1.
    fwd_stamp: Option<(u64, usize)>,
    bwd_stamp: Option<(u64, usize)>,
}

impl Workspace {
    /// An empty arena; buffers are sized lazily by the first batched call.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stamps the spectra a `dir` apply of operator `id` at `batch`
    /// records, and returns the arena slot they land in.
    fn stamp(&mut self, id: u64, dir: Dir, batch: usize) -> usize {
        let stamp = Some((id, batch));
        match dir {
            Dir::Forward => {
                self.fwd_stamp = stamp;
                0
            }
            Dir::Backward => {
                self.bwd_stamp = stamp;
                1
            }
        }
    }
}

/// Which half of Algorithm 1/2 a batched apply runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// `Y = W·X` (Algorithm 1).
    Forward,
    /// `X̃ = Wᵀ·G` (the `∂L/∂x` half of Algorithm 2).
    Backward,
}

/// Number of worker threads the batched kernels use by default.
///
/// With the `parallel` feature (default) this is the machine's available
/// parallelism as a snapshot taken at first use (probing it re-reads the
/// affinity mask and cgroup quota, ≈ 10 µs a call), so a later affinity
/// change is not seen; without it the kernels run on the calling thread.
/// Thread count never changes results: every output element is accumulated
/// in the same order, so serial and parallel runs are bit-identical.
pub fn default_batch_threads() -> usize {
    #[cfg(feature = "parallel")]
    {
        static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
    }
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
}

impl BlockCirculantMatrix {
    /// `W·X` for a row-major `[batch, n]` input, allocating the output.
    ///
    /// Convenience wrapper over
    /// [`BlockCirculantMatrix::forward_batch_into`]; the output `Vec` is the
    /// only allocation once `ws` is warm.
    ///
    /// # Examples
    ///
    /// ```
    /// use circnn_core::{BlockCirculantMatrix, Workspace};
    /// use circnn_tensor::init::seeded_rng;
    ///
    /// # fn main() -> Result<(), circnn_core::CircError> {
    /// let w = BlockCirculantMatrix::random(&mut seeded_rng(0), 64, 96, 16)?;
    /// let mut ws = Workspace::new();
    /// let batch = 4;
    /// let x = vec![0.25_f32; batch * 96]; // row-major [batch, n]
    /// let y = w.matmat(&x, batch, &mut ws)?; // row-major [batch, m]
    /// assert_eq!(y.len(), batch * 64);
    /// // Each row is bit-identical to serving that sample alone:
    /// let alone = w.matmat(&x[..96], 1, &mut ws)?;
    /// assert_eq!(&y[..64], &alone[..]);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] if `x.len() != batch * n`
    /// or `batch == 0`.
    pub fn matmat(
        &self,
        x: &[f32],
        batch: usize,
        ws: &mut Workspace,
    ) -> Result<Vec<f32>, CircError> {
        let mut out = vec![0.0f32; batch * self.m];
        self.forward_batch_into(x, batch, ws, &mut out)?;
        Ok(out)
    }

    /// `W·X` into a caller-provided `[batch, m]` buffer — the zero-allocation
    /// serving path (Algorithm 1 with one weight-spectrum sweep per batch).
    ///
    /// The batch input spectra stay in `ws` for reuse by
    /// [`BlockCirculantMatrix::weight_gradient_batch`].
    ///
    /// # Examples
    ///
    /// A serving loop reuses one workspace and one output slab; after the
    /// first call at a given size, no further heap allocation happens:
    ///
    /// ```
    /// use circnn_core::{BlockCirculantMatrix, Workspace};
    /// use circnn_tensor::init::seeded_rng;
    ///
    /// # fn main() -> Result<(), circnn_core::CircError> {
    /// let w = BlockCirculantMatrix::random(&mut seeded_rng(1), 32, 32, 8)?;
    /// let mut ws = Workspace::new();
    /// let mut out = vec![0.0_f32; 8 * 32]; // up to 8 samples per batch
    /// for batch in [8usize, 3, 8] {
    ///     let x = vec![1.0_f32; batch * 32];
    ///     w.forward_batch_into(&x, batch, &mut ws, &mut out[..batch * 32])?;
    /// }
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] on mis-sized buffers or a
    /// zero batch.
    pub fn forward_batch_into(
        &self,
        x: &[f32],
        batch: usize,
        ws: &mut Workspace,
        out: &mut [f32],
    ) -> Result<(), CircError> {
        self.apply_batch(
            Dir::Forward,
            x,
            batch,
            ws,
            out,
            default_batch_threads(),
            &Epilogue::NONE,
        )
    }

    /// [`BlockCirculantMatrix::forward_batch_into`] with an explicit worker
    /// thread count (mainly for tests and tuning; results are identical for
    /// every `threads` value).
    ///
    /// # Errors
    ///
    /// Same as [`BlockCirculantMatrix::forward_batch_into`].
    pub fn forward_batch_into_with_threads(
        &self,
        x: &[f32],
        batch: usize,
        ws: &mut Workspace,
        out: &mut [f32],
        threads: usize,
    ) -> Result<(), CircError> {
        self.apply_batch(Dir::Forward, x, batch, ws, out, threads, &Epilogue::NONE)
    }

    /// `Wᵀ·G` for a row-major `[batch, m]` gradient, into a `[batch, n]`
    /// buffer. The gradient spectra stay in `ws` for
    /// [`BlockCirculantMatrix::weight_gradient_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] on mis-sized buffers or a
    /// zero batch.
    pub fn backward_batch_into(
        &self,
        g: &[f32],
        batch: usize,
        ws: &mut Workspace,
        out: &mut [f32],
    ) -> Result<(), CircError> {
        self.apply_batch(
            Dir::Backward,
            g,
            batch,
            ws,
            out,
            default_batch_threads(),
            &Epilogue::NONE,
        )
    }

    /// [`BlockCirculantMatrix::backward_batch_into`] with an explicit worker
    /// thread count.
    ///
    /// # Errors
    ///
    /// Same as [`BlockCirculantMatrix::backward_batch_into`].
    pub fn backward_batch_into_with_threads(
        &self,
        g: &[f32],
        batch: usize,
        ws: &mut Workspace,
        out: &mut [f32],
        threads: usize,
    ) -> Result<(), CircError> {
        self.apply_batch(Dir::Backward, g, batch, ws, out, threads, &Epilogue::NONE)
    }

    /// Batched Algorithm-2 weight gradient,
    /// `∂L/∂w_ij += IFFT(Σ_b conj(G_i^b) ∘ X_j^b)`, accumulated into `accum`
    /// (laid out like [`BlockCirculantMatrix::weights`]).
    ///
    /// The batch reduction happens **in the frequency domain**, so the whole
    /// batch costs `p·q` inverse transforms total instead of `p·q` per
    /// sample — and those ride the batch-plane IFFT as `q` lanes per block
    /// row, one dispatch per row. Requires
    /// the spectra left in `ws` by a matching
    /// [`BlockCirculantMatrix::forward_batch_into`] /
    /// [`BlockCirculantMatrix::backward_batch_into`] pair.
    ///
    /// # Errors
    ///
    /// Returns [`CircError::BadWeightLength`] if `accum` is mis-sized, or
    /// [`CircError::DimensionMismatch`] if `ws` does not hold matching
    /// forward and backward spectra for this operator.
    pub fn weight_gradient_batch(
        &self,
        ws: &mut Workspace,
        accum: &mut [f32],
    ) -> Result<(), CircError> {
        self.weight_gradient_batch_with_threads(ws, accum, default_batch_threads())
    }

    /// [`BlockCirculantMatrix::weight_gradient_batch`] with an explicit
    /// worker thread count.
    ///
    /// # Errors
    ///
    /// Same as [`BlockCirculantMatrix::weight_gradient_batch`].
    pub fn weight_gradient_batch_with_threads(
        &self,
        ws: &mut Workspace,
        accum: &mut [f32],
        threads: usize,
    ) -> Result<(), CircError> {
        if accum.len() != self.weights.len() {
            return Err(CircError::BadWeightLength {
                expected: self.weights.len(),
                got: accum.len(),
            });
        }
        // Both spectra sets must come from *this* operator (clones count as
        // different operators) and the same batch — otherwise the reduction
        // would silently pair unrelated X and G planes.
        let stamp = ws.fwd_stamp;
        if stamp.is_none() || stamp != ws.bwd_stamp {
            return Err(CircError::StaleBatchSpectra);
        }
        let (sid, batch) = stamp.expect("stamp checked above");
        if sid != self.id {
            return Err(CircError::StaleBatchSpectra);
        }
        let threads = threads.max(1).min(self.p);
        let (k, q, bins) = (self.k, self.q, self.bins);
        let Arena { xs, pr, pi, .. } = &mut ws.arena;
        engine::grow(pr, threads * k * q);
        engine::grow(pi, threads * k * q);
        let [(xs_re, xs_im), (gs_re, gs_im)] = xs;
        let xs_re = &xs_re[..q * bins * batch];
        let xs_im = &xs_im[..q * bins * batch];
        let gs_re = &gs_re[..self.p * bins * batch];
        let gs_im = &gs_im[..self.p * bins * batch];
        engine::par_planes(
            threads,
            self.p,
            q * k,
            accum,
            &mut [],
            k * q,
            pr,
            pi,
            |i0, icount, acc_c, _, pr_c, pi_c| {
                self.weight_grad_chunk(
                    batch, i0, icount, xs_re, xs_im, gs_re, gs_im, acc_c, pr_c, pi_c,
                );
            },
        );
        Ok(())
    }

    /// Crate-internal fused apply: `Y = act(W·X + bias)` with the bias and
    /// activation folded into each block's plane IFFT (the engine's
    /// fused epilogue) — the layer adapters' serving path
    /// (`CirculantLinear` bias, the recurrent cell's `tanh`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forward_batch_fused(
        &self,
        x: &[f32],
        batch: usize,
        ws: &mut Workspace,
        out: &mut [f32],
        epi: &Epilogue<'_>,
        threads: usize,
    ) -> Result<(), CircError> {
        self.apply_batch(Dir::Forward, x, batch, ws, out, threads, epi)
    }

    /// The f32 datapath of this operator in direction `dir`.
    fn datapath(&self, dir: Dir) -> F32<'_> {
        F32 {
            engines: core::slice::from_ref(self),
            forward: dir == Dir::Forward,
        }
    }

    /// Stage A of an apply on its own: validates `src`, stamps `ws` and
    /// leaves the batch's input (forward) or output-gradient (backward)
    /// spectra planes in it — everything
    /// [`BlockCirculantMatrix::weight_gradient_batch`] reads.
    fn record_spectra(
        &self,
        dir: Dir,
        src: &[f32],
        batch: usize,
        ws: &mut Workspace,
        threads: usize,
    ) -> Result<(), CircError> {
        let logical = if dir == Dir::Forward { self.n } else { self.m };
        engine::check_slabs(batch, &[(src.len(), logical)])?;
        let slot = ws.stamp(self.id, dir, batch);
        let prec = self.datapath(dir);
        let ([mut side], s) = ws.arena.lend([(&prec, src)], slot, batch, batch, threads);
        slab_spectra(&mut side, batch, threads, s.pr, s.pi);
        Ok(())
    }

    /// The batched forward/transpose apply shared by every entry point:
    /// the slab pipeline ([`slab_apply`]) over this one operator, leaving
    /// the direction's spectra stamped in `ws` for the weight gradient.
    #[allow(clippy::too_many_arguments)]
    fn apply_batch(
        &self,
        dir: Dir,
        src: &[f32],
        batch: usize,
        ws: &mut Workspace,
        out: &mut [f32],
        threads: usize,
        epi: &Epilogue<'_>,
    ) -> Result<(), CircError> {
        let (n_in, n_out) = match dir {
            Dir::Forward => (self.n, self.m),
            Dir::Backward => (self.m, self.n),
        };
        engine::check_slabs(batch, &[(src.len(), n_in), (out.len(), n_out)])?;
        let slot = ws.stamp(self.id, dir, batch);
        let prec = self.datapath(dir);
        slab_apply(
            &mut ws.arena,
            slot,
            [(&prec, src)],
            batch,
            out,
            threads,
            epi,
        );
        Ok(())
    }

    /// Crate-internal view of the batch-plane FFT (the CONV pipeline runs
    /// its channel/patch transforms through the same plan).
    #[inline]
    pub(crate) fn plane_plan(&self) -> &BatchFftPlan<f32> {
        &self.bplan
    }

    /// Crate-internal view of the weight-spectrum planes the MAC streams,
    /// split re/im: `[bin][p][q]` for the forward product, the transposed
    /// `[bin][q][p]` for the transpose apply.
    #[inline]
    pub(crate) fn wplanes(&self, forward: bool) -> (&[f32], &[f32]) {
        if forward {
            (&self.wplane_re, &self.wplane_im)
        } else {
            (&self.wplane_t_re, &self.wplane_t_im)
        }
    }

    /// Worker for the batched weight gradient: frequency-domain batch
    /// reduction, then **one batch-plane IFFT per block row** — the `q`
    /// block pairs of row `i` ride the plane transform as independent
    /// lanes (`[k][q]` planes), instead of one scalar IFFT per pair.
    /// Crate-internal so the CONV pipeline can reduce each kernel offset's
    /// gradient over its `batch·pixels` lanes with the same kernel
    /// (`xs_*`/`gs_*` are then the gathered patch / output-gradient
    /// spectra planes and `batch` the lane count).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn weight_grad_chunk(
        &self,
        batch: usize,
        i0: usize,
        icount: usize,
        xs_re: &[f32],
        xs_im: &[f32],
        gs_re: &[f32],
        gs_im: &[f32],
        accum: &mut [f32],
        pre: &mut [f32],
        pim: &mut [f32],
    ) {
        let (k, q, bins) = (self.k, self.q, self.bins);
        for il in 0..icount {
            let i = i0 + il;
            // conj(G)·X reduced over the batch — the frequency-domain
            // linearity that buys one IFFT per block per *batch* — written
            // lane-major `[bin][q]` so the plane IFFT reads it directly.
            for bin in 0..bins {
                let go = (i * bins + bin) * batch;
                let gr = &gs_re[go..go + batch];
                let gi = &gs_im[go..go + batch];
                for j in 0..q {
                    let xo = (j * bins + bin) * batch;
                    let xr = &xs_re[xo..xo + batch];
                    let xi = &xs_im[xo..xo + batch];
                    let (mut sr, mut si) = (0.0f32, 0.0f32);
                    for (((&a, &c), &r), &i2) in gr.iter().zip(gi).zip(xr).zip(xi) {
                        sr += a * r + c * i2;
                        si += a * i2 - c * r;
                    }
                    pre[bin * q + j] = sr;
                    pim[bin * q + j] = si;
                }
            }
            // The products of real-signal spectra are conjugate-symmetric,
            // so the real-input inverse consumes the `bins` unique rows
            // directly — no Hermitian extension pass.
            self.bplan
                .inverse_planes_real(&mut pre[..k * q], &mut pim[..k * q], q)
                .expect("plane buffers are sized before dispatch");
            // Scatter the `[k][q]` time-domain planes into the `[q][k]`
            // defining-vector layout.
            for j in 0..q {
                let base = (il * q + j) * k;
                for t in 0..k {
                    accum[base + t] += pre[t * q + j];
                }
            }
        }
    }
}

/// Stage A of a slab apply: `side`'s row-major `[batch, logical]` source
/// through the plane FFT, one block of `k` logical columns per plane.
fn slab_spectra<P: Precision>(
    side: &mut Side<'_, P>,
    batch: usize,
    threads: usize,
    pr: &mut [f32],
    pi: &mut [f32],
) {
    let (prec, src) = (side.prec, side.src);
    let (k, logical) = (prec.plan().len(), src.len() / batch);
    let pack =
        |j: usize, plane: &mut [f32]| engine::pack_slab_block(src, batch, logical, k, j, plane);
    let xs = (&mut *side.xs.0, &mut *side.xs.1);
    engine::fft_blocks(prec, threads, prec.blocks().1, batch, xs, pr, pi, &pack);
}

/// The slab apply of the FC and recurrent families at either precision
/// (lanes = batch, one unit-step MAC run): per input side, stage A and the
/// MAC into the side's own accumulator set; then one inverse per output
/// block whose fill sums the sides — the recurrent step's
/// `W_ih·x + W_hh·h` — under the fused epilogue, and the layout copy into
/// the row-major `[batch, m]` output. The first side's spectra land in
/// arena slot `slot`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn slab_apply<P: Precision, const N: usize>(
    arena: &mut Arena<P::Spec, P::Acc>,
    slot: usize,
    sides: [(&P, &[f32]); N],
    batch: usize,
    out: &mut [f32],
    threads: usize,
    epi: &Epilogue<'_>,
) {
    let threads = threads.max(1);
    let (mut sides, s) = arena.lend(sides, slot, batch, batch, threads);
    let run = [(0, 0, batch)];
    let map = LaneMap {
        l_pad: batch,
        l_acc: batch,
        shifts: &[0],
        runs: &run,
        step: 1,
    };
    for side in sides.iter_mut() {
        slab_spectra(side, batch, threads, s.pr, s.pi);
        engine::mac(side, threads, &map, s.wa, s.wb);
    }
    engine::ifft_sides(&sides, threads, batch, epi, s.stage, s.pi);
    engine::unstage_slab(s.stage, sides[0].prec.plan().len(), batch, out);
}

impl LinearOp for BlockCirculantMatrix {
    fn out_dim(&self) -> usize {
        self.m
    }

    fn in_dim(&self) -> usize {
        self.n
    }

    fn matvec(&self, x: &[f32]) -> Vec<f32> {
        BlockCirculantMatrix::matvec(self, x).expect("dimension mismatch in LinearOp::matvec")
    }

    fn rmatvec(&self, y: &[f32]) -> Vec<f32> {
        self.matvec_t(y)
            .expect("dimension mismatch in LinearOp::rmatvec")
    }

    fn outer_update(&mut self, h: &[f32], v: &[f32], scale: f32) {
        // Project the rank-1 update h·vᵀ onto the block-circulant subspace:
        // per block, Δw_ij = scale·corr(h_i, v_j) — the Algorithm-2 weight
        // gradient of a batch of one with input v and output gradient h,
        // which reads only the two sides' recorded spectra.
        let mut ws = Workspace::new();
        let threads = default_batch_threads();
        self.record_spectra(Dir::Forward, v, 1, &mut ws, threads)
            .expect("dimension mismatch in outer_update (v)");
        self.record_spectra(Dir::Backward, h, 1, &mut ws, threads)
            .expect("dimension mismatch in outer_update (h)");
        let mut delta = vec![0.0f32; self.weights.len()];
        self.weight_gradient_batch(&mut ws, &mut delta)
            .expect("spectra recorded by the pair above");
        for (w, d) in self.weights.iter_mut().zip(&delta) {
            *w += scale * d;
        }
        self.refresh_spectra()
            .expect("spectra refresh cannot fail after construction");
    }

    fn param_count(&self) -> usize {
        self.num_parameters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circnn_tensor::init::seeded_rng;

    fn seeded(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0) * 0.6
            })
            .collect()
    }

    fn random_bcm(m: usize, n: usize, k: usize, seed: u64) -> BlockCirculantMatrix {
        let mut rng = seeded_rng(seed);
        BlockCirculantMatrix::random(&mut rng, m, n, k).unwrap()
    }

    #[test]
    fn matvec_matches_dense_for_exact_tiling() {
        for (m, n, k) in [(8, 8, 4), (16, 32, 8), (64, 16, 16), (4, 4, 4), (6, 6, 2)] {
            let w = random_bcm(m, n, k, (m * n * k) as u64);
            let x = seeded(n, 9);
            let fast = w.matvec(&x).unwrap();
            let dense = w.to_dense().matvec(&x);
            for (a, b) in fast.iter().zip(&dense) {
                assert!((a - b).abs() < 2e-4, "({m},{n},{k}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn matvec_matches_dense_for_ragged_dims() {
        // m, n not multiples of k — the Fig.-4 case block partitioning handles.
        for (m, n, k) in [(10, 7, 4), (5, 13, 8), (3, 3, 4), (17, 9, 16)] {
            let w = random_bcm(m, n, k, (m + 31 * n + 7 * k) as u64);
            let x = seeded(n, 11);
            let fast = w.matvec(&x).unwrap();
            let dense = w.to_dense().matvec(&x);
            assert_eq!(fast.len(), m);
            for (a, b) in fast.iter().zip(&dense) {
                assert!((a - b).abs() < 2e-4, "({m},{n},{k}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        for (m, n, k) in [(12, 20, 4), (7, 10, 8)] {
            let w = random_bcm(m, n, k, 77);
            let y = seeded(m, 8);
            let fast = w.matvec_t(&y).unwrap();
            let dense = w.to_dense().transpose().matvec(&y);
            for (a, b) in fast.iter().zip(&dense) {
                assert!((a - b).abs() < 2e-4, "({m},{n},{k})");
            }
        }
    }

    #[test]
    fn adjoint_identity_holds() {
        let w = random_bcm(14, 22, 8, 13);
        let x = seeded(22, 1);
        let y = seeded(14, 2);
        let lhs: f32 = w
            .matvec(&x)
            .unwrap()
            .iter()
            .zip(&y)
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .iter()
            .zip(&w.matvec_t(&y).unwrap())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3);
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let (m, n, k) = (6, 8, 4);
        let w = random_bcm(m, n, k, 21);
        let x = seeded(n, 3);
        let g = seeded(m, 4);
        let mut ws = Workspace::new();
        let mut y = vec![0.0f32; m];
        let mut gx = vec![0.0f32; n];
        w.forward_batch_into(&x, 1, &mut ws, &mut y).unwrap();
        w.backward_batch_into(&g, 1, &mut ws, &mut gx).unwrap();
        let mut analytic = vec![0.0f32; w.num_parameters()];
        w.weight_gradient_batch(&mut ws, &mut analytic).unwrap();
        // Numeric: L = Σ g_i·(Wx)_i ; perturb each defining weight.
        let eps = 1e-2f32;
        for idx in 0..w.num_parameters() {
            let mut wp = w.weights().to_vec();
            wp[idx] += eps;
            let plus = BlockCirculantMatrix::from_weights(m, n, k, &wp).unwrap();
            wp[idx] -= 2.0 * eps;
            let minus = BlockCirculantMatrix::from_weights(m, n, k, &wp).unwrap();
            let lp: f32 = plus
                .matvec(&x)
                .unwrap()
                .iter()
                .zip(&g)
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = minus
                .matvec(&x)
                .unwrap()
                .iter()
                .zip(&g)
                .map(|(a, b)| a * b)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic[idx] - numeric).abs() < 1e-2 * numeric.abs().max(1.0),
                "weight {idx}: analytic {} vs numeric {numeric}",
                analytic[idx]
            );
        }
    }

    #[test]
    fn parameter_counts_and_compression() {
        let w = BlockCirculantMatrix::zeros(4096, 9216, 128).unwrap(); // AlexNet FC6 shape
        assert_eq!(w.num_parameters(), 32 * 72 * 128);
        assert_eq!(w.dense_parameters(), 4096 * 9216);
        assert!((w.compression_ratio() - 128.0).abs() < 1e-9);
    }

    #[test]
    fn block_size_one_is_dense_scalar_blocks() {
        // k = 1: no compression, every "block" is a scalar — the paper's
        // "There is no compression if the block size is 1".
        let w = random_bcm(4, 6, 1, 9);
        assert_eq!(w.num_parameters(), 24);
        assert!((w.compression_ratio() - 1.0).abs() < 1e-12);
        let x = seeded(6, 5);
        let fast = w.matvec(&x).unwrap();
        let dense = w.to_dense().matvec(&x);
        for (a, b) in fast.iter().zip(&dense) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn projection_recovers_block_circulant_matrices() {
        let w = random_bcm(12, 8, 4, 30);
        let back = BlockCirculantMatrix::project_from_dense(&w.to_dense(), 4).unwrap();
        for (a, b) in w.weights().iter().zip(back.weights()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn linear_op_round_trip() {
        let mut w = random_bcm(8, 8, 4, 40);
        let before = LinearOp::matvec(&w, &vec![1.0; 8]);
        // Rank-1 nudge, projected.
        let h = seeded(8, 41);
        let v = seeded(8, 42);
        w.outer_update(&h, &v, 0.1);
        let after = LinearOp::matvec(&w, &vec![1.0; 8]);
        assert_ne!(before, after);
        assert_eq!(LinearOp::param_count(&w), 2 * 2 * 4); // p·q·k
    }

    #[test]
    fn outer_update_matches_dense_projection() {
        // outer_update applies the *gradient adjoint* of the circulant
        // parameterization: each defining weight appears k times in the
        // dense block, so Δw = k · (orthogonal projection of h·vᵀ).
        // Therefore outer_update(h, v, s) == project(dense + s·k·h·vᵀ).
        let k = 4usize;
        let mut w = random_bcm(8, 8, k, 50);
        let h = seeded(8, 51);
        let v = seeded(8, 52);
        let scale = 0.2f32;
        let mut dense = w.to_dense();
        for i in 0..8 {
            for j in 0..8 {
                let val = dense.at(&[i, j]) + scale * k as f32 * h[i] * v[j];
                dense.set(&[i, j], val);
            }
        }
        let expected = BlockCirculantMatrix::project_from_dense(&dense, k).unwrap();
        w.outer_update(&h, &v, scale);
        for (a, b) in w.weights().iter().zip(expected.weights()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn validates_construction_and_application() {
        assert!(matches!(
            BlockCirculantMatrix::zeros(8, 8, 3),
            Err(CircError::BadBlockSize(3))
        ));
        assert!(BlockCirculantMatrix::zeros(0, 8, 4).is_err());
        let w = BlockCirculantMatrix::zeros(8, 8, 4).unwrap();
        assert!(w.matvec(&vec![0.0; 7]).is_err());
        assert!(w.matvec_t(&vec![0.0; 9]).is_err());
        assert!(BlockCirculantMatrix::from_weights(8, 8, 4, &[0.0; 5]).is_err());
    }

    /// |a − b| within a mixed absolute/relative tolerance (the dense
    /// reference sums in the time domain, so agreement is to rounding).
    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 5e-4 * b.abs().max(1.0)
    }

    #[test]
    fn batched_forward_matches_dense() {
        for (m, n, k, batch) in [(8, 8, 4, 1), (16, 32, 8, 5), (10, 7, 4, 3), (17, 9, 16, 4)] {
            let w = random_bcm(m, n, k, (m * 31 + n * 7 + k + batch) as u64);
            let dense = w.to_dense();
            let x: Vec<f32> = seeded(batch * n, 77);
            let mut ws = Workspace::new();
            let y = w.matmat(&x, batch, &mut ws).unwrap();
            assert_eq!(y.len(), batch * m);
            for b in 0..batch {
                let expect = dense.matvec(&x[b * n..(b + 1) * n]);
                for (i, (&a, &e)) in y[b * m..(b + 1) * m].iter().zip(&expect).enumerate() {
                    assert!(close(a, e), "({m},{n},{k}) sample {b} row {i}: {a} vs {e}");
                }
            }
        }
    }

    #[test]
    fn threaded_batch_matches_serial_bitwise() {
        let (m, n, k, batch) = (24, 40, 8, 7);
        let w = random_bcm(m, n, k, 123);
        let x = seeded(batch * n, 9);
        let g = seeded(batch * m, 10);
        let mut ws1 = Workspace::new();
        let mut ws4 = Workspace::new();
        let mut y1 = vec![0.0f32; batch * m];
        let mut y4 = vec![0.0f32; batch * m];
        w.forward_batch_into_with_threads(&x, batch, &mut ws1, &mut y1, 1)
            .unwrap();
        w.forward_batch_into_with_threads(&x, batch, &mut ws4, &mut y4, 4)
            .unwrap();
        assert_eq!(y1, y4, "forward: threaded result must be bit-identical");
        let mut gx1 = vec![0.0f32; batch * n];
        let mut gx4 = vec![0.0f32; batch * n];
        w.backward_batch_into_with_threads(&g, batch, &mut ws1, &mut gx1, 1)
            .unwrap();
        w.backward_batch_into_with_threads(&g, batch, &mut ws4, &mut gx4, 3)
            .unwrap();
        assert_eq!(gx1, gx4, "backward: threaded result must be bit-identical");
        let mut wg1 = vec![0.0f32; w.num_parameters()];
        let mut wg4 = vec![0.0f32; w.num_parameters()];
        w.weight_gradient_batch_with_threads(&mut ws1, &mut wg1, 1)
            .unwrap();
        w.weight_gradient_batch_with_threads(&mut ws4, &mut wg4, 5)
            .unwrap();
        assert_eq!(
            wg1, wg4,
            "weight grad: threaded result must be bit-identical"
        );
    }

    #[test]
    fn batched_backward_matches_dense_transpose() {
        let (m, n, k, batch) = (12, 20, 4, 6);
        let w = random_bcm(m, n, k, 55);
        let dense_t = w.to_dense().transpose();
        let g = seeded(batch * m, 3);
        let mut ws = Workspace::new();
        let mut gx = vec![0.0f32; batch * n];
        w.backward_batch_into(&g, batch, &mut ws, &mut gx).unwrap();
        for b in 0..batch {
            let expect = dense_t.matvec(&g[b * m..(b + 1) * m]);
            for (i, (&a, &e)) in gx[b * n..(b + 1) * n].iter().zip(&expect).enumerate() {
                assert!(close(a, e), "sample {b} col {i}: {a} vs {e}");
            }
        }
    }

    #[test]
    fn batched_weight_gradient_matches_per_sample_accumulation() {
        let (m, n, k, batch) = (10, 14, 4, 5);
        let w = random_bcm(m, n, k, 66);
        let (p, q) = (w.block_rows(), w.block_cols());
        let x = seeded(batch * n, 4);
        let g = seeded(batch * m, 5);
        // Direct reference: Σ_b g_b·x_bᵀ summed over each block's cyclic
        // diagonals (the adjoint of `to_dense`'s `w[(t − s) mod k]` layout).
        let mut expect = vec![0.0f32; w.num_parameters()];
        for b in 0..batch {
            for i in 0..p {
                for j in 0..q {
                    for d in 0..k {
                        for s in 0..k {
                            let (row, col) = (i * k + s, j * k + (s + d) % k);
                            if row < m && col < n {
                                expect[(i * q + j) * k + d] += g[b * m + row] * x[b * n + col];
                            }
                        }
                    }
                }
            }
        }
        let mut ws = Workspace::new();
        let mut y = vec![0.0f32; batch * m];
        let mut gx = vec![0.0f32; batch * n];
        w.forward_batch_into(&x, batch, &mut ws, &mut y).unwrap();
        w.backward_batch_into(&g, batch, &mut ws, &mut gx).unwrap();
        let mut got = vec![0.0f32; w.num_parameters()];
        w.weight_gradient_batch(&mut ws, &mut got).unwrap();
        for (idx, (a, e)) in got.iter().zip(&expect).enumerate() {
            assert!(
                (a - e).abs() < 1e-3 * e.abs().max(1.0),
                "weight {idx}: batched {a} vs direct {e}"
            );
        }
    }

    #[test]
    fn weight_gradient_batch_requires_matching_spectra() {
        let w = random_bcm(8, 8, 4, 70);
        let mut ws = Workspace::new();
        let mut accum = vec![0.0f32; w.num_parameters()];
        // No forward/backward pair recorded yet.
        assert!(w.weight_gradient_batch(&mut ws, &mut accum).is_err());
        assert!(w.weight_gradient_batch(&mut ws, &mut accum[..3]).is_err());
        // A same-shaped *other* operator (incl. a clone) must not be able to
        // consume this operator's recorded spectra.
        let x = seeded(3 * 8, 71);
        let g = seeded(3 * 8, 72);
        let mut y = vec![0.0f32; 3 * 8];
        w.forward_batch_into(&x, 3, &mut ws, &mut y).unwrap();
        w.backward_batch_into(&g, 3, &mut ws, &mut y).unwrap();
        let other = random_bcm(8, 8, 4, 99);
        assert!(other.weight_gradient_batch(&mut ws, &mut accum).is_err());
        let cloned = w.clone();
        assert!(cloned.weight_gradient_batch(&mut ws, &mut accum).is_err());
        // The recording operator itself still succeeds.
        assert!(w.weight_gradient_batch(&mut ws, &mut accum).is_ok());
    }

    #[test]
    fn batched_apply_validates_sizes() {
        let w = random_bcm(8, 8, 4, 71);
        let mut ws = Workspace::new();
        let mut out = vec![0.0f32; 16];
        assert!(w
            .forward_batch_into(&[0.0; 15], 2, &mut ws, &mut out)
            .is_err());
        assert!(w
            .forward_batch_into(&[0.0; 16], 0, &mut ws, &mut out)
            .is_err());
        assert!(w
            .forward_batch_into(&[0.0; 16], 2, &mut ws, &mut out[..15])
            .is_err());
    }

    #[test]
    fn spectra_stay_consistent_after_set_weights() {
        let mut w = BlockCirculantMatrix::zeros(8, 8, 4).unwrap();
        let weights = seeded(w.num_parameters(), 60);
        w.set_weights(&weights).unwrap();
        let x = seeded(8, 61);
        let fast = w.matvec(&x).unwrap();
        let dense = w.to_dense().matvec(&x);
        for (a, b) in fast.iter().zip(&dense) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn row_slices_stitch_bitwise_to_the_full_output() {
        // Ragged last block row on purpose (m = 21, k = 8 → p = 3, last
        // block covers 5 rows) — the stitched segments must still cover
        // exactly [0, m) and match the full batched forward bitwise.
        for (m, n, k, batch) in [(24, 16, 8, 1), (21, 16, 8, 3), (32, 40, 8, 4)] {
            let w = random_bcm(m, n, k, (m * 13 + n + k) as u64);
            let x = seeded(batch * n, 91);
            let mut ws = Workspace::new();
            let full = w.matmat(&x, batch, &mut ws).unwrap();
            let splits = [0..1, 1..w.block_rows()];
            let mut stitched = vec![f32::NAN; batch * m];
            let mut covered = 0usize;
            for range in splits {
                let slice = w.row_slice(range).unwrap();
                assert_eq!(slice.full_rows, m);
                assert_eq!(slice.row_start, covered);
                let ms = slice.operator.rows();
                let seg = slice.operator.matmat(&x, batch, &mut ws).unwrap();
                for b in 0..batch {
                    stitched[b * m + slice.row_start..b * m + slice.row_end()]
                        .copy_from_slice(&seg[b * ms..(b + 1) * ms]);
                }
                covered = slice.row_end();
            }
            assert_eq!(covered, m);
            assert_eq!(stitched, full, "m={m} n={n} k={k} batch={batch}");
        }
    }

    #[test]
    // A reversed range is one of the rejections under test.
    #[allow(clippy::reversed_empty_ranges)]
    fn row_slice_rejects_bad_ranges() {
        let w = random_bcm(24, 16, 8, 7);
        assert!(matches!(
            w.row_slice(1..1),
            Err(CircError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            w.row_slice(2..1),
            Err(CircError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            w.row_slice(0..4),
            Err(CircError::DimensionMismatch { .. })
        ));
        // A whole-range slice is the operator itself.
        let all = w.row_slice(0..w.block_rows()).unwrap();
        assert_eq!(all.row_start, 0);
        assert_eq!(all.row_end(), 24);
        assert_eq!(all.operator.weights(), w.weights());
    }
}
