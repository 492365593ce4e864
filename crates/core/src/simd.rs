//! Runtime-dispatched SIMD kernels for the spectral-plane engine.
//!
//! The kernels:
//!
//! * [`cmac_rows`] — the f32 MAC, a **register-resident lane sweep**: a
//!   tile of up to four output block rows accumulates every kernel offset ×
//!   block column term (`ar += wr·xr + wi·xi`, `ai += wr·xi − wi·xr`, with
//!   a real-bin form `ar += wr·xr` and the conjugated form the transpose
//!   apply uses) with the running sums in vector registers, one vector per
//!   8 (AVX2) or 4 (SSE2) lanes of a row, and writes each accumulator
//!   exactly once.
//! * The i16×i16→i32 MAC over `(re, im)` code pairs, the `_mm_madd_epi16`
//!   shape: one pairwise multiply-add yields `wr·xr + wi·xi` (or
//!   `wr·xi − wi·xr`) per 32-bit lane. It has two sweep shapes over one
//!   resident weight layout, `[bin][q][p]` pairs packed one per i32 word
//!   ([`QSweep`]):
//!   - [`qmac_rows`], the **lane sweep**: like `cmac_rows`, a vector holds
//!     lanes of one row; each stored word is broadcast as it is, and the
//!     imaginary term multiplies it by the `(xi, −xr)` swizzle of the input.
//!   - [`qmac_rowvec`], the **row-vector sweep**, for unit-step runs of
//!     at most [`Isa::rowvec_lanes`] lanes (AVX2 only): a vector holds 8
//!     block rows of one lane and one bin; the input pair is broadcast as
//!     `pack(xr, xi)` and `pack(xi, −xr)` and the rows' words load
//!     contiguously, so a lone sample fills every vector lane.
//!
//!   [`qmac`] is the per-term form for strided conv lanes.
//! * [`tanh`] — the fused epilogue's activation: AVX2 computes every branch
//!   of the fdlibm `tanhf` port ([`circnn_tensor::tanh`]) for eight lanes
//!   and blends; other ISAs run the port.
//! * [`qpack`] — the fused quantize-and-interleave of stage A's copy-out.
//!
//! Dispatch is by runtime CPUID check (`is_x86_feature_detected!`), cached
//! in a `OnceLock`, resolved **once per MAC chunk** and threaded into the
//! kernels as a value — the hot loops never touch the atomic. Every kernel
//! returns the same bits on every ISA: the f32 vector lanes use the same
//! mul/mul/add(sub) association as the scalar loop and no FMA, the vector
//! `tanh` replays the port's operations lane for lane, and the i16 kernels
//! are pure integer arithmetic, exact in any order. With the `simd` feature
//! off (or off x86-64) every wrapper collapses to the scalar body.

// The only unsafe in the crate: `core::arch` intrinsic calls, each gated
// behind the matching runtime feature check in `detect()`.
#![allow(unsafe_code)]

/// Instruction set selected at runtime for the MAC kernels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Isa {
    /// AVX2: 8-wide f32, 8×i32 pairwise i16 multiply-add.
    #[cfg_attr(not(all(feature = "simd", target_arch = "x86_64")), allow(dead_code))]
    Avx2,
    /// SSE2: 4-wide f32, 4×i32 pairwise i16 multiply-add.
    #[cfg_attr(not(all(feature = "simd", target_arch = "x86_64")), allow(dead_code))]
    Sse2,
    /// Portable scalar loops (also the `--no-default-features` build).
    Scalar,
}

/// Returns the best kernel ISA the host supports, probing CPUID once.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) fn isa() -> Isa {
    static ISA: std::sync::OnceLock<Isa> = std::sync::OnceLock::new();
    *ISA.get_or_init(|| {
        if std::arch::is_x86_feature_detected!("avx2") {
            Isa::Avx2
        } else if std::arch::is_x86_feature_detected!("sse2") {
            Isa::Sse2
        } else {
            Isa::Scalar
        }
    })
}

/// Scalar-only build: the dispatcher is a constant.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
pub(crate) fn isa() -> Isa {
    Isa::Scalar
}

// ---------------------------------------------------------------------------
// f32 complex MAC (register-resident row sweep)
// ---------------------------------------------------------------------------

/// Where one [`cmac_rows`] sweep finds its operands. Lane `t` of kernel
/// offset `e`'s block column `j` is input element
/// `xbase + shifts[e] + j·jstride + t·step` of both `x` planes — every
/// caller's block-major planes (`jstride` = bins · lanes; conv adds one
/// plane shift per kernel offset). Row `u`'s weight for `(e, j)` is element
/// `wbase + u·wrow + j·wcol` of offset `e`'s weight planes — the one
/// `[bin][q][p]` plane set read as `(1, p)` by the forward product and as
/// `(p, 1)` by the transpose apply — and its `len` output lanes start at
/// `abase + u·astride` of the accumulator planes.
pub(crate) struct RowSweep<'a> {
    pub x: (&'a [f32], &'a [f32]),
    pub xbase: usize,
    pub shifts: &'a [usize],
    pub jstride: usize,
    pub step: usize,
    pub wbase: usize,
    pub wrow: usize,
    pub wcol: usize,
    pub q: usize,
    pub len: usize,
    pub abase: usize,
    pub astride: usize,
}

impl RowSweep<'_> {
    /// The span of `plane` a tile of `tl` rows reads, `wbase` through its
    /// last weight — bounds-checked here, once per offset, so the column
    /// loops index it at `u·wrow + j·wcol` for `u < tl`, `j < q`. Needs
    /// `tl, q ≥ 1`.
    #[inline]
    fn tile_weights<'w>(&self, tl: usize, plane: &'w [f32]) -> &'w [f32] {
        &plane[self.wbase..=self.wbase + (tl - 1) * self.wrow + (self.q - 1) * self.wcol]
    }
}

/// Register-resident f32 MAC over a tile of `tl ≤ 4` block rows: row `u`'s
/// `len` accumulator lanes become `Σ_e Σ_j conj(w[e][u][j]) ∘ x[e][j]`
/// (`conj` set: `w ∘ x`, the transpose apply; `real`: the DC/Nyquist form
/// `ar += wr·xr`, imaginary sums zero), offset-major and block-ascending,
/// each term added as `acc + (wr·xr + wi·xi)` / `acc + (wr·xi − wi·xr)`
/// from a zero start. The sums stay in registers across the whole sweep
/// and are written over the accumulator planes once, lane tail included,
/// so a lone sample costs one call per (bin, row tile). `w(e)` returns
/// offset `e`'s `(re, im)` weight planes. Every ISA produces bitwise
/// identical results.
///
/// # Panics
///
/// Panics if `tl` is not in `1..=4` or any operand index described by `s`
/// falls outside its plane — the bounds the vector bodies rely on.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cmac_rows<'w>(
    isa: Isa,
    real: bool,
    conj: bool,
    tl: usize,
    s: &RowSweep<'_>,
    w: &impl Fn(usize) -> (&'w [f32], &'w [f32]),
    acc_re: &mut [f32],
    acc_im: &mut [f32],
) {
    assert!((1..=4).contains(&tl), "row tile of 1..=4");
    if s.len == 0 || s.q == 0 {
        return;
    }
    let shift = s.shifts.iter().max().copied().unwrap_or(0);
    let x_end = s.xbase + shift + (s.q - 1) * s.jstride + (s.len - 1) * s.step;
    assert!(x_end < s.x.0.len().min(s.x.1.len()), "input lanes");
    let a_end = s.abase + (tl - 1) * s.astride + s.len;
    assert!(a_end <= acc_re.len().min(acc_im.len()), "accumulator rows");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    macro_rules! rows {
        ($f:ident) => {
            match tl {
                1 => rows!($f, 1),
                2 => rows!($f, 2),
                3 => rows!($f, 3),
                _ => rows!($f, 4),
            }
        };
        ($f:ident, $tl:literal) => {
            match (real, conj) {
                (true, _) => $f::<$tl, true, false>(s, w, acc_re, acc_im),
                (_, false) => $f::<$tl, false, false>(s, w, acc_re, acc_im),
                (_, true) => $f::<$tl, false, true>(s, w, acc_re, acc_im),
            }
        };
    }
    match isa {
        // SAFETY: `isa()` only reports an ISA the CPU has, and the two
        // asserts above are exactly the kernels' index preconditions.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Avx2 => unsafe { rows!(cmac_rows_avx2) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Sse2 => unsafe { rows!(cmac_rows_sse2) },
        _ => cmac_rows_scalar(real, conj, tl, s, w, acc_re, acc_im),
    }
}

/// The portable body of [`cmac_rows`] and the reference the vector bodies
/// must match: one row at a time over 16-lane stack tiles, lanes innermost.
#[allow(clippy::too_many_arguments)]
fn cmac_rows_scalar<'w>(
    real: bool,
    conj: bool,
    tl: usize,
    s: &RowSweep<'_>,
    w: &impl Fn(usize) -> (&'w [f32], &'w [f32]),
    acc_re: &mut [f32],
    acc_im: &mut [f32],
) {
    const LANES: usize = 16;
    let (x_re, x_im) = s.x;
    for t0 in (0..s.len).step_by(LANES) {
        let n = LANES.min(s.len - t0);
        for u in 0..tl {
            let mut sr = [0.0f32; LANES];
            let mut si = [0.0f32; LANES];
            for (e, &shift) in s.shifts.iter().enumerate() {
                let (wre, wim) = w(e);
                let (wre, wim) = (s.tile_weights(tl, wre), s.tile_weights(tl, wim));
                for j in 0..s.q {
                    let wo = u * s.wrow + j * s.wcol;
                    let (wr, wi) = (wre[wo], wim[wo]);
                    let xo = s.xbase + shift + j * s.jstride + t0 * s.step;
                    for t in 0..n {
                        let (xr, xi) = (x_re[xo + t * s.step], x_im[xo + t * s.step]);
                        if real {
                            sr[t] += wr * xr;
                        } else if conj {
                            sr[t] += wr * xr - wi * xi;
                            si[t] += wr * xi + wi * xr;
                        } else {
                            sr[t] += wr * xr + wi * xi;
                            si[t] += wr * xi - wi * xr;
                        }
                    }
                }
            }
            let ao = s.abase + u * s.astride + t0;
            acc_re[ao..ao + n].copy_from_slice(&sr[..n]);
            acc_im[ao..ao + n].copy_from_slice(&si[..n]);
        }
    }
}

// ---------------------------------------------------------------------------
// vector tanh (the fused epilogue's activation)
// ---------------------------------------------------------------------------

/// `v[t] = tanh(v[t])` for every element, bit-identical to
/// [`circnn_tensor::tanh`] (the fdlibm `tanhf` port) on every ISA. AVX2
/// runs eight lanes through every branch of the port and blends; SSE2 and
/// the scalar build run the port itself.
pub(crate) fn tanh(isa: Isa, v: &mut [f32]) {
    match isa {
        // SAFETY: `isa()` only reports an ISA the CPU has; the body
        // touches `v` through its own chunking only.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Avx2 => unsafe { tanh_avx2(v) },
        _ => v.iter_mut().for_each(|y| *y = circnn_tensor::tanh(*y)),
    }
}

// ---------------------------------------------------------------------------
// i16 complex MAC (interleaved (re, im) pairs → i32 accumulators)
// ---------------------------------------------------------------------------

/// Packs two i16 words into the i32 madd constant `(hi << 16) | lo` so a
/// pairwise i16 multiply-add against an `(re, im)` pair (re in the low
/// element) computes `lo·re + hi·im`. A resident weight code pair is stored
/// as `madd_pair(wr, wi)`, which is also its little-endian memory image.
#[inline(always)]
pub(crate) fn madd_pair(lo: i16, hi: i16) -> i32 {
    ((hi as u16 as i32) << 16) | (lo as u16 as i32)
}

/// The `(re, im)` codes of a word packed by [`madd_pair`].
#[inline(always)]
pub(crate) fn unpack_pair(w: i32) -> (i16, i16) {
    (w as i16, (w >> 16) as i16)
}

/// Quantized complex MAC for one weight word `w = madd_pair(wr, wi)`: `x`
/// holds `l` interleaved `(re, im)` i16 code pairs (`x.len() == 2·l`); for
/// each lane `t`, `ar[t] += wr·xr + wi·xi` and `ai[t] += wr·xi − wi·xr`,
/// all in i32. The strided conv lanes' per-term form of [`qmac_rows`].
///
/// The symmetric quantizer clamps codes to `[−C, C]` with
/// `C ≤ 2¹⁵ − 1`, so each pairwise product sum fits i32 by construction
/// (the registration-time overflow check guarantees the running total
/// does too), and no code negation below can hit `i16::MIN`.
#[inline(always)]
pub(crate) fn qmac(isa: Isa, w: i32, x: &[i16], ar: &mut [i32], ai: &mut [i32]) {
    match isa {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Avx2 => unsafe { qmac_avx2(w, x, ar, ai) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Sse2 => unsafe { qmac_sse2(w, x, ar, ai) },
        _ => qmac_scalar(w, x, ar, ai),
    }
}

#[inline(always)]
fn qmac_scalar(w: i32, x: &[i16], ar: &mut [i32], ai: &mut [i32]) {
    let (wr, wi) = unpack_pair(w);
    let (wr, wi) = (i32::from(wr), i32::from(wi));
    for (t, (r, i)) in ar.iter_mut().zip(ai.iter_mut()).enumerate() {
        let (xr, xi) = (i32::from(x[2 * t]), i32::from(x[2 * t + 1]));
        *r += wr * xr + wi * xi;
        *i += wr * xi - wi * xr;
    }
}

/// Where one i16 sweep finds its operands, in the one resident code layout
/// both sweep shapes read. Offset `e`'s weight plane `w[e]` holds
/// `[bin][q][p]` `(re, im)` code pairs, one [`madd_pair`] word each: row
/// `u`'s word for block column `j` is `wbase + j·wstride + u`, so a bin's
/// block rows lie contiguous for every column. The input holds interleaved
/// `(re, im)` i16 pairs: lane `t` of offset `e`'s column `j` starts at
/// `xbase + 2·(shifts[e] + t) + j·xstride`. Row `u`'s output lane `t` is
/// element `abase + u·astride + t` of both accumulator planes.
#[derive(Clone, Copy)]
pub(crate) struct QSweep<'a> {
    pub w: &'a [Vec<i32>],
    pub wbase: usize,
    pub wstride: usize,
    pub q: usize,
    pub x: &'a [i16],
    pub xbase: usize,
    pub shifts: &'a [usize],
    pub xstride: usize,
    pub len: usize,
    pub abase: usize,
    pub astride: usize,
}

impl QSweep<'_> {
    /// Whether `rows` output rows of this sweep have any term to add,
    /// after asserting that every operand index they describe is in bounds
    /// — the preconditions of the vector bodies.
    fn check(&self, rows: usize, acc_re: &[i32], acc_im: &[i32]) -> bool {
        assert_eq!(
            self.w.len(),
            self.shifts.len(),
            "one plane shift per offset"
        );
        let Some(&shift) = self.shifts.iter().max() else {
            return false;
        };
        if rows == 0 || self.q == 0 || self.len == 0 {
            return false;
        }
        let w_end = self.wbase + (self.q - 1) * self.wstride + rows;
        assert!(self.w.iter().all(|w| w_end <= w.len()), "weight words");
        let x_end = self.xbase + 2 * (shift + self.len) + (self.q - 1) * self.xstride;
        assert!(x_end <= self.x.len(), "input lanes");
        let a_end = self.abase + (rows - 1) * self.astride + self.len;
        assert!(a_end <= acc_re.len().min(acc_im.len()), "accumulator rows");
        true
    }
}

impl Isa {
    /// The longest unit-step run the i16 MAC sends through the row-vector
    /// sweep ([`qmac_rowvec`]) rather than the lane sweep. Row-vector cost
    /// grows with every lane while the lane sweep covers up to eight lanes
    /// in one (masked) vector; pinned on an AVX2 host, whole i16 calls
    /// (FC 512×512 and 2048×1024, RNN steps at k = 16 and 32) ran faster
    /// through the row-vector sweep at 1–4 lanes on every shape and slower
    /// on the k = 32 RNN at 5. Other ISAs have no row-vector body.
    pub(crate) fn rowvec_lanes(self) -> usize {
        match self {
            Isa::Avx2 => 4,
            Isa::Sse2 | Isa::Scalar => 0,
        }
    }
}

/// The i16 **lane sweep**, register-resident over a tile of `tl ≤ 4` block
/// rows: for each row `u`, **overwrites** its `len` accumulator lanes with
/// `Σ_e Σ_j w[e][u][j] ∘ x[e][j]` over every offset (the conv's r² kernel
/// offsets) and block column. A vector holds 8 (AVX2) or 4 (SSE2) lanes of
/// one row; each weight word is broadcast as stored and multiplied by the
/// `(xr, xi)` pairs for the real term and by their `(xi, −xr)` swizzle for
/// the imaginary one: the resident plane is the only weight operand.
/// Integer accumulation is exact, so every ISA and [`qmac_rowvec`] produce
/// bitwise identical results.
///
/// # Panics
///
/// Panics if `tl` is not in `1..=4` or an index `s` describes for `tl`
/// rows falls outside its slice.
pub(crate) fn qmac_rows(
    isa: Isa,
    tl: usize,
    s: &QSweep<'_>,
    acc_re: &mut [i32],
    acc_im: &mut [i32],
) {
    assert!((1..=4).contains(&tl), "row tile of 1..=4");
    if !s.check(tl, acc_re, acc_im) {
        return;
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    macro_rules! rows {
        ($f:ident) => {
            match tl {
                1 => $f::<1>(s, acc_re, acc_im),
                2 => $f::<2>(s, acc_re, acc_im),
                3 => $f::<3>(s, acc_re, acc_im),
                _ => $f::<4>(s, acc_re, acc_im),
            }
        };
    }
    match isa {
        // SAFETY: `isa()` only reports an ISA the CPU has, and `check`
        // asserted the kernels' index preconditions.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Avx2 => unsafe { rows!(qmac_rows_avx2) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Sse2 => unsafe { rows!(qmac_rows_sse2) },
        _ => qmac_rows_lanes(s, 0..tl, 0, acc_re, acc_im),
    }
}

/// The i16 **row-vector sweep**, for runs of at most
/// [`Isa::rowvec_lanes`] lanes: overwrites the `len` lanes of output rows
/// `0..rows` with the same sums as [`qmac_rows`], but an AVX2 vector holds
/// 8 block rows of one lane. For each lane and column it broadcasts
/// `pack(xr, xi)` and `pack(xi, −xr)`, loads the rows' stored `(wr, wi)`
/// words contiguously, and accumulates with pairwise madds; a lone sample
/// then fills every vector lane instead of one. Up to four row vectors
/// stay in registers per pass; the row tail is masked. Other ISAs run the
/// scalar reference.
///
/// # Panics
///
/// Panics if an index `s` describes for `rows` rows falls outside its
/// slice.
pub(crate) fn qmac_rowvec(
    isa: Isa,
    rows: usize,
    s: &QSweep<'_>,
    acc_re: &mut [i32],
    acc_im: &mut [i32],
) {
    if !s.check(rows, acc_re, acc_im) {
        return;
    }
    match isa {
        // SAFETY: as in `qmac_rows`.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Avx2 => unsafe { qmac_rowvec_avx2(s, rows, acc_re, acc_im) },
        _ => qmac_rows_lanes(s, 0..rows, 0, acc_re, acc_im),
    }
}

/// Scalar i16 MAC over output `rows` and lanes `t0..len`: the portable body
/// of both sweeps, their shared tail, and the reference the vector bodies
/// must match.
fn qmac_rows_lanes(
    s: &QSweep<'_>,
    rows: core::ops::Range<usize>,
    t0: usize,
    acc_re: &mut [i32],
    acc_im: &mut [i32],
) {
    for u in rows {
        let ao = s.abase + u * s.astride;
        let (ar, ai) = (
            &mut acc_re[ao + t0..ao + s.len],
            &mut acc_im[ao + t0..ao + s.len],
        );
        ar.fill(0);
        ai.fill(0);
        for (w, &shift) in s.w.iter().zip(s.shifts) {
            for j in 0..s.q {
                let xo = s.xbase + 2 * (shift + t0) + j * s.xstride;
                let x = &s.x[xo..xo + 2 * ar.len()];
                qmac_scalar(w[s.wbase + j * s.wstride + u], x, ar, ai);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// fused quantize-and-interleave (f32 spectrum rows → i16 code pairs)
// ---------------------------------------------------------------------------

/// Quantizes one bin row of `pr.len()` spectrum lanes into interleaved
/// `(re, im)` i16 code pairs: `out[2t] = round(pr[t]·inv_step)` clamped to
/// `[−max_code, max_code]`, `out[2t+1]` likewise from `pi` — or zero when
/// `pi` is `None` (DC/Nyquist bins, real for real inputs).
///
/// Rounding is ties-to-even on every path: the scalar body rounds via the
/// exponent-shift trick in [`crate::engine::quantize_code`] and the vector
/// lanes via `cvtps` under the default MXCSR mode, which is the same rule
/// — so codes are bitwise identical across ISAs. Caller contract: spectra are finite with
/// `|v·inv_step| < 2³¹` (the engine's input-range clamp guarantees far
/// tighter), so the float→int conversion never saturates differently
/// between the scalar `as` cast and the vector conversion.
pub(crate) fn qpack(
    isa: Isa,
    pr: &[f32],
    pi: Option<&[f32]>,
    inv_step: f32,
    max_code: i32,
    out: &mut [i16],
) {
    debug_assert_eq!(out.len(), 2 * pr.len());
    debug_assert!(match pi {
        Some(pi) => pi.len() == pr.len(),
        None => true,
    });
    match isa {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Avx2 => unsafe { qpack_avx2(pr, pi, inv_step, max_code, out) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Sse2 => unsafe { qpack_sse2(pr, pi, inv_step, max_code, out) },
        _ => qpack_scalar(pr, pi, inv_step, max_code, out),
    }
}

#[inline(always)]
fn qpack_scalar(pr: &[f32], pi: Option<&[f32]>, inv_step: f32, max_code: i32, out: &mut [i16]) {
    match pi {
        Some(pi) => {
            for ((o, &vr), &vi) in out.chunks_exact_mut(2).zip(pr).zip(pi) {
                o[0] = crate::engine::quantize_code(vr, inv_step, max_code);
                o[1] = crate::engine::quantize_code(vi, inv_step, max_code);
            }
        }
        None => {
            for (o, &vr) in out.chunks_exact_mut(2).zip(pr) {
                o[0] = crate::engine::quantize_code(vr, inv_step, max_code);
                o[1] = 0;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// x86-64 lanes
// ---------------------------------------------------------------------------

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    use core::arch::x86_64::*;

    use super::{
        madd_pair, qmac_rows_lanes, qmac_scalar, qpack_scalar, unpack_pair, QSweep, RowSweep,
    };

    /// `n ≤ 4` lanes at `p`, `step` elements apart; the rest read as zero.
    ///
    /// # Safety
    ///
    /// `p.add(t * step)` must be readable for every `t < n`.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn ld4(p: *const f32, step: usize, n: usize) -> __m128 {
        if step == 1 && n == 4 {
            return _mm_loadu_ps(p);
        }
        let mut lanes = [0.0f32; 4];
        for (t, v) in lanes[..n].iter_mut().enumerate() {
            *v = *p.add(t * step);
        }
        _mm_loadu_ps(lanes.as_ptr())
    }

    /// The SSE2 body of [`super::cmac_rows`]: four lanes per register, the
    /// tail and strided lanes staged through a stack quad.
    ///
    /// # Safety
    ///
    /// The CPU has SSE2, and for every `e`, `j < s.q`, `t < s.len`,
    /// `u < TL`: `s.xbase + s.shifts[e] + j·s.jstride + t·s.step` indexes
    /// both `s.x` planes and `s.abase + u·s.astride + t` both accumulator
    /// planes. (Weight tiles are range-checked once per offset.)
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn cmac_rows_sse2<'w, const TL: usize, const REAL: bool, const CONJ: bool>(
        s: &RowSweep<'_>,
        w: &impl Fn(usize) -> (&'w [f32], &'w [f32]),
        acc_re: &mut [f32],
        acc_im: &mut [f32],
    ) {
        let (x_re, x_im) = (s.x.0.as_ptr(), s.x.1.as_ptr());
        let mut t0 = 0;
        while t0 < s.len {
            let n = (s.len - t0).min(4);
            let mut ar = [_mm_setzero_ps(); TL];
            let mut ai = [_mm_setzero_ps(); TL];
            for (e, &shift) in s.shifts.iter().enumerate() {
                let (wre, wim) = w(e);
                let wr = s.tile_weights(TL, wre).as_ptr();
                let wi = if REAL {
                    wr
                } else {
                    s.tile_weights(TL, wim).as_ptr()
                };
                let xo = s.xbase + shift + t0 * s.step;
                for j in 0..s.q {
                    let xr = ld4(x_re.add(xo + j * s.jstride), s.step, n);
                    let wo = |u: usize| u * s.wrow + j * s.wcol;
                    if REAL {
                        for u in 0..TL {
                            ar[u] = _mm_add_ps(ar[u], _mm_mul_ps(_mm_set1_ps(*wr.add(wo(u))), xr));
                        }
                        continue;
                    }
                    let xi = ld4(x_im.add(xo + j * s.jstride), s.step, n);
                    for u in 0..TL {
                        let (wrv, wiv) = (_mm_set1_ps(*wr.add(wo(u))), _mm_set1_ps(*wi.add(wo(u))));
                        let (rr, ii) = (_mm_mul_ps(wrv, xr), _mm_mul_ps(wiv, xi));
                        let (ri, ir) = (_mm_mul_ps(wrv, xi), _mm_mul_ps(wiv, xr));
                        // conj(w)·x, or w·x for the transpose apply.
                        let (re, im) = if CONJ {
                            (_mm_sub_ps(rr, ii), _mm_add_ps(ri, ir))
                        } else {
                            (_mm_add_ps(rr, ii), _mm_sub_ps(ri, ir))
                        };
                        ar[u] = _mm_add_ps(ar[u], re);
                        ai[u] = _mm_add_ps(ai[u], im);
                    }
                }
            }
            for u in 0..TL {
                let ao = s.abase + u * s.astride + t0;
                for (plane, v) in [(&mut *acc_re, ar[u]), (&mut *acc_im, ai[u])] {
                    let mut lanes = [0.0f32; 4];
                    _mm_storeu_ps(lanes.as_mut_ptr(), v);
                    plane[ao..ao + n].copy_from_slice(&lanes[..n]);
                }
            }
            t0 += 4;
        }
    }

    /// How [`sweep8`] loads its eight input lanes.
    const FULL: u8 = 0;
    const MASKED: u8 = 1;
    const GATHER: u8 = 2;

    /// The register-resident core of [`cmac_rows_avx2`]: the `TL` rows'
    /// sums over every offset and block column for the eight lanes from
    /// `t0`, loaded whole (`FULL`), under the tail `mask` (`MASKED`) or
    /// gathered `s.step` apart through `idx` (`GATHER`, masked likewise).
    ///
    /// # Safety
    ///
    /// As [`cmac_rows_avx2`], for the lanes `mask` enables.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sweep8<'w, const TL: usize, const REAL: bool, const CONJ: bool, const LD: u8>(
        s: &RowSweep<'_>,
        w: &impl Fn(usize) -> (&'w [f32], &'w [f32]),
        t0: usize,
        mask: __m256i,
        idx: __m256i,
    ) -> ([__m256; TL], [__m256; TL]) {
        let ld = |p: *const f32| match LD {
            FULL => _mm256_loadu_ps(p),
            MASKED => _mm256_maskload_ps(p, mask),
            _ => {
                let m = _mm256_castsi256_ps(mask);
                _mm256_mask_i32gather_ps::<4>(_mm256_setzero_ps(), p, idx, m)
            }
        };
        let (x_re, x_im) = (s.x.0.as_ptr(), s.x.1.as_ptr());
        let mut ar = [_mm256_setzero_ps(); TL];
        let mut ai = [_mm256_setzero_ps(); TL];
        for (e, &shift) in s.shifts.iter().enumerate() {
            let (wre, wim) = w(e);
            let wr = s.tile_weights(TL, wre).as_ptr();
            let wi = if REAL {
                wr
            } else {
                s.tile_weights(TL, wim).as_ptr()
            };
            let xo = s.xbase + shift + t0 * s.step;
            for j in 0..s.q {
                let xr = ld(x_re.add(xo + j * s.jstride));
                let wo = |u: usize| u * s.wrow + j * s.wcol;
                if REAL {
                    for u in 0..TL {
                        let wrv = _mm256_set1_ps(*wr.add(wo(u)));
                        ar[u] = _mm256_add_ps(ar[u], _mm256_mul_ps(wrv, xr));
                    }
                    continue;
                }
                let xi = ld(x_im.add(xo + j * s.jstride));
                for u in 0..TL {
                    let wrv = _mm256_set1_ps(*wr.add(wo(u)));
                    let wiv = _mm256_set1_ps(*wi.add(wo(u)));
                    let (rr, ii) = (_mm256_mul_ps(wrv, xr), _mm256_mul_ps(wiv, xi));
                    let (ri, ir) = (_mm256_mul_ps(wrv, xi), _mm256_mul_ps(wiv, xr));
                    // conj(w)·x, or w·x for the transpose apply.
                    let (re, im) = if CONJ {
                        (_mm256_sub_ps(rr, ii), _mm256_add_ps(ri, ir))
                    } else {
                        (_mm256_add_ps(rr, ii), _mm256_sub_ps(ri, ir))
                    };
                    ar[u] = _mm256_add_ps(ar[u], re);
                    ai[u] = _mm256_add_ps(ai[u], im);
                }
            }
        }
        (ar, ai)
    }

    /// The AVX2 body of [`super::cmac_rows`]: eight lanes per register;
    /// the tail runs at full width under a lane mask (masked-off lanes
    /// load as zero and are never stored), strided lanes through a gather.
    ///
    /// # Safety
    ///
    /// As [`cmac_rows_sse2`], with AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cmac_rows_avx2<'w, const TL: usize, const REAL: bool, const CONJ: bool>(
        s: &RowSweep<'_>,
        w: &impl Fn(usize) -> (&'w [f32], &'w [f32]),
        acc_re: &mut [f32],
        acc_im: &mut [f32],
    ) {
        let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let idx = _mm256_mullo_epi32(iota, _mm256_set1_epi32(s.step as i32));
        let mut t0 = 0;
        while t0 < s.len {
            let n = (s.len - t0).min(8);
            let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), iota);
            let (ar, ai) = if s.step != 1 {
                sweep8::<TL, REAL, CONJ, GATHER>(s, w, t0, mask, idx)
            } else if n == 8 {
                sweep8::<TL, REAL, CONJ, FULL>(s, w, t0, mask, idx)
            } else {
                sweep8::<TL, REAL, CONJ, MASKED>(s, w, t0, mask, idx)
            };
            for u in 0..TL {
                let ao = s.abase + u * s.astride + t0;
                for (plane, v) in [(&mut *acc_re, ar[u]), (&mut *acc_im, ai[u])] {
                    _mm256_maskstore_ps(plane.as_mut_ptr().add(ao), mask, v);
                }
            }
            t0 += 8;
        }
    }

    /// [`circnn_tensor::tanh`] on eight lanes: every branch of the fdlibm
    /// port is computed for all lanes and the results blended, with the
    /// port's operations in its order and no FMA, so each lane returns the
    /// port's bits. `expm1` is specialised to the arguments `tanh` passes
    /// it, `2|x|` ∈ [2, 44) and `−2|x|` ∈ (−2, −2⁻⁵⁴]: its reduction `k`
    /// is then 0, −1, −2, −3 or 3…64, and the `1 − 2⁻ᵏ` term of
    /// 3 ≤ k < 23 comes from a per-lane `srlv`. Lanes outside a branch's
    /// domain compute garbage that its blend discards.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tanh8(x: __m256) -> __m256 {
        use circnn_tensor::tanhf::{INV_LN2, LN2_HI, LN2_LO, Q};
        let f = |v: f32| _mm256_set1_ps(v);
        let i = |v: i32| _mm256_set1_epi32(v);
        let lt = |a: __m256i, c: i32| _mm256_cmpgt_epi32(i(c), a);
        let gt = |a: __m256i, c: i32| _mm256_cmpgt_epi32(a, i(c));
        let pick =
            |a: __m256, b: __m256, m: __m256i| _mm256_blendv_ps(a, b, _mm256_castsi256_ps(m));
        let bits = _mm256_castps_si256(x);
        let sign = _mm256_castsi256_ps(_mm256_and_si256(bits, i(i32::MIN)));
        let ix = _mm256_and_si256(bits, i(0x7fff_ffff));
        // |x| ≥ 1 takes expm1(2|x|), smaller |x| expm1(−2|x|).
        let big = gt(ix, 0x3f7f_ffff);
        let arg = _mm256_mul_ps(pick(f(-2.0), f(2.0), big), _mm256_castsi256_ps(ix));
        let hx = _mm256_and_si256(_mm256_castps_si256(arg), i(0x7fff_ffff));
        // Reduction: k = 0 for |arg| ≤ 0.5·ln2, ±1 below 1.5·ln2, else
        // trunc(arg/ln2 ± 0.5); r = hi − lo with the correction c.
        let half = pick(f(-0.5), f(0.5), big);
        let kr = _mm256_cvttps_epi32(_mm256_add_ps(_mm256_mul_ps(f(INV_LN2), arg), half));
        let k1 = _mm256_blendv_epi8(i(-1), i(1), big);
        let k = _mm256_blendv_epi8(kr, k1, lt(hx, 0x3f85_1592));
        let k = _mm256_and_si256(k, gt(hx, 0x3eb1_7218));
        let kf = _mm256_cvtepi32_ps(k);
        let hi = _mm256_sub_ps(arg, _mm256_mul_ps(kf, f(LN2_HI)));
        let lo = _mm256_mul_ps(kf, f(LN2_LO));
        let r = _mm256_sub_ps(hi, lo);
        let c = _mm256_sub_ps(_mm256_sub_ps(hi, r), lo);
        // The primary-range rational approximation.
        let hfx = _mm256_mul_ps(f(0.5), r);
        let hxs = _mm256_mul_ps(r, hfx);
        let mut poly = _mm256_add_ps(f(Q[3]), _mm256_mul_ps(hxs, f(Q[4])));
        for q in [Q[2], Q[1], Q[0]] {
            poly = _mm256_add_ps(f(q), _mm256_mul_ps(hxs, poly));
        }
        let r1 = _mm256_add_ps(f(1.0), _mm256_mul_ps(hxs, poly));
        let t = _mm256_sub_ps(f(3.0), _mm256_mul_ps(r1, hfx));
        let e = _mm256_mul_ps(
            hxs,
            _mm256_div_ps(
                _mm256_sub_ps(r1, t),
                _mm256_sub_ps(f(6.0), _mm256_mul_ps(r, t)),
            ),
        );
        let at_k0 = _mm256_sub_ps(r, _mm256_sub_ps(_mm256_mul_ps(r, e), hxs));
        let e = _mm256_sub_ps(_mm256_sub_ps(_mm256_mul_ps(r, _mm256_sub_ps(e, c)), c), hxs);
        let at_km1 = _mm256_sub_ps(_mm256_mul_ps(f(0.5), _mm256_sub_ps(r, e)), f(0.5));
        // The three reconstructions that add k to an exponent.
        let k23 = _mm256_slli_epi32::<23>(k);
        let scale = |y: __m256| _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), k23));
        let far = _mm256_sub_ps(scale(_mm256_sub_ps(f(1.0), _mm256_sub_ps(e, r))), f(1.0));
        let one_minus = _mm256_sub_epi32(i(0x3f80_0000), _mm256_srlv_epi32(i(0x0100_0000), k));
        let near = scale(_mm256_sub_ps(
            _mm256_castsi256_ps(one_minus),
            _mm256_sub_ps(e, r),
        ));
        let two_minus = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_sub_epi32(i(0x7f), k)));
        let mid = scale(_mm256_add_ps(
            _mm256_sub_ps(r, _mm256_add_ps(e, two_minus)),
            f(1.0),
        ));
        let mut em1 = pick(mid, near, lt(k, 23));
        em1 = pick(em1, far, _mm256_or_si256(lt(k, -1), gt(k, 56)));
        em1 = pick(em1, at_km1, _mm256_cmpeq_epi32(k, i(-1)));
        em1 = pick(em1, at_k0, _mm256_cmpeq_epi32(k, i(0)));
        em1 = pick(em1, arg, lt(hx, 0x3300_0000));
        // tanh from expm1, then |x| ≥ 22, the sign, tiny |x| (±0
        // included: ±0·(1 ± 0) = ±0) and ±inf/NaN.
        let den = _mm256_add_ps(em1, f(2.0));
        let z_big = _mm256_sub_ps(f(1.0), _mm256_div_ps(f(2.0), den));
        let z_small = _mm256_div_ps(_mm256_xor_ps(em1, f(-0.0)), den);
        let mut z = pick(z_small, z_big, big);
        z = pick(z, f(1.0), gt(ix, 0x41af_ffff));
        z = _mm256_xor_ps(z, sign);
        z = pick(
            z,
            _mm256_mul_ps(x, _mm256_add_ps(f(1.0), x)),
            lt(ix, 0x2400_0000),
        );
        let at_inf = _mm256_add_ps(_mm256_div_ps(f(1.0), x), _mm256_or_ps(f(1.0), sign));
        pick(z, at_inf, gt(ix, 0x7f7f_ffff))
    }

    /// The AVX2 body of [`super::tanh`]: [`tanh8`] over whole vectors, the
    /// port over the tail.
    ///
    /// # Safety
    ///
    /// The CPU has AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tanh_avx2(v: &mut [f32]) {
        let mut chunks = v.chunks_exact_mut(8);
        for c in &mut chunks {
            let p = c.as_mut_ptr();
            _mm256_storeu_ps(p, tanh8(_mm256_loadu_ps(p)));
        }
        for y in chunks.into_remainder() {
            *y = circnn_tensor::tanh(*y);
        }
    }

    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn qmac_sse2(w: i32, x: &[i16], ar: &mut [i32], ai: &mut [i32]) {
        let l = ar.len();
        // madd over (re, im) pairs: wa yields wr·re + wi·im (the ar term),
        // wb yields (−wi)·re + wr·im = wr·im − wi·re (the ai term).
        let (wr, wi) = unpack_pair(w);
        let wa = _mm_set1_epi32(w);
        let wb = _mm_set1_epi32(madd_pair(wi.wrapping_neg(), wr));
        let mut t = 0;
        while t + 4 <= l {
            let xv = _mm_loadu_si128(x.as_ptr().add(2 * t).cast());
            let arv = _mm_loadu_si128(ar.as_ptr().add(t).cast());
            let aiv = _mm_loadu_si128(ai.as_ptr().add(t).cast());
            let re = _mm_madd_epi16(xv, wa);
            let im = _mm_madd_epi16(xv, wb);
            _mm_storeu_si128(ar.as_mut_ptr().add(t).cast(), _mm_add_epi32(arv, re));
            _mm_storeu_si128(ai.as_mut_ptr().add(t).cast(), _mm_add_epi32(aiv, im));
            t += 4;
        }
        if t < l {
            qmac_scalar(w, &x[2 * t..], &mut ar[t..], &mut ai[t..]);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn qmac_avx2(w: i32, x: &[i16], ar: &mut [i32], ai: &mut [i32]) {
        let l = ar.len();
        let (wr, wi) = unpack_pair(w);
        let wa = _mm256_set1_epi32(w);
        let wb = _mm256_set1_epi32(madd_pair(wi.wrapping_neg(), wr));
        let mut t = 0;
        while t + 8 <= l {
            let xv = _mm256_loadu_si256(x.as_ptr().add(2 * t).cast());
            let arv = _mm256_loadu_si256(ar.as_ptr().add(t).cast());
            let aiv = _mm256_loadu_si256(ai.as_ptr().add(t).cast());
            let re = _mm256_madd_epi16(xv, wa);
            let im = _mm256_madd_epi16(xv, wb);
            _mm256_storeu_si256(ar.as_mut_ptr().add(t).cast(), _mm256_add_epi32(arv, re));
            _mm256_storeu_si256(ai.as_mut_ptr().add(t).cast(), _mm256_add_epi32(aiv, im));
            t += 8;
        }
        if t < l {
            qmac_scalar(w, &x[2 * t..], &mut ar[t..], &mut ai[t..]);
        }
    }

    /// Each `(xr, xi)` i16 pair of `v` as `(xi, −xr)`: a pairwise madd of
    /// it against a stored `(wr, wi)` word is the imaginary term
    /// `wr·xi − wi·xr`. `(a ^ m) − m` negates the words where `m` is −1.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn swap_neg4(v: __m128i) -> __m128i {
        let m = _mm_set1_epi32(0xffff_0000_u32 as i32);
        let sw = _mm_shufflehi_epi16::<0xb1>(_mm_shufflelo_epi16::<0xb1>(v));
        _mm_sub_epi16(_mm_xor_si128(sw, m), m)
    }

    /// [`swap_neg4`] over eight pairs.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn swap_neg8(v: __m256i) -> __m256i {
        let m = _mm256_set1_epi32(0xffff_0000_u32 as i32);
        let sw = _mm256_shufflehi_epi16::<0xb1>(_mm256_shufflelo_epi16::<0xb1>(v));
        _mm256_sub_epi16(_mm256_xor_si256(sw, m), m)
    }

    /// The SSE2 body of [`super::qmac_rows`]: four lanes per register, the
    /// lane tail scalar.
    ///
    /// # Safety
    ///
    /// The CPU has SSE2 and `QSweep::check` passed for `TL` rows.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn qmac_rows_sse2<const TL: usize>(
        s: &QSweep<'_>,
        acc_re: &mut [i32],
        acc_im: &mut [i32],
    ) {
        let mut t0 = 0;
        while t0 + 4 <= s.len {
            let mut ar = [_mm_setzero_si128(); TL];
            let mut ai = [_mm_setzero_si128(); TL];
            for (w, &shift) in s.w.iter().zip(s.shifts) {
                let w = w.as_ptr().add(s.wbase);
                let x = s.x.as_ptr().add(s.xbase + 2 * (shift + t0));
                for j in 0..s.q {
                    let xv = _mm_loadu_si128(x.add(j * s.xstride).cast());
                    let xs = swap_neg4(xv);
                    let wj = w.add(j * s.wstride);
                    for u in 0..TL {
                        let wv = _mm_set1_epi32(*wj.add(u));
                        ar[u] = _mm_add_epi32(ar[u], _mm_madd_epi16(xv, wv));
                        ai[u] = _mm_add_epi32(ai[u], _mm_madd_epi16(xs, wv));
                    }
                }
            }
            for u in 0..TL {
                let ao = s.abase + u * s.astride + t0;
                _mm_storeu_si128(acc_re.as_mut_ptr().add(ao).cast(), ar[u]);
                _mm_storeu_si128(acc_im.as_mut_ptr().add(ao).cast(), ai[u]);
            }
            t0 += 4;
        }
        if t0 < s.len {
            qmac_rows_lanes(s, 0..TL, t0, acc_re, acc_im);
        }
    }

    /// The register-resident core of [`qmac_rows_avx2`]: the `TL` rows'
    /// sums for the eight lanes from `t0`, loaded whole or (`MASKED`)
    /// under the tail `mask`, whose off lanes read as zero.
    ///
    /// # Safety
    ///
    /// As [`qmac_rows_avx2`], for the lanes `mask` enables.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lanes8<const TL: usize, const MASKED: bool>(
        s: &QSweep<'_>,
        t0: usize,
        mask: __m256i,
    ) -> ([__m256i; TL], [__m256i; TL]) {
        let mut ar = [_mm256_setzero_si256(); TL];
        let mut ai = [_mm256_setzero_si256(); TL];
        for (w, &shift) in s.w.iter().zip(s.shifts) {
            let w = w.as_ptr().add(s.wbase);
            let x = s.x.as_ptr().add(s.xbase + 2 * (shift + t0));
            for j in 0..s.q {
                let xp = x.add(j * s.xstride);
                let xv = if MASKED {
                    // One i32 lane per (re, im) pair.
                    _mm256_maskload_epi32(xp.cast(), mask)
                } else {
                    _mm256_loadu_si256(xp.cast())
                };
                let xs = swap_neg8(xv);
                let wj = w.add(j * s.wstride);
                for u in 0..TL {
                    let wv = _mm256_set1_epi32(*wj.add(u));
                    ar[u] = _mm256_add_epi32(ar[u], _mm256_madd_epi16(xv, wv));
                    ai[u] = _mm256_add_epi32(ai[u], _mm256_madd_epi16(xs, wv));
                }
            }
        }
        (ar, ai)
    }

    /// The AVX2 body of [`super::qmac_rows`]: eight lanes per register, the
    /// lane tail at full width under a mask.
    ///
    /// # Safety
    ///
    /// The CPU has AVX2 and `QSweep::check` passed for `TL` rows.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn qmac_rows_avx2<const TL: usize>(
        s: &QSweep<'_>,
        acc_re: &mut [i32],
        acc_im: &mut [i32],
    ) {
        let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut t0 = 0;
        while t0 < s.len {
            let n = (s.len - t0).min(8);
            let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), iota);
            let (ar, ai) = if n == 8 {
                lanes8::<TL, false>(s, t0, mask)
            } else {
                lanes8::<TL, true>(s, t0, mask)
            };
            for u in 0..TL {
                let ao = s.abase + u * s.astride + t0;
                for (plane, v) in [(&mut *acc_re, ar[u]), (&mut *acc_im, ai[u])] {
                    let p = plane.as_mut_ptr().add(ao);
                    if n == 8 {
                        _mm256_storeu_si256(p.cast(), v);
                    } else {
                        _mm256_maskstore_epi32(p, mask, v);
                    }
                }
            }
            t0 += 8;
        }
    }

    /// One pass of [`qmac_rowvec_avx2`]: the `live` rows from `r0` in `G`
    /// groups of eight, every lane; with `MASKED`, the last group loads
    /// only the rows `mask` enables.
    ///
    /// # Safety
    ///
    /// As [`qmac_rowvec_avx2`], for rows `r0..r0 + live`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn rowvec8<const G: usize, const MASKED: bool>(
        s: &QSweep<'_>,
        r0: usize,
        live: usize,
        mask: __m256i,
        acc_re: &mut [i32],
        acc_im: &mut [i32],
    ) {
        for t in 0..s.len {
            let mut ar = [_mm256_setzero_si256(); G];
            let mut ai = [_mm256_setzero_si256(); G];
            for (w, &shift) in s.w.iter().zip(s.shifts) {
                let w = w.as_ptr().add(s.wbase + r0);
                let x = s.x.as_ptr().add(s.xbase + 2 * (shift + t));
                for j in 0..s.q {
                    let (xr, xi) = (*x.add(j * s.xstride), *x.add(j * s.xstride + 1));
                    let bre = _mm256_set1_epi32(madd_pair(xr, xi));
                    let bim = _mm256_set1_epi32(madd_pair(xi, xr.wrapping_neg()));
                    let wj = w.add(j * s.wstride);
                    for g in 0..G {
                        let wv = if MASKED && g + 1 == G {
                            _mm256_maskload_epi32(wj.add(8 * g), mask)
                        } else {
                            _mm256_loadu_si256(wj.add(8 * g).cast())
                        };
                        ar[g] = _mm256_add_epi32(ar[g], _mm256_madd_epi16(wv, bre));
                        ai[g] = _mm256_add_epi32(ai[g], _mm256_madd_epi16(wv, bim));
                    }
                }
            }
            // Spill through the stack: output rows sit `astride` apart.
            for g in 0..G {
                let (mut re, mut im) = ([0i32; 8], [0i32; 8]);
                _mm256_storeu_si256(re.as_mut_ptr().cast(), ar[g]);
                _mm256_storeu_si256(im.as_mut_ptr().cast(), ai[g]);
                for u in 0..8.min(live - 8 * g) {
                    let ao = s.abase + (r0 + 8 * g + u) * s.astride + t;
                    acc_re[ao] = re[u];
                    acc_im[ao] = im[u];
                }
            }
        }
    }

    /// The AVX2 body of [`super::qmac_rowvec`]: up to 32 rows (four
    /// vectors of eight) per pass, a row tail under a load mask.
    ///
    /// # Safety
    ///
    /// The CPU has AVX2 and `QSweep::check` passed for `rows` rows.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn qmac_rowvec_avx2(
        s: &QSweep<'_>,
        rows: usize,
        acc_re: &mut [i32],
        acc_im: &mut [i32],
    ) {
        let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut r0 = 0;
        while r0 < rows {
            let n = (rows - r0).min(32);
            // Rows the last group of this pass holds.
            let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(((n - 1) % 8 + 1) as i32), iota);
            macro_rules! pass {
                ($g:literal) => {
                    if n % 8 == 0 {
                        rowvec8::<$g, false>(s, r0, n, mask, acc_re, acc_im)
                    } else {
                        rowvec8::<$g, true>(s, r0, n, mask, acc_re, acc_im)
                    }
                };
            }
            match n.div_ceil(8) {
                1 => pass!(1),
                2 => pass!(2),
                3 => pass!(3),
                _ => pass!(4),
            }
            r0 += n;
        }
    }

    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn qpack_sse2(
        pr: &[f32],
        pi: Option<&[f32]>,
        inv_step: f32,
        max_code: i32,
        out: &mut [i16],
    ) {
        // SSE2 has no min/max_epi32: clamp by signed-compare select.
        #[inline(always)]
        unsafe fn clamp_epi32(v: __m128i, lo: __m128i, hi: __m128i) -> __m128i {
            let m = _mm_cmplt_epi32(v, hi);
            let v = _mm_or_si128(_mm_and_si128(m, v), _mm_andnot_si128(m, hi));
            let m = _mm_cmplt_epi32(v, lo);
            _mm_or_si128(_mm_and_si128(m, lo), _mm_andnot_si128(m, v))
        }
        let step = _mm_set1_ps(inv_step);
        let hi = _mm_set1_epi32(max_code);
        let lo = _mm_set1_epi32(-max_code);
        let mask = _mm_set1_epi32(0xFFFF);
        let n = pr.len();
        let mut t = 0;
        while t + 4 <= n {
            let re = _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(pr.as_ptr().add(t)), step));
            let re = clamp_epi32(re, lo, hi);
            let im = match pi {
                Some(pi) => {
                    let im = _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(pi.as_ptr().add(t)), step));
                    clamp_epi32(im, lo, hi)
                }
                None => _mm_setzero_si128(),
            };
            // (im << 16) | (re & 0xFFFF) per i32 lane is, little-endian,
            // exactly the interleaved `[re:i16][im:i16]` pair in memory.
            let w = _mm_or_si128(_mm_and_si128(re, mask), _mm_slli_epi32::<16>(im));
            _mm_storeu_si128(out.as_mut_ptr().add(2 * t).cast(), w);
            t += 4;
        }
        if t < n {
            qpack_scalar(
                &pr[t..],
                pi.map(|pi| &pi[t..]),
                inv_step,
                max_code,
                &mut out[2 * t..],
            );
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn qpack_avx2(
        pr: &[f32],
        pi: Option<&[f32]>,
        inv_step: f32,
        max_code: i32,
        out: &mut [i16],
    ) {
        let step = _mm256_set1_ps(inv_step);
        let hi = _mm256_set1_epi32(max_code);
        let lo = _mm256_set1_epi32(-max_code);
        let mask = _mm256_set1_epi32(0xFFFF);
        let n = pr.len();
        let mut t = 0;
        while t + 8 <= n {
            let re = _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(pr.as_ptr().add(t)), step));
            let re = _mm256_max_epi32(lo, _mm256_min_epi32(hi, re));
            let im = match pi {
                Some(pi) => {
                    let im = _mm256_cvtps_epi32(_mm256_mul_ps(
                        _mm256_loadu_ps(pi.as_ptr().add(t)),
                        step,
                    ));
                    _mm256_max_epi32(lo, _mm256_min_epi32(hi, im))
                }
                None => _mm256_setzero_si256(),
            };
            let w = _mm256_or_si256(_mm256_and_si256(re, mask), _mm256_slli_epi32::<16>(im));
            _mm256_storeu_si256(out.as_mut_ptr().add(2 * t).cast(), w);
            t += 8;
        }
        if t < n {
            qpack_scalar(
                &pr[t..],
                pi.map(|pi| &pi[t..]),
                inv_step,
                max_code,
                &mut out[2 * t..],
            );
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use x86::{
    cmac_rows_avx2, cmac_rows_sse2, qmac_avx2, qmac_rows_avx2, qmac_rows_sse2, qmac_rowvec_avx2,
    qmac_sse2, qpack_avx2, qpack_sse2, tanh_avx2,
};

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// ISAs the host can actually run (always includes Scalar).
    fn host_isas() -> Vec<Isa> {
        let mut v = vec![Isa::Scalar];
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            if std::arch::is_x86_feature_detected!("sse2") {
                v.push(Isa::Sse2);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                v.push(Isa::Avx2);
            }
        }
        v
    }

    /// `n` pseudo-random i16 codes in `(−m, m)` from `seed`.
    fn codes(n: usize, seed: u64, m: i16) -> Vec<i16> {
        (0..n)
            .map(|t| {
                let h = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((t as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
                ((h >> 48) as i16) % m
            })
            .collect()
    }

    /// `tanh` inputs at the port's branch edges: ±0, subnormals, |x| at
    /// 2⁻⁵⁵, 1 and 22 and one ulp either side, the `expm1` argument 2|x| at
    /// 2⁻²⁵, 0.5·ln2 and 1.5·ln2, the k = 22/23 and 56/57 switches, the
    /// largest finite values, ±inf, and quiet and signalling NaNs.
    const TANH_SPECIALS: [u32; 36] = [
        0x0000_0000,
        0x8000_0000,
        0x0000_0001,
        0x807f_ffff,
        0x23ff_ffff,
        0x2400_0000,
        0xa400_0001,
        0x3f7f_ffff,
        0x3f80_0000,
        0xbf80_0001,
        0x41af_ffff,
        0x41b0_0000,
        0xc1b0_0001,
        0x327f_ffff,
        0x3280_0000,
        0xb280_0001,
        0x3e31_7217,
        0x3e31_7218,
        0xbe31_7219,
        0x3f05_1591,
        0x3f05_1592,
        0xbf05_1593,
        0x40f9_999a,
        0xc0f9_999a,
        0x419c_0000,
        0x419c_cccd,
        0xc1a0_0000,
        0x41af_f000,
        0x7f7f_ffff,
        0xff7f_ffff,
        0x7f80_0000,
        0xff80_0000,
        0x7fc0_0000,
        0xffc0_0001,
        0x7f80_0001,
        0xff81_2345,
    ];

    /// Every one of the 2³² inputs through the port and each host ISA's
    /// body, against the host libm's `tanhf` (a NaN matches any NaN). The
    /// port reproduces the fdlibm `tanhf` glibc shipped, so this holds only
    /// on glibc releases that still ship it (checked on 2.36); a libm with a
    /// different `tanhf`, such as a correctly rounded one, fails it without
    /// the port being wrong. Run it with `cargo test --release -p
    /// circnn-core --lib tanh_matches_libm_exhaustively -- --ignored`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs: about two minutes in release"]
    #[cfg(target_env = "gnu")]
    fn tanh_matches_libm_exhaustively() {
        let isas = host_isas();
        let mut xs = vec![0.0f32; 1 << 16];
        let mut mismatches = vec![0u64; isas.len()];
        for hi in 0..1u32 << 16 {
            for (lo, x) in xs.iter_mut().enumerate() {
                *x = f32::from_bits(hi << 16 | lo as u32);
            }
            let libm: Vec<f32> = xs.iter().map(|x| x.tanh()).collect();
            for (n, &isa) in isas.iter().enumerate() {
                let mut got = xs.clone();
                tanh(isa, &mut got);
                let same =
                    |(g, w): (&f32, &f32)| g.to_bits() == w.to_bits() || g.is_nan() && w.is_nan();
                mismatches[n] += got.iter().zip(&libm).filter(|&p| !same(p)).count() as u64;
            }
        }
        assert!(
            mismatches.iter().all(|&m| m == 0),
            "{isas:?}: {mismatches:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// f32 row sweep: every host ISA matches the scalar body bitwise
        /// (same association, no FMA) for every tile height, offset and
        /// column count, lane length around the vector widths (tail-only
        /// included), lane step, misaligned bases, real bins, both weight
        /// signs and both weight layouts — rows contiguous, or columns, as
        /// the transpose and forward sweeps read the one plane set — and
        /// writes nothing outside its rows' `len` lanes.
        #[test]
        fn cmac_rows_matches_scalar_bitwise(
            (tl, ne, q) in (1usize..=4, 1usize..=3, 1usize..5),
            (len_pick, len_any) in (0usize..12, 1usize..40),
            (step, pad) in (1usize..=2, 0usize..4),
            (real, conj, col_major) in (any::<bool>(), any::<bool>(), any::<bool>()),
            seed in any::<u64>(),
        ) {
            let len = [1, 3, 7, 8, 9, 17].get(len_pick).copied().unwrap_or(len_any);
            let fill = |n: usize, s: u64| -> Vec<f32> {
                (0..n)
                    .map(|t| {
                        let h = s
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add((t as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
                        ((h >> 32) as i32 as f32) / (1u32 << 30) as f32
                    })
                    .collect()
            };
            let shifts: Vec<usize> = (0..ne).map(|e| (e * 5 + pad) % 7).collect();
            let (jstride, astride) = (len * step + pad, len + pad);
            let (wrow, wcol) = if col_major { (1, tl + pad) } else { (q + pad, 1) };
            // Planes end exactly at the last element a sweep may touch.
            let shift = shifts.iter().max().expect("ne ≥ 1");
            let x_len = pad + shift + (q - 1) * jstride + (len - 1) * step + 1;
            let (x_re, x_im) = (fill(x_len, seed), fill(x_len, seed ^ 0xabcd));
            let w_len = pad + (tl - 1) * wrow + (q - 1) * wcol + 1;
            let wp: Vec<(Vec<f32>, Vec<f32>)> = (0..ne as u64)
                .map(|e| (fill(w_len, seed ^ (e + 1)), fill(w_len, seed ^ (e + 9))))
                .collect();
            let w = |e: usize| (&wp[e].0[..], &wp[e].1[..]);
            let s = RowSweep {
                x: (&x_re, &x_im),
                xbase: pad,
                shifts: &shifts,
                jstride,
                step,
                wbase: pad,
                wrow,
                wcol,
                q,
                len,
                abase: pad,
                astride,
            };
            let a0 = fill(pad + (tl - 1) * astride + len, seed ^ 0x1111);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (mut gr, mut gi) = (a0.clone(), a0.clone());
            cmac_rows_scalar(real, conj, tl, &s, &w, &mut gr, &mut gi);
            for u in 0..tl {
                let gap = pad + u * astride + len..(pad + (u + 1) * astride).min(a0.len());
                prop_assert_eq!(bits(&gr[gap.clone()]), bits(&a0[gap]));
            }
            for &isa in &host_isas() {
                let (mut tr, mut ti) = (a0.clone(), a0.clone());
                cmac_rows(isa, real, conj, tl, &s, &w, &mut tr, &mut ti);
                prop_assert_eq!(bits(&tr), bits(&gr));
                prop_assert_eq!(bits(&ti), bits(&gi));
            }
        }

        /// i16 MAC: integer arithmetic, unconditionally bitwise across ISAs.
        /// Codes span the symmetric 12-bit clamp range the quantizer emits.
        #[test]
        fn qmac_matches_scalar_bitwise(
            len in 1usize..40,
            wr in -2047i16..=2047,
            wi in -2047i16..=2047,
            seed in any::<u64>(),
        ) {
            let x = codes(2 * len, seed, 1024);
            let a0: Vec<i32> = (0..len).map(|t| (t as i32 - 7) * 1023).collect();
            let (mut gr, mut gi) = (a0.clone(), a0.clone());
            qmac_scalar(madd_pair(wr, wi), &x, &mut gr, &mut gi);
            for &isa in &host_isas() {
                let (mut tr, mut ti) = (a0.clone(), a0.clone());
                qmac(isa, madd_pair(wr, wi), &x, &mut tr, &mut ti);
                prop_assert_eq!(&tr, &gr);
                prop_assert_eq!(&ti, &gi);
            }
        }

        /// Both i16 sweep shapes on every host ISA equal the scalar
        /// reference bitwise — the lane sweep per tile of 1..=4 rows, the
        /// row-vector sweep over any row count (row tails past the 8-row
        /// vectors included) — for several kernel offsets and plane
        /// shifts, 1..=7 lanes and beyond, misaligned bases, and codes at
        /// the clamp edge. Each writes exactly its rows' `len` lanes.
        #[test]
        fn qmac_sweeps_match_scalar_bitwise(
            (rows, tl, ne, q) in (1usize..40, 1usize..=4, 1usize..=4, 1usize..6),
            (len_pick, len_any) in (0usize..10, 1usize..30),
            (pad, wpad) in (0usize..5, 0usize..3),
            seed in any::<u64>(),
        ) {
            let len = [1, 2, 3, 5, 7, 8].get(len_pick).copied().unwrap_or(len_any);
            let shifts: Vec<usize> = (0..ne).map(|e| (e * 3 + pad) % 5).collect();
            // Rows padded apart like a bin's p rows inside a wider plane.
            let wstride = rows + wpad;
            let w: Vec<Vec<i32>> = (0..ne as u64)
                .map(|e| {
                    let c = codes(2 * (wpad + q * wstride), seed ^ (e + 1), 2048);
                    c.chunks_exact(2).map(|c| madd_pair(c[0], c[1])).collect()
                })
                .collect();
            let xstride = 2 * (len + 5) + pad;
            let x = codes(pad + 2 * (5 + len) + q * xstride, seed ^ 0xabcd, 1024);
            let astride = len + pad + 1;
            let s = QSweep {
                w: &w,
                wbase: wpad,
                wstride,
                q,
                x: &x,
                xbase: pad,
                shifts: &shifts,
                xstride,
                len,
                abase: pad,
                astride,
            };
            let a0: Vec<i32> = (0..pad + rows * astride).map(|t| (t as i32 - 9) * 515).collect();
            let (mut gr, mut gi) = (a0.clone(), a0.clone());
            qmac_rows_lanes(&s, 0..rows, 0, &mut gr, &mut gi);
            for u in 0..rows {
                let gap = pad + u * astride + len..(pad + (u + 1) * astride).min(a0.len());
                prop_assert_eq!(&gr[gap.clone()], &a0[gap]);
            }
            let tl = tl.min(rows);
            let rows_of = |v: &[i32], n: usize| v[..pad + n * astride].to_vec();
            for &isa in &host_isas() {
                let (mut tr, mut ti) = (a0.clone(), a0.clone());
                qmac_rowvec(isa, rows, &s, &mut tr, &mut ti);
                prop_assert_eq!(&tr, &gr, "row-vector {:?}", isa);
                prop_assert_eq!(&ti, &gi, "row-vector {:?}", isa);
                let (mut tr, mut ti) = (a0.clone(), a0.clone());
                qmac_rows(isa, tl, &s, &mut tr, &mut ti);
                prop_assert_eq!(rows_of(&tr, tl), rows_of(&gr, tl), "lane sweep {:?}", isa);
                prop_assert_eq!(rows_of(&ti, tl), rows_of(&gi, tl), "lane sweep {:?}", isa);
            }
        }

        /// The vector `tanh` equals the fdlibm port bitwise on every host
        /// ISA, NaN payloads included, over every special input plus
        /// random bit patterns (the exponent is uniform, so every branch is
        /// hit), rotated so each value lands in every vector lane and in
        /// the scalar tail.
        #[test]
        fn tanh_matches_port_bitwise(
            raw in prop::collection::vec(any::<u32>(), 0..40),
            rot in 0usize..80,
        ) {
            let mut xs: Vec<f32> = TANH_SPECIALS.iter().chain(&raw).map(|&b| f32::from_bits(b)).collect();
            let r = rot % xs.len();
            xs.rotate_left(r);
            let port: Vec<u32> = xs.iter().map(|&x| circnn_tensor::tanh(x).to_bits()).collect();
            for &isa in &host_isas() {
                let mut got = xs.clone();
                tanh(isa, &mut got);
                let got: Vec<u32> = got.iter().map(|y| y.to_bits()).collect();
                prop_assert_eq!(&got, &port, "{:?}", isa);
            }
        }

        /// Fused quantize-and-interleave: ties-to-even rounding, clamping,
        /// and pair packing agree bitwise across ISAs, including values far
        /// outside the clamp range and exact .5 ties.
        #[test]
        fn qpack_matches_scalar_bitwise(
            len in 1usize..40,
            inv_step in 0.05f32..200.0,
            max_code in 1i32..4096,
            real_bin in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let fill = |s: u64| -> Vec<f32> {
                (0..len)
                    .map(|t| {
                        let h = s
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add((t as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
                        // Mix magnitudes around the clamp edge with exact
                        // half-integer ties.
                        if t % 5 == 0 {
                            ((h >> 40) as i32 as f32 + 0.5) / inv_step
                        } else {
                            ((h >> 32) as i32 as f32) / (1u32 << 16) as f32
                        }
                    })
                    .collect()
            };
            let pr = fill(seed);
            let pi = fill(seed ^ 0xabcd);
            let pi_ref = if real_bin { None } else { Some(&pi[..]) };
            let mut golden = vec![0i16; 2 * len];
            qpack_scalar(&pr, pi_ref, inv_step, max_code, &mut golden);
            for &isa in &host_isas() {
                let mut got = vec![0i16; 2 * len];
                qpack(isa, &pr, pi_ref, inv_step, max_code, &mut got);
                prop_assert_eq!(&got, &golden);
            }
        }
    }
}
