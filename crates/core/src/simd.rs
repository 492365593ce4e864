//! Runtime-dispatched SIMD MAC kernels for the spectral-plane engine.
//!
//! Both precisions have the same kernel shape — a **register-resident row
//! sweep**: a tile of up to four output block rows accumulates every
//! kernel offset × block column term with the running sums in vector
//! registers, and each accumulator is written exactly once.
//!
//! * [`cmac_rows`] — the f32 sweep
//!   (`ar += wr·xr + wi·xi`, `ai += wr·xi − wi·xr`), with a real-bin form
//!   (`ar += wr·xr`) and the conjugated form the transpose apply uses.
//! * [`qmac_rows`] — the i16×i16→i32 sweep over interleaved `(re, im)` code
//!   pairs, the `_mm_madd_epi16` shape: one pairwise multiply-add yields
//!   `wr·xr + wi·xi` (or `wr·xi − wi·xr`) per 32-bit accumulator lane.
//!   [`qmac`] is its per-term form for strided lanes.
//!
//! Dispatch is by runtime CPUID check (`is_x86_feature_detected!`), cached
//! in a `OnceLock`, resolved **once per MAC chunk** and threaded into the
//! kernels as a value — the hot loops never touch the atomic. The f32
//! vector lanes use the same mul/mul/add(sub) association as the scalar
//! loop and no FMA, so scalar and SIMD results are bitwise identical lane
//! for lane; the i16 kernels are pure integer arithmetic and therefore
//! unconditionally bitwise stable. With the `simd` feature off (or off
//! x86-64) every wrapper collapses to the scalar body.

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
/// `wbase + u·wstride + j` of offset `e`'s weight planes, and its `len`
/// output lanes start at `abase + u·astride` of the accumulator planes.
pub(crate) struct RowSweep<'a> {
    pub x: (&'a [f32], &'a [f32]),
    pub xbase: usize,
    pub shifts: &'a [usize],
    pub jstride: usize,
    pub step: usize,
    pub wbase: usize,
    pub wstride: usize,
    pub q: usize,
    pub len: usize,
    pub abase: usize,
    pub astride: usize,
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
                let row = s.wbase + u * s.wstride;
                for j in 0..s.q {
                    let (wr, wi) = (wre[row + j], wim[row + j]);
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
// i16 complex MAC (interleaved (re, im) pairs → i32 accumulators)
// ---------------------------------------------------------------------------

/// Quantized complex MAC: `x` holds `l` interleaved `(re, im)` i16 code
/// pairs (`x.len() == 2·l`); for each lane `t`,
/// `ar[t] += wr·xr − (−wi)·xi = wr·xr + wi·xi` and
/// `ai[t] += wr·xi − wi·xr`, all in i32.
///
/// The symmetric quantizer clamps codes to `[−C, C]` with
/// `C ≤ 2¹⁵ − 1`, so each pairwise product sum fits i32 by construction
/// (the registration-time overflow check guarantees the running total
/// does too), and `wi.wrapping_neg()` below can never hit `i16::MIN`.
#[inline(always)]
pub(crate) fn qmac(isa: Isa, wr: i16, wi: i16, x: &[i16], ar: &mut [i32], ai: &mut [i32]) {
    match isa {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Avx2 => unsafe { qmac_avx2(wr, wi, x, ar, ai) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Sse2 => unsafe { qmac_sse2(wr, wi, x, ar, ai) },
        _ => qmac_scalar(wr, wi, x, ar, ai),
    }
}

#[inline(always)]
fn qmac_scalar(wr: i16, wi: i16, x: &[i16], ar: &mut [i32], ai: &mut [i32]) {
    let (wr, wi) = (i32::from(wr), i32::from(wi));
    let l = ar.len();
    for t in 0..l {
        let xr = i32::from(x[2 * t]);
        let xi = i32::from(x[2 * t + 1]);
        ar[t] += wr * xr + wi * xi;
        ai[t] += wr * xi - wi * xr;
    }
}

/// Packs two i16 words into the i32 madd constant `(hi << 16) | lo` so a
/// pairwise i16 multiply-add against an `(re, im)` pair (re in the low
/// element) computes `lo·re + hi·im`.
#[inline(always)]
pub(crate) fn madd_pair(lo: i16, hi: i16) -> i32 {
    ((hi as u16 as i32) << 16) | (lo as u16 as i32)
}

/// Register-resident quantized MAC over a tile of `tl ≤ 4` block rows:
/// for each row `u`, **overwrites** `acc_re/acc_im[aos[u]..]` with
/// `Σ_e Σ_j w[e][u][j] ∘ x[e][j]` over every engine (fused operator —
/// e.g. the r² kernel offsets of a convolution) and block column, for
/// `len` lanes. The running sums stay in SIMD registers across the entire
/// `e × j` sweep — the per-`j` [`qmac`] formulation pays accumulator loads
/// and stores on every weight element; this one pays the stores once per
/// tile, which is what makes small-`q` shapes (convolution with
/// `in_c == k`, so `q == 1`) profitable.
///
/// `wa[e·es + u·q + j]` / `wb[...]` are [`madd_pair`] constants
/// (`pack(wr, wi)` and `pack(−wi, wr)`); `xq` holds interleaved `(re, im)`
/// pairs with lane `t` of engine `e`'s column `j` at
/// `xbase + 2·shifts[e] + j·xstride + 2t`. Integer accumulation is exact,
/// so every ISA — and the per-`j` [`qmac`] ordering — produces bitwise
/// identical results.
///
/// # Panics
///
/// Panics if `tl` is not in `1..=4` or an index described above falls
/// outside its slice — the bounds the vector bodies rely on.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn qmac_rows(
    isa: Isa,
    wa: &[i32],
    wb: &[i32],
    tl: usize,
    es: usize,
    q: usize,
    xq: &[i16],
    xbase: usize,
    shifts: &[usize],
    xstride: usize,
    len: usize,
    acc_re: &mut [i32],
    acc_im: &mut [i32],
    aos: &[usize],
) {
    assert!((1..=4).contains(&tl) && aos.len() == tl && tl * q <= es);
    let Some(&shift) = shifts.iter().max() else {
        return;
    };
    if q == 0 || len == 0 {
        return;
    }
    let w_end = (shifts.len() - 1) * es + tl * q;
    assert!(w_end <= wa.len().min(wb.len()), "madd constants");
    let x_end = xbase + 2 * shift + (q - 1) * xstride + 2 * len;
    assert!(x_end <= xq.len(), "input lanes");
    let a_end = aos.iter().max().expect("tl ≥ 1") + len;
    assert!(a_end <= acc_re.len().min(acc_im.len()), "accumulator rows");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    macro_rules! rows {
        ($f:ident) => {
            match tl {
                1 => $f::<1>(
                    wa, wb, es, q, xq, xbase, shifts, xstride, len, acc_re, acc_im, aos,
                ),
                2 => $f::<2>(
                    wa, wb, es, q, xq, xbase, shifts, xstride, len, acc_re, acc_im, aos,
                ),
                3 => $f::<3>(
                    wa, wb, es, q, xq, xbase, shifts, xstride, len, acc_re, acc_im, aos,
                ),
                _ => $f::<4>(
                    wa, wb, es, q, xq, xbase, shifts, xstride, len, acc_re, acc_im, aos,
                ),
            }
        };
    }
    match isa {
        // SAFETY: `isa()` only reports an ISA the CPU has, and the asserts
        // above are the kernels' index preconditions.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Avx2 => unsafe { rows!(qmac_rows_avx2) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Sse2 => unsafe { rows!(qmac_rows_sse2) },
        _ => qmac_rows_lanes(
            wa, tl, es, q, xq, xbase, shifts, xstride, 0, len, acc_re, acc_im, aos,
        ),
    }
}

/// Scalar row MAC over lanes `t0..len` — the portable body and the vector
/// kernels' shared tail. Unpacks `wr`/`wi` back out of the `wa` constants
/// so one constant table serves every ISA.
#[allow(clippy::too_many_arguments)]
fn qmac_rows_lanes(
    wa: &[i32],
    tl: usize,
    es: usize,
    q: usize,
    xq: &[i16],
    xbase: usize,
    shifts: &[usize],
    xstride: usize,
    t0: usize,
    len: usize,
    acc_re: &mut [i32],
    acc_im: &mut [i32],
    aos: &[usize],
) {
    for u in 0..tl {
        let ao = aos[u];
        acc_re[ao + t0..ao + len].fill(0);
        acc_im[ao + t0..ao + len].fill(0);
        for (e, &shift) in shifts.iter().enumerate() {
            let xb = xbase + 2 * shift;
            for j in 0..q {
                let w = wa[e * es + u * q + j];
                let wr = w as i16 as i32;
                let wi = w >> 16;
                let xo = xb + j * xstride;
                for t in t0..len {
                    let xr = i32::from(xq[xo + 2 * t]);
                    let xi = i32::from(xq[xo + 2 * t + 1]);
                    acc_re[ao + t] += wr * xr + wi * xi;
                    acc_im[ao + t] += wr * xi - wi * xr;
                }
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

    use super::{madd_pair, qmac_rows_lanes, qpack_scalar, RowSweep};

    /// The `TL` tile rows' `s.q` weights in one plane — bounds-checked
    /// here, once per offset, so the column loops index rows of exactly
    /// `s.q` elements with `j < s.q`.
    #[inline]
    fn tile_rows<'w, const TL: usize>(plane: &'w [f32], s: &RowSweep<'_>) -> [&'w [f32]; TL] {
        let mut rows = [&plane[..0]; TL];
        for (u, row) in rows.iter_mut().enumerate() {
            *row = &plane[s.wbase + u * s.wstride..][..s.q];
        }
        rows
    }

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
    /// planes. (Weight rows are sliced with bounds checks.)
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
                let wr = tile_rows::<TL>(wre, s);
                let wi = if REAL { wr } else { tile_rows::<TL>(wim, s) };
                let xo = s.xbase + shift + t0 * s.step;
                for j in 0..s.q {
                    let xr = ld4(x_re.add(xo + j * s.jstride), s.step, n);
                    if REAL {
                        for u in 0..TL {
                            ar[u] = _mm_add_ps(ar[u], _mm_mul_ps(_mm_set1_ps(wr[u][j]), xr));
                        }
                        continue;
                    }
                    let xi = ld4(x_im.add(xo + j * s.jstride), s.step, n);
                    for u in 0..TL {
                        let (wrv, wiv) = (_mm_set1_ps(wr[u][j]), _mm_set1_ps(wi[u][j]));
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
            let wr = tile_rows::<TL>(wre, s);
            let wi = if REAL { wr } else { tile_rows::<TL>(wim, s) };
            let xo = s.xbase + shift + t0 * s.step;
            for j in 0..s.q {
                let xr = ld(x_re.add(xo + j * s.jstride));
                if REAL {
                    for u in 0..TL {
                        let wrv = _mm256_set1_ps(wr[u][j]);
                        ar[u] = _mm256_add_ps(ar[u], _mm256_mul_ps(wrv, xr));
                    }
                    continue;
                }
                let xi = ld(x_im.add(xo + j * s.jstride));
                for u in 0..TL {
                    let wrv = _mm256_set1_ps(wr[u][j]);
                    let wiv = _mm256_set1_ps(wi[u][j]);
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

    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn qmac_sse2(wr: i16, wi: i16, x: &[i16], ar: &mut [i32], ai: &mut [i32]) {
        let l = ar.len();
        // madd over (re, im) pairs: wa yields wr·re + wi·im (the ar term),
        // wb yields (−wi)·re + wr·im = wr·im − wi·re (the ai term).
        let wa = _mm_set1_epi32(madd_pair(wr, wi));
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
        let (wr, wi) = (i32::from(wr), i32::from(wi));
        while t < l {
            let xr = i32::from(x[2 * t]);
            let xi = i32::from(x[2 * t + 1]);
            ar[t] += wr * xr + wi * xi;
            ai[t] += wr * xi - wi * xr;
            t += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn qmac_avx2(wr: i16, wi: i16, x: &[i16], ar: &mut [i32], ai: &mut [i32]) {
        let l = ar.len();
        let wa = _mm256_set1_epi32(madd_pair(wr, wi));
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
        let (wr, wi) = (i32::from(wr), i32::from(wi));
        while t < l {
            let xr = i32::from(x[2 * t]);
            let xi = i32::from(x[2 * t + 1]);
            ar[t] += wr * xr + wi * xi;
            ai[t] += wr * xi - wi * xr;
            t += 1;
        }
    }

    /// The SSE2 body of [`super::qmac_rows`].
    ///
    /// # Safety
    ///
    /// The CPU has SSE2 and the wrapper's asserts hold: `aos.len() == TL`,
    /// the madd constants cover `(shifts.len() − 1)·es + TL·q` entries, and
    /// every `(e, j, t)` code pair and `(u, t)` accumulator lane is in
    /// bounds.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn qmac_rows_sse2<const TL: usize>(
        wa: &[i32],
        wb: &[i32],
        es: usize,
        q: usize,
        xq: &[i16],
        xbase: usize,
        shifts: &[usize],
        xstride: usize,
        len: usize,
        acc_re: &mut [i32],
        acc_im: &mut [i32],
        aos: &[usize],
    ) {
        let mut t0 = 0;
        while t0 + 4 <= len {
            let mut ar = [_mm_setzero_si128(); TL];
            let mut ai = [_mm_setzero_si128(); TL];
            for (e, &shift) in shifts.iter().enumerate() {
                let xb = xbase + 2 * shift;
                for j in 0..q {
                    let xv = _mm_loadu_si128(xq.as_ptr().add(xb + j * xstride + 2 * t0).cast());
                    for u in 0..TL {
                        let wav = _mm_set1_epi32(*wa.get_unchecked(e * es + u * q + j));
                        let wbv = _mm_set1_epi32(*wb.get_unchecked(e * es + u * q + j));
                        ar[u] = _mm_add_epi32(ar[u], _mm_madd_epi16(xv, wav));
                        ai[u] = _mm_add_epi32(ai[u], _mm_madd_epi16(xv, wbv));
                    }
                }
            }
            for u in 0..TL {
                _mm_storeu_si128(acc_re.as_mut_ptr().add(aos[u] + t0).cast(), ar[u]);
                _mm_storeu_si128(acc_im.as_mut_ptr().add(aos[u] + t0).cast(), ai[u]);
            }
            t0 += 4;
        }
        if t0 < len {
            qmac_rows_lanes(
                wa, TL, es, q, xq, xbase, shifts, xstride, t0, len, acc_re, acc_im, aos,
            );
        }
    }

    /// The AVX2 body of [`super::qmac_rows`].
    ///
    /// # Safety
    ///
    /// As [`qmac_rows_sse2`], with AVX2.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn qmac_rows_avx2<const TL: usize>(
        wa: &[i32],
        wb: &[i32],
        es: usize,
        q: usize,
        xq: &[i16],
        xbase: usize,
        shifts: &[usize],
        xstride: usize,
        len: usize,
        acc_re: &mut [i32],
        acc_im: &mut [i32],
        aos: &[usize],
    ) {
        let mut t0 = 0;
        while t0 + 8 <= len {
            let mut ar = [_mm256_setzero_si256(); TL];
            let mut ai = [_mm256_setzero_si256(); TL];
            for (e, &shift) in shifts.iter().enumerate() {
                let xb = xbase + 2 * shift;
                for j in 0..q {
                    let xv = _mm256_loadu_si256(xq.as_ptr().add(xb + j * xstride + 2 * t0).cast());
                    for u in 0..TL {
                        let wav = _mm256_set1_epi32(*wa.get_unchecked(e * es + u * q + j));
                        let wbv = _mm256_set1_epi32(*wb.get_unchecked(e * es + u * q + j));
                        ar[u] = _mm256_add_epi32(ar[u], _mm256_madd_epi16(xv, wav));
                        ai[u] = _mm256_add_epi32(ai[u], _mm256_madd_epi16(xv, wbv));
                    }
                }
            }
            for u in 0..TL {
                _mm256_storeu_si256(acc_re.as_mut_ptr().add(aos[u] + t0).cast(), ar[u]);
                _mm256_storeu_si256(acc_im.as_mut_ptr().add(aos[u] + t0).cast(), ai[u]);
            }
            t0 += 8;
        }
        if t0 < len {
            // Masked tail: each i32 lane is one `(re, im)` i16 pair, so a
            // maskload/maskstore pair runs the remainder at full vector
            // width — masked-off x lanes read as zero and contribute
            // nothing. Short conv runs (padded plane length per sample)
            // would otherwise pay a scalar sweep over all e·q columns per
            // leftover lane.
            let rem = (len - t0) as i32;
            let mv = _mm256_cmpgt_epi32(
                _mm256_set1_epi32(rem),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            let mut ar = [_mm256_setzero_si256(); TL];
            let mut ai = [_mm256_setzero_si256(); TL];
            for (e, &shift) in shifts.iter().enumerate() {
                let xb = xbase + 2 * shift;
                for j in 0..q {
                    let xv = _mm256_maskload_epi32(
                        xq.as_ptr().add(xb + j * xstride + 2 * t0).cast(),
                        mv,
                    );
                    for u in 0..TL {
                        let wav = _mm256_set1_epi32(*wa.get_unchecked(e * es + u * q + j));
                        let wbv = _mm256_set1_epi32(*wb.get_unchecked(e * es + u * q + j));
                        ar[u] = _mm256_add_epi32(ar[u], _mm256_madd_epi16(xv, wav));
                        ai[u] = _mm256_add_epi32(ai[u], _mm256_madd_epi16(xv, wbv));
                    }
                }
            }
            for u in 0..TL {
                _mm256_maskstore_epi32(acc_re.as_mut_ptr().add(aos[u] + t0).cast(), mv, ar[u]);
                _mm256_maskstore_epi32(acc_im.as_mut_ptr().add(aos[u] + t0).cast(), mv, ai[u]);
            }
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
    cmac_rows_avx2, cmac_rows_sse2, qmac_avx2, qmac_rows_avx2, qmac_rows_sse2, qmac_sse2,
    qpack_avx2, qpack_sse2,
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// f32 row sweep: every host ISA matches the scalar body bitwise
        /// (same association, no FMA) for every tile height, offset and
        /// column count, lane length around the vector widths (tail-only
        /// included), lane step, misaligned bases, real bins and both weight
        /// signs — and writes nothing outside its rows' `len` lanes.
        #[test]
        fn cmac_rows_matches_scalar_bitwise(
            (tl, ne, q) in (1usize..=4, 1usize..=3, 1usize..5),
            (len_pick, len_any) in (0usize..12, 1usize..40),
            (step, pad) in (1usize..=2, 0usize..4),
            (real, conj) in (any::<bool>(), any::<bool>()),
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
            let (jstride, wstride, astride) = (len * step + pad, q + pad, len + pad);
            // Planes end exactly at the last element a sweep may touch.
            let shift = shifts.iter().max().expect("ne ≥ 1");
            let x_len = pad + shift + (q - 1) * jstride + (len - 1) * step + 1;
            let (x_re, x_im) = (fill(x_len, seed), fill(x_len, seed ^ 0xabcd));
            let w_len = pad + (tl - 1) * wstride + q;
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
                wstride,
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
            let x: Vec<i16> = (0..2 * len)
                .map(|t| {
                    let h = seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add((t as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
                    ((h >> 48) as i16) % 1024
                })
                .collect();
            let a0: Vec<i32> = (0..len).map(|t| (t as i32 - 7) * 1023).collect();
            let (mut gr, mut gi) = (a0.clone(), a0.clone());
            qmac_scalar(wr, wi, &x, &mut gr, &mut gi);
            for &isa in &host_isas() {
                let (mut tr, mut ti) = (a0.clone(), a0.clone());
                qmac(isa, wr, wi, &x, &mut tr, &mut ti);
                prop_assert_eq!(&tr, &gr);
                prop_assert_eq!(&ti, &gi);
            }
        }

        /// Register-tiled i16 row MAC: bitwise across ISAs for every tile
        /// height, engine count, column count, lane length, and stride.
        #[test]
        fn qmac_rows_matches_scalar_bitwise(
            tl in 1usize..=4,
            ne in 1usize..=4,
            q in 1usize..6,
            len in 1usize..40,
            xstride_pad in 0usize..5,
            seed in any::<u64>(),
        ) {
            let xstride = 2 * len + 2 * xstride_pad;
            let xq: Vec<i16> = (0..(ne + 1) * 2 * xstride_pad + q * xstride + 2 * len)
                .map(|t| {
                    let h = seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add((t as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
                    ((h >> 48) as i16) % 1024
                })
                .collect();
            // Per-engine lane shifts like the conv kernel-offset shifts.
            let shifts: Vec<usize> = (0..ne).map(|e| xstride_pad * (e + 1)).collect();
            let es = 4 * q; // TI·q, with TI = 4 as in the engine
            let (wa, wb): (Vec<i32>, Vec<i32>) = (0..ne * es)
                .map(|t| {
                    let h = seed
                        .wrapping_mul(0x2545_f491_4f6c_dd1d)
                        .wrapping_add((t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    let wr = ((h >> 40) as i16) % 2048;
                    let wi = ((h >> 24) as i16) % 2048;
                    (madd_pair(wr, wi), madd_pair(wi.wrapping_neg(), wr))
                })
                .unzip();
            // Accumulator rows laid out back-to-back with a guard gap, and
            // pre-filled with garbage the kernel must overwrite.
            let aos: Vec<usize> = (0..tl).map(|u| u * (len + 3)).collect();
            let a0: Vec<i32> = (0..tl * (len + 3)).map(|t| (t as i32 - 9) * 515).collect();
            let (mut gr, mut gi) = (a0.clone(), a0.clone());
            qmac_rows_lanes(&wa, tl, es, q, &xq, 0, &shifts, xstride, 0, len, &mut gr, &mut gi, &aos);
            for &isa in &host_isas() {
                let (mut tr, mut ti) = (a0.clone(), a0.clone());
                qmac_rows(isa, &wa, &wb, tl, es, q, &xq, 0, &shifts, xstride, len, &mut tr, &mut ti, &aos);
                prop_assert_eq!(&tr, &gr);
                prop_assert_eq!(&ti, &gi);
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
