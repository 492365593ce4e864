//! Batch-plane FFT: one transform over many signals at once.
//!
//! The batched block-circulant engine holds its spectra in
//! structure-of-arrays planes `[index][batch]` (split re/im), with the batch
//! dimension innermost. Transforming `batch` signals one at a time wastes
//! that layout — every butterfly of a radix-2 FFT applied at index granularity
//! is the *same* operation for every signal in the batch, so this plan runs
//! each butterfly across the whole length-`batch` row at once: stride-1
//! loops the compiler turns into SIMD, and one plan dispatch per *block*
//! instead of per *sample*.
//!
//! This is the software analogue of feeding the paper's FFT datapath a new
//! input vector every cycle: the butterfly structure is fixed, only the data
//! streams.

use core::array::from_fn;

use crate::complex::Complex;
use crate::error::FftError;
use crate::float::Float;

/// Lanes per codelet tile. Below this many lanes each lane runs alone (its
/// butterflies unroll into straight-line code); from it on, tiles of `TILE`
/// lanes run together (each butterfly is one `TILE`-wide operation) and
/// the ragged tail runs lane by lane.
const TILE: usize = 8;

/// An unrolled real-input transform of one half-length `H ∈ {2, …, 64}`
/// (block sizes k = 4…128). It runs exactly the radix-2 path's butterflies:
/// the same stages and twiddles (trivial ones included) read from the
/// plan's tables, the conjugate as `ZERO − wi`, the `1/h` scale as its own
/// multiply, plain mul/add, so its output is bit-identical. What goes is
/// the memory traffic: the even/odd pack and the bit reversal are the
/// tile's load order, every stage runs on the stack tile, and the twiddle
/// unpack (or the interleave) is its store. The flag selects the inverse.
type Codelet<T> = fn(&BatchFftPlan<T>, &mut [T], &mut [T], usize, bool);

/// A planned radix-2 FFT of power-of-two length `n` over `[n][batch]`
/// split re/im planes.
///
/// # Examples
///
/// ```
/// use circnn_fft::BatchFftPlan;
///
/// # fn main() -> Result<(), circnn_fft::FftError> {
/// let plan = BatchFftPlan::<f32>::new(4)?;
/// // Two interleaved signals: [1,0,0,0] and [0,1,0,0] (batch-innermost).
/// let mut re = vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0];
/// let mut im = vec![0.0; 8];
/// plan.forward_planes(&mut re, &mut im, 2)?;
/// assert_eq!(re[0], 1.0); // DC bin of signal 0
/// assert_eq!(re[1], 1.0); // DC bin of signal 1
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchFftPlan<T> {
    n: usize,
    /// Flattened per-stage twiddles `e^{-2πi j/len}`, stages in order
    /// `len = 2, 4, …, n`, `j in 0..len/2` each.
    tw_re: Vec<T>,
    tw_im: Vec<T>,
    /// Bit-reversal permutation of `0..n`.
    bitrev: Vec<usize>,
    /// Half-length plan driving the real-input transforms (`None` for
    /// `n < 2` and for the inner half plans themselves).
    half: Option<Box<BatchFftPlan<T>>>,
    /// Real-transform unpack twiddles `e^{-2πik/n}` for `k in 0..=n/2`
    /// (empty on inner half plans).
    rtw_re: Vec<T>,
    rtw_im: Vec<T>,
    /// The real-input transforms' codelet, for `n ∈ {4, …, 128}`; other
    /// lengths run the pack + [`Self::permute`] + [`Self::butterflies`] path.
    codelet: Option<Codelet<T>>,
}

impl<T: Float> BatchFftPlan<T> {
    /// Builds a plan for batched transforms of length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::ZeroLength`] if `n == 0` and
    /// [`FftError::NotPowerOfTwo`] otherwise for non-power-of-two `n`.
    pub fn new(n: usize) -> Result<Self, FftError> {
        Self::build(n, true)
    }

    /// Shared constructor; `real_support` adds the half plan + unpack
    /// twiddles that [`BatchFftPlan::forward_planes_real`] needs (skipped
    /// on the inner half plan, which only ever runs the complex path).
    fn build(n: usize, real_support: bool) -> Result<Self, FftError> {
        if n == 0 {
            return Err(FftError::ZeroLength);
        }
        if !n.is_power_of_two() {
            return Err(FftError::NotPowerOfTwo(n));
        }
        let bits = n.trailing_zeros();
        let bitrev = (0..n)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    (i as u64).reverse_bits().wrapping_shr(64 - bits) as usize
                }
            })
            .collect();
        let mut tw_re = Vec::new();
        let mut tw_im = Vec::new();
        let mut len = 2;
        while len <= n {
            for j in 0..len / 2 {
                let theta = -T::TWO * T::PI * T::from_usize(j) / T::from_usize(len);
                let w = Complex::from_polar(T::ONE, theta);
                tw_re.push(w.re);
                tw_im.push(w.im);
            }
            len <<= 1;
        }
        let (half, mut rtw_re, mut rtw_im) = (None, Vec::new(), Vec::new());
        let half = if real_support && n >= 2 {
            for k in 0..=n / 2 {
                let theta = -T::TWO * T::PI * T::from_usize(k) / T::from_usize(n);
                let w = Complex::from_polar(T::ONE, theta);
                rtw_re.push(w.re);
                rtw_im.push(w.im);
            }
            Some(Box::new(Self::build(n / 2, false)?))
        } else {
            half
        };
        let codelet: Option<Codelet<T>> = match n {
            _ if half.is_none() => None,
            4 => Some(Self::codelet::<2>),
            8 => Some(Self::codelet::<4>),
            16 => Some(Self::codelet::<8>),
            32 => Some(Self::codelet::<16>),
            64 => Some(Self::codelet::<32>),
            128 => Some(Self::codelet::<64>),
            _ => None,
        };
        Ok(Self {
            n,
            tw_re,
            tw_im,
            bitrev,
            half,
            rtw_re,
            rtw_im,
            codelet,
        })
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`; provided for API completeness alongside [`len`].
    ///
    /// [`len`]: Self::len
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    fn validate(&self, re: &[T], im: &[T], batch: usize) -> Result<(), FftError> {
        if batch == 0 {
            return Err(FftError::ZeroLength);
        }
        let want = self.n * batch;
        if re.len() != want || im.len() != want {
            return Err(FftError::LengthMismatch {
                expected: want,
                got: re.len().min(im.len()),
            });
        }
        Ok(())
    }

    /// In-place forward DFT of `batch` signals held as `[n][batch]` planes.
    ///
    /// # Errors
    ///
    /// Returns [`FftError`] if the planes are not `n·batch` long or the
    /// batch is zero.
    pub fn forward_planes(&self, re: &mut [T], im: &mut [T], batch: usize) -> Result<(), FftError> {
        self.validate(re, im, batch)?;
        self.permute(re, im, batch);
        self.butterflies(re, im, batch, false);
        Ok(())
    }

    /// In-place inverse DFT (scaled by `1/n`) of `batch` signals.
    ///
    /// # Errors
    ///
    /// Returns [`FftError`] if the planes are not `n·batch` long or the
    /// batch is zero.
    pub fn inverse_planes(&self, re: &mut [T], im: &mut [T], batch: usize) -> Result<(), FftError> {
        self.validate(re, im, batch)?;
        self.permute(re, im, batch);
        self.butterflies(re, im, batch, true);
        let scale = T::ONE / T::from_usize(self.n);
        for v in re.iter_mut() {
            *v = *v * scale;
        }
        for v in im.iter_mut() {
            *v = *v * scale;
        }
        Ok(())
    }

    /// In-place forward DFT of `batch` **real** signals held as an
    /// `[n][batch]` plane in `re` (`im` is pure scratch — its contents are
    /// ignored and destroyed). On return the unique `n/2 + 1` half-spectrum
    /// rows sit in `re[..(n/2 + 1)·batch]` / `im[..(n/2 + 1)·batch]`;
    /// higher rows are garbage. The redundant mirror rows
    /// (`X[n−r] = conj(X[r])`) are never computed or stored — the software
    /// form of the paper's Fig. 10 observation that real inputs let half
    /// the butterfly outcomes be skipped.
    ///
    /// Each lane packs its own even/odd samples into one half-length
    /// complex lane (the [`RealFftPlan`](crate::RealFftPlan) trick), runs
    /// the half-length complex plane FFT, and unpacks — lanes never mix, so
    /// a lane's spectrum is bit-identical no matter which batch carries it
    /// (the batch-composition invariance the serving stack relies on).
    ///
    /// # Errors
    ///
    /// Returns [`FftError`] if the planes are not `n·batch` long or the
    /// batch is zero.
    pub fn forward_planes_real(
        &self,
        re: &mut [T],
        im: &mut [T],
        batch: usize,
    ) -> Result<(), FftError> {
        self.validate(re, im, batch)?;
        let n = self.n;
        if n == 1 {
            im[..batch].fill(T::ZERO);
            return Ok(());
        }
        if let Some(codelet) = self.codelet {
            codelet(self, re, im, batch, false);
            return Ok(());
        }
        let h = n / 2;
        // Pack lane-wise: half-signal row m is x[2m] + i·x[2m+1]. Ascending
        // m only writes rows ≤ m while reading rows 2m and 2m+1 ≥ m.
        for m in 0..h {
            re.copy_within(2 * m * batch..(2 * m + 1) * batch, m * batch);
            let src = (2 * m + 1) * batch;
            im[m * batch..(m + 1) * batch].copy_from_slice(&re[src..src + batch]);
        }
        self.half()
            .forward_planes(&mut re[..h * batch], &mut im[..h * batch], batch)?;
        // Unpack the interleaved spectrum Z into the real signal's bins one
        // pair (k, h−k) at a time; row h is written (at k = 0), never read.
        for k in 0..=h / 2 {
            let (tw, km) = (self.rtw(k), (h - k) % h);
            let mirror = (h - k != k).then_some(h - k);
            pair_rows(re, im, batch, [k, km], mirror, |z| unpack_pair(z, tw));
        }
        Ok(())
    }

    /// Inverse of [`BatchFftPlan::forward_planes_real`]: the unique
    /// `n/2 + 1` half-spectrum rows enter in `re[..(n/2 + 1)·batch]` /
    /// `im[..(n/2 + 1)·batch]` (higher rows ignored; `im` is destroyed),
    /// and the `batch` real time-domain signals (scaled by `1/n`) leave in
    /// the full `[n][batch]` plane `re`. Lanes never mix.
    ///
    /// # Errors
    ///
    /// Returns [`FftError`] if the planes are not `n·batch` long or the
    /// batch is zero.
    pub fn inverse_planes_real(
        &self,
        re: &mut [T],
        im: &mut [T],
        batch: usize,
    ) -> Result<(), FftError> {
        self.validate(re, im, batch)?;
        let n = self.n;
        if n == 1 {
            return Ok(()); // DC bin is the signal; 1/1 scaling.
        }
        if let Some(codelet) = self.codelet {
            codelet(self, re, im, batch, true);
            return Ok(());
        }
        let h = n / 2;
        // Re-pack bins into the half-length interleaved spectrum one pair
        // (k, h−k) at a time; row h is read (at k = 0) but never written.
        for k in 0..=h / 2 {
            let (tw, k2) = (self.rtw(k), h - k);
            let mirror = (k2 != k && k2 < h).then_some(k2);
            pair_rows(re, im, batch, [k, k2], mirror, |x| repack_pair(x, tw));
        }
        self.half()
            .inverse_planes(&mut re[..h * batch], &mut im[..h * batch], batch)?;
        // Unpack lane-wise: x[2m] = Z[m].re, x[2m+1] = Z[m].im. Descending
        // m only writes rows ≥ 2m while reading rows m ≤ 2m.
        for m in (0..h).rev() {
            let src = m * batch;
            re.copy_within(src..src + batch, 2 * m * batch);
            re[(2 * m + 1) * batch..(2 * m + 2) * batch].copy_from_slice(&im[src..src + batch]);
        }
        Ok(())
    }

    /// Applies the bit-reversal row permutation.
    fn permute(&self, re: &mut [T], im: &mut [T], batch: usize) {
        for (i, &j) in self.bitrev.iter().enumerate() {
            if i < j {
                for b in 0..batch {
                    re.swap(i * batch + b, j * batch + b);
                    im.swap(i * batch + b, j * batch + b);
                }
            }
        }
    }

    /// Runs every butterfly stage; `inverse` conjugates the twiddles.
    fn butterflies(&self, re: &mut [T], im: &mut [T], batch: usize, inverse: bool) {
        let n = self.n;
        let mut len = 2;
        let mut tw_off = 0;
        while len <= n {
            let half = len / 2;
            for start in (0..n).step_by(len) {
                for j in 0..half {
                    let w = twiddle((&self.tw_re, &self.tw_im), tw_off + j, inverse);
                    let lo = (start + j) * batch;
                    let hi = (start + j + half) * batch;
                    // Rows `lo` and `hi` are disjoint (`lo < hi`).
                    let (re_a, re_b) = re.split_at_mut(hi);
                    let (im_a, im_b) = im.split_at_mut(hi);
                    let ar = &mut re_a[lo..lo + batch];
                    let ai = &mut im_a[lo..lo + batch];
                    let br = &mut re_b[..batch];
                    let bi = &mut im_b[..batch];
                    // One butterfly across every signal in the batch —
                    // stride-1 lanes the compiler vectorizes.
                    for (((a_r, a_i), b_r), b_i) in ar
                        .iter_mut()
                        .zip(ai.iter_mut())
                        .zip(br.iter_mut())
                        .zip(bi.iter_mut())
                    {
                        [*a_r, *a_i, *b_r, *b_i] = butterfly([*a_r, *a_i, *b_r, *b_i], w);
                    }
                }
            }
            tw_off += half;
            len <<= 1;
        }
    }

    /// Real-transform unpack twiddles `e^{−2πik/n}` of the bin pair
    /// `(k, n/2 − k)`.
    #[inline]
    fn rtw(&self, k: usize) -> ((T, T), (T, T)) {
        let (re, im, k2) = (&self.rtw_re, &self.rtw_im, self.n / 2 - k);
        ((re[k], im[k]), (re[k2], im[k2]))
    }

    fn half(&self) -> &Self {
        self.half.as_deref().expect("n >= 2 always has a half plan")
    }

    /// The codelet of half-length `H`: tiles of [`TILE`] lanes, then the
    /// ragged tail lane by lane.
    fn codelet<const H: usize>(&self, re: &mut [T], im: &mut [T], lanes: usize, inverse: bool) {
        let wide = lanes - lanes % TILE;
        for b0 in (0..wide).step_by(TILE) {
            self.tile::<H, TILE>(re, im, lanes, b0, inverse);
        }
        for b in wide..lanes {
            self.tile::<H, 1>(re, im, lanes, b, inverse);
        }
    }

    /// One `W`-lane tile (lanes `b0..b0 + W`) at half-length `H`. Forward:
    /// slot `i` loads half-signal row `m = bitrev(i)`, i.e.
    /// `x[2m] + i·x[2m+1]`, and the unpack stores bins `0..=H`. Inverse:
    /// the re-pack of bins `0..=H` puts `Z[k]` in slot `bitrev(k)`, and the
    /// store interleaves the `1/H`-scaled result, `x[2m] + i·x[2m+1] = Z[m]`.
    #[inline(always)]
    fn tile<const H: usize, const W: usize>(
        &self,
        re: &mut [T],
        im: &mut [T],
        lanes: usize,
        b0: usize,
        inverse: bool,
    ) {
        let (rr, ri) = (&self.rtw_re[..=H], &self.rtw_im[..=H]);
        let tw = |k: usize| ((rr[k], ri[k]), (rr[H - k], ri[H - k]));
        if !inverse {
            let mut zr: [[T; W]; H] = from_fn(|i| load(re, 2 * bitrev::<H>(i), lanes, b0));
            let mut zi: [[T; W]; H] = from_fn(|i| load(re, 2 * bitrev::<H>(i) + 1, lanes, b0));
            self.tile_stages(&mut zr, &mut zi, false);
            for k in 0..=H / 2 {
                let (km, mut x) = ((H - k) % H, [[T::ZERO; W]; 4]);
                for t in 0..W {
                    let z = [zr[k][t], zi[k][t], zr[km][t], zi[km][t]];
                    [x[0][t], x[1][t], x[2][t], x[3][t]] = unpack_pair(z, tw(k));
                }
                store(re, k, lanes, b0, x[0]);
                store(im, k, lanes, b0, x[1]);
                if H - k != k {
                    store(re, H - k, lanes, b0, x[2]);
                    store(im, H - k, lanes, b0, x[3]);
                }
            }
            return;
        }
        let (mut zr, mut zi) = ([[T::ZERO; W]; H], [[T::ZERO; W]; H]);
        for k in 0..=H / 2 {
            let rows = [(&*re, k), (&*im, k), (&*re, H - k), (&*im, H - k)];
            let x: [[T; W]; 4] = rows.map(|(p, r)| load(p, r, lanes, b0));
            let (ik, ik2) = (bitrev::<H>(k), bitrev::<H>((H - k) % H));
            for t in 0..W {
                let z = repack_pair([x[0][t], x[1][t], x[2][t], x[3][t]], tw(k));
                (zr[ik][t], zi[ik][t]) = (z[0], z[1]);
                // Bin 0 pairs with bin H (not a slot), bin H/2 with itself.
                if k != 0 && 2 * k != H {
                    (zr[ik2][t], zi[ik2][t]) = (z[2], z[3]);
                }
            }
        }
        self.tile_stages(&mut zr, &mut zi, true);
        let scale = T::ONE / T::from_usize(H);
        for m in 0..H {
            store(re, 2 * m, lanes, b0, zr[m].map(|v| v * scale));
            store(re, 2 * m + 1, lanes, b0, zi[m].map(|v| v * scale));
        }
    }

    /// Every butterfly stage of the half plan on a bit-reversed stack tile
    /// (`H` slots × `W` lanes): [`Self::butterflies`]' arithmetic and
    /// twiddles without its passes over the plane.
    #[inline(always)]
    fn tile_stages<const H: usize, const W: usize>(
        &self,
        zr: &mut [[T; W]; H],
        zi: &mut [[T; W]; H],
        inverse: bool,
    ) {
        let half = self.half();
        let tw = (&half.tw_re[..H - 1], &half.tw_im[..H - 1]);
        if W == 1 {
            // One call per constant span: a single lane unrolls into
            // straight-line code that keeps the tile in registers.
            tile_stage(tw, zr, zi, 1, inverse);
            tile_stage(tw, zr, zi, 2, inverse);
            tile_stage(tw, zr, zi, 4, inverse);
            tile_stage(tw, zr, zi, 8, inverse);
            tile_stage(tw, zr, zi, 16, inverse);
            tile_stage(tw, zr, zi, 32, inverse);
        } else {
            // A looped span keeps the wide tile's code small.
            let mut span = 1;
            while span < H {
                tile_stage(tw, zr, zi, span, inverse);
                span *= 2;
            }
        }
    }
}

/// The stage of half-span `s` (a no-op once `s ≥ H`): `H/2s` groups of
/// `s` butterflies pairing slots `g·2s + j` and `g·2s + j + s` with stage
/// twiddle `s − 1 + j`.
#[inline(always)]
fn tile_stage<T: Float, const H: usize, const W: usize>(
    tw: (&[T], &[T]),
    zr: &mut [[T; W]; H],
    zi: &mut [[T; W]; H],
    s: usize,
    inverse: bool,
) {
    for g in 0..H / (2 * s) {
        for j in 0..s {
            let w = twiddle(tw, s - 1 + j, inverse);
            let (lo, hi) = (g * 2 * s + j, g * 2 * s + j + s);
            for t in 0..W {
                [zr[lo][t], zi[lo][t], zr[hi][t], zi[hi][t]] =
                    butterfly([zr[lo][t], zi[lo][t], zr[hi][t], zi[hi][t]], w);
            }
        }
    }
}

/// `i < 64` bit-reversed over 6 bits.
const REV64: [u8; 64] = {
    let mut t = [0; 64];
    let mut i = 0;
    while i < 64 {
        t[i] = (i as u8).reverse_bits() >> 2;
        i += 1;
    }
    t
};

/// `i < H` bit-reversed over `log2 H` bits: a constant wherever a codelet
/// loop unrolls, one table load where it does not.
#[inline(always)]
fn bitrev<const H: usize>(i: usize) -> usize {
    usize::from(REV64[i]) >> (6 - H.trailing_zeros())
}

/// Lanes `b0..b0 + W` of row `r` of a `[rows][lanes]` plane.
#[inline]
fn load<T: Float, const W: usize>(p: &[T], r: usize, lanes: usize, b0: usize) -> [T; W] {
    p[r * lanes + b0..][..W].try_into().expect("a W-lane slice")
}

#[inline]
fn store<T: Float, const W: usize>(p: &mut [T], r: usize, lanes: usize, b0: usize, v: [T; W]) {
    p[r * lanes + b0..][..W].copy_from_slice(&v);
}

/// Stage twiddle `i` of a flattened `(re, im)` table; `inverse` conjugates
/// it as `ZERO − wi`, which maps both zeros to `+0.0` (unary minus would
/// give `−0.0` for `+0.0` and flip the sign of zero products).
#[inline]
fn twiddle<T: Float>((re, im): (&[T], &[T]), i: usize, inverse: bool) -> (T, T) {
    (re[i], if inverse { T::ZERO - im[i] } else { im[i] })
}

/// One radix-2 butterfly `a ± w·b` on `[a.re, a.im, b.re, b.im]`: the one
/// butterfly of both the plane passes and the codelets.
#[inline]
fn butterfly<T: Float>([ar, ai, br, bi]: [T; 4], (wr, wi): (T, T)) -> [T; 4] {
    let tr = wr * br - wi * bi;
    let ti = wr * bi + wi * br;
    [ar + tr, ai + ti, ar - tr, ai - ti]
}

/// The radix-2 real path's unpack/re-pack pass over one bin pair: 16 lanes
/// at a time, rows `k` and `k2` load into stack tiles, `f` maps each lane's
/// `[k.re, k.im, k2.re, k2.im]`, and the result stores to row `k` and, if
/// given, the `mirror` row. A lane's pair is read before it is overwritten.
#[inline(always)]
fn pair_rows<T: Float>(
    re: &mut [T],
    im: &mut [T],
    batch: usize,
    [k, k2]: [usize; 2],
    mirror: Option<usize>,
    f: impl Fn([T; 4]) -> [T; 4],
) {
    const L: usize = 16;
    for b0 in (0..batch).step_by(L) {
        let l = L.min(batch - b0);
        let (mut x, mut y) = ([[T::ZERO; L]; 4], [[T::ZERO; L]; 4]);
        x[0][..l].copy_from_slice(&re[k * batch + b0..][..l]);
        x[1][..l].copy_from_slice(&im[k * batch + b0..][..l]);
        x[2][..l].copy_from_slice(&re[k2 * batch + b0..][..l]);
        x[3][..l].copy_from_slice(&im[k2 * batch + b0..][..l]);
        for t in 0..l {
            [y[0][t], y[1][t], y[2][t], y[3][t]] = f([x[0][t], x[1][t], x[2][t], x[3][t]]);
        }
        re[k * batch + b0..][..l].copy_from_slice(&y[0][..l]);
        im[k * batch + b0..][..l].copy_from_slice(&y[1][..l]);
        if let Some(r) = mirror {
            re[r * batch + b0..][..l].copy_from_slice(&y[2][..l]);
            im[r * batch + b0..][..l].copy_from_slice(&y[3][..l]);
        }
    }
}

/// Forward real unpack of one bin pair: `[Z[k], Z[h−k]]` (re, im each) to
/// `[X[k], X[h−k]]` with `E = (Z[k] + conj(Z[h−k]))/2`,
/// `O = (Z[k] − conj(Z[h−k]))/(2i)`, `X[k] = E + e^{−2πik/n}·O` and
/// `X[h−k] = conj(E) + e^{−2πi(h−k)/n}·conj(O)`.
#[inline]
fn unpack_pair<T: Float>(
    [zkr, zki, znr, zni]: [T; 4],
    ((twr, twi), (twr2, twi2)): ((T, T), (T, T)),
) -> [T; 4] {
    let er = (zkr + znr) * T::HALF;
    let ei = (zki - zni) * T::HALF;
    let or_ = (zki + zni) * T::HALF;
    let oi = (znr - zkr) * T::HALF;
    [
        er + twr * or_ - twi * oi,
        ei + twr * oi + twi * or_,
        er + twr2 * or_ + twi2 * oi,
        twi2 * or_ - twr2 * oi - ei,
    ]
}

/// Inverse re-pack of one bin pair: `[X[k], X[h−k]]` to `[Z[k], Z[h−k]]`
/// with `Z[k] = E + i·O`, `E = (X[k] + conj(X[h−k]))/2` and
/// `O = conj(e^{−2πik/n})·(X[k] − conj(X[h−k]))/2`; the mirror reuses the
/// intermediates (`E[h−k] = conj(E)`, and the difference turns into minus
/// its conjugate).
#[inline]
fn repack_pair<T: Float>(
    [xkr, xki, xnr, xni]: [T; 4],
    ((twr, twi), (twr2, twi2)): ((T, T), (T, T)),
) -> [T; 4] {
    let er = (xkr + xnr) * T::HALF;
    let ei = (xki - xni) * T::HALF;
    let dr = (xkr - xnr) * T::HALF;
    let di = (xki + xni) * T::HALF;
    let or_ = twr * dr + twi * di;
    let oi = twr * di - twi * dr;
    let or2 = twi2 * di - twr2 * dr;
    let oi2 = twr2 * di + twi2 * dr;
    [er - oi, ei + or_, er - oi2, or2 - ei]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FftPlan;

    fn seeded(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(BatchFftPlan::<f64>::new(0).is_err());
        assert!(BatchFftPlan::<f64>::new(12).is_err());
        let plan = BatchFftPlan::<f64>::new(4).unwrap();
        let mut re = vec![0.0; 8];
        let mut im = vec![0.0; 8];
        assert!(plan.forward_planes(&mut re, &mut im, 3).is_err());
        assert!(plan.forward_planes(&mut re, &mut im, 0).is_err());
    }

    #[test]
    fn matches_scalar_fft_per_lane() {
        for log in 0..=7 {
            let n = 1usize << log;
            let batch = 5;
            let plan = BatchFftPlan::<f64>::new(n).unwrap();
            let scalar = FftPlan::<f64>::new(n).unwrap();
            // Batch of distinct signals.
            let signals: Vec<Vec<f64>> = (0..batch).map(|b| seeded(n, 7 + b as u64)).collect();
            let mut re = vec![0.0f64; n * batch];
            let mut im = vec![0.0f64; n * batch];
            for (b, sig) in signals.iter().enumerate() {
                for (t, &v) in sig.iter().enumerate() {
                    re[t * batch + b] = v;
                }
            }
            plan.forward_planes(&mut re, &mut im, batch).unwrap();
            for (b, sig) in signals.iter().enumerate() {
                let spec = scalar.forward_real(sig).unwrap();
                for t in 0..n {
                    let d = (re[t * batch + b] - spec[t].re).abs()
                        + (im[t * batch + b] - spec[t].im).abs();
                    assert!(d < 1e-9 * n as f64, "n={n} lane {b} bin {t}: err {d}");
                }
            }
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let n = 64;
        let batch = 3;
        let plan = BatchFftPlan::<f64>::new(n).unwrap();
        let orig = seeded(n * batch, 3);
        let mut re = orig.clone();
        let mut im = seeded(n * batch, 4);
        let orig_im = im.clone();
        plan.forward_planes(&mut re, &mut im, batch).unwrap();
        plan.inverse_planes(&mut re, &mut im, batch).unwrap();
        for i in 0..n * batch {
            assert!((re[i] - orig[i]).abs() < 1e-10);
            assert!((im[i] - orig_im[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn real_planes_match_complex_planes_on_real_data() {
        for log in 0..=8 {
            let n = 1usize << log;
            let batch = 3;
            let plan = BatchFftPlan::<f64>::new(n).unwrap();
            let x = seeded(n * batch, 11 + log as u64);
            // Complex reference path on the same real data.
            let mut cre = x.clone();
            let mut cim = vec![0.0f64; n * batch];
            plan.forward_planes(&mut cre, &mut cim, batch).unwrap();
            // Real path; imaginary plane starts as garbage on purpose.
            let mut rre = x.clone();
            let mut rim = seeded(n * batch, 999);
            plan.forward_planes_real(&mut rre, &mut rim, batch).unwrap();
            let bins = n / 2 + 1;
            for r in 0..bins {
                for b in 0..batch {
                    let i = r * batch + b;
                    let d = (rre[i] - cre[i]).abs() + (rim[i] - cim[i]).abs();
                    assert!(d < 1e-10 * n as f64, "n={n} bin {r} lane {b}: err {d}");
                }
            }
        }
    }

    #[test]
    fn real_planes_round_trip_is_identity() {
        for n in [1usize, 2, 4, 16, 128] {
            let batch = 4;
            let plan = BatchFftPlan::<f64>::new(n).unwrap();
            let x = seeded(n * batch, n as u64);
            let mut re = x.clone();
            let mut im = vec![0.0f64; n * batch];
            plan.forward_planes_real(&mut re, &mut im, batch).unwrap();
            plan.inverse_planes_real(&mut re, &mut im, batch).unwrap();
            for (i, (&a, &e)) in re.iter().zip(&x).enumerate() {
                assert!((a - e).abs() < 1e-10, "n={n} idx {i}: {a} vs {e}");
            }
        }
    }

    #[test]
    fn real_plane_lanes_are_batch_composition_invariant() {
        // A lane's spectrum must be bit-identical whether it runs alone or
        // inside a wider batch — lanes never mix in the real path.
        let n = 32;
        let plan = BatchFftPlan::<f32>::new(n).unwrap();
        let batch = 5;
        let signals: Vec<Vec<f32>> = (0..batch)
            .map(|b| seeded(n, 40 + b as u64).iter().map(|&v| v as f32).collect())
            .collect();
        let mut re = vec![0.0f32; n * batch];
        let mut im = vec![0.0f32; n * batch];
        for (b, sig) in signals.iter().enumerate() {
            for (t, &v) in sig.iter().enumerate() {
                re[t * batch + b] = v;
            }
        }
        plan.forward_planes_real(&mut re, &mut im, batch).unwrap();
        for (b, sig) in signals.iter().enumerate() {
            let mut sre = sig.clone();
            let mut sim = vec![0.0f32; n];
            plan.forward_planes_real(&mut sre, &mut sim, 1).unwrap();
            for r in 0..n / 2 + 1 {
                assert_eq!(re[r * batch + b], sre[r], "lane {b} bin {r} re");
                assert_eq!(im[r * batch + b], sim[r], "lane {b} bin {r} im");
            }
        }
    }

    #[test]
    fn real_planes_validate_sizes() {
        let plan = BatchFftPlan::<f64>::new(8).unwrap();
        let mut re = vec![0.0; 15];
        let mut im = vec![0.0; 15];
        assert!(plan.forward_planes_real(&mut re, &mut im, 2).is_err());
        assert!(plan.inverse_planes_real(&mut re, &mut im, 0).is_err());
    }

    #[test]
    fn length_one_is_identity() {
        let plan = BatchFftPlan::<f32>::new(1).unwrap();
        let mut re = vec![2.5f32, -1.0];
        let mut im = vec![0.5f32, 0.25];
        plan.forward_planes(&mut re, &mut im, 2).unwrap();
        assert_eq!(re, vec![2.5, -1.0]);
        plan.inverse_planes(&mut re, &mut im, 2).unwrap();
        assert_eq!(re, vec![2.5, -1.0]);
    }

    /// The codelet sizes, k = 4…128.
    const CODELET_NS: [usize; 6] = [4, 8, 16, 32, 64, 128];

    /// Asserts the codelet equals the plan's radix-2 path on `x`.
    fn assert_matches_radix2(plan: &BatchFftPlan<f32>, x: &[f32], lanes: usize) {
        let radix2 = BatchFftPlan {
            codelet: None,
            ..plan.clone()
        };
        let (got, want) = (real_forms(plan, x, lanes), real_forms(&radix2, x, lanes));
        assert_eq!(got, want, "n={} lanes={lanes}", plan.len());
    }

    /// Bit patterns of the forward half-spectrum and the inverse signal,
    /// each form run on `x` as its `re` then `im` plane.
    fn real_forms(plan: &BatchFftPlan<f32>, x: &[f32], lanes: usize) -> [Vec<u32>; 2] {
        let n = plan.len();
        let planes = || (x[..n * lanes].to_vec(), x[n * lanes..].to_vec());
        let ((mut fr, mut fi), (mut ir, mut ii)) = (planes(), planes());
        plan.forward_planes_real(&mut fr, &mut fi, lanes).unwrap();
        plan.inverse_planes_real(&mut ir, &mut ii, lanes).unwrap();
        let bins = (n / 2 + 1) * lanes;
        fr.truncate(bins);
        fr.extend_from_slice(&fi[..bins]);
        [fr, ir].map(|v| v.iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn codelets_match_radix2_bitwise_on_special_values() {
        let (inf, max, sub) = (f32::INFINITY, f32::MAX, f32::MIN_POSITIVE / 8.0);
        let classes: [&[f32]; 4] = [
            &[0.0, -0.0],
            &[sub, -sub, 1e-45, 0.0, -0.0],
            &[max, -max, 0.75 * max, -1.0],
            &[inf, -inf, 0.0, -0.0, 2.5],
        ];
        for n in CODELET_NS {
            let plan = BatchFftPlan::<f32>::new(n).unwrap();
            for lanes in 1..=33 {
                for (c, class) in classes.iter().enumerate() {
                    let x: Vec<f32> = seeded(2 * n * lanes, (c + lanes) as u64)
                        .iter()
                        .map(|v| class[(v.to_bits() >> 40) as usize % class.len()])
                        .collect();
                    assert_matches_radix2(&plan, &x, lanes);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn codelets_match_radix2_bitwise(
            (c, lanes) in (0usize..6, 1usize..=33),
            v in proptest::prop::collection::vec((-1.0f32..1.0, -130i32..128), 2 * 128 * 33),
        ) {
            let (n, plan) = (CODELET_NS[c], BatchFftPlan::<f32>::new(CODELET_NS[c]).unwrap());
            let x: Vec<f32> = v[..2 * n * lanes].iter().map(|&(m, e)| m * 2f32.powi(e)).collect();
            assert_matches_radix2(&plan, &x, lanes);
        }
    }

    #[test]
    fn codelet_lanes_match_the_lane_alone_across_the_tile_boundary() {
        for n in CODELET_NS {
            let plan = BatchFftPlan::<f32>::new(n).unwrap();
            for lanes in [7, 8, 9, 16, 17, 33] {
                let x: Vec<f32> = seeded(2 * n * lanes, n as u64)
                    .iter()
                    .map(|&v| v as f32)
                    .collect();
                let wide = real_forms(&plan, &x, lanes);
                for b in 0..lanes {
                    let lane: Vec<f32> = x[b..].iter().step_by(lanes).copied().collect();
                    let alone = real_forms(&plan, &lane, 1);
                    let ok = wide
                        .iter()
                        .zip(&alone)
                        .all(|(w, a)| w[b..].iter().step_by(lanes).eq(a));
                    assert!(ok, "n={n} lanes={lanes} lane {b}");
                }
            }
        }
    }
}
