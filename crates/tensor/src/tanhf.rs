//! `tanh` for `f32`: a port of the fdlibm `tanhf`/`expm1f` pair that glibc
//! shipped (`sysdeps/ieee754/flt-32/s_tanhf.c`, `s_expm1f.c`), checked
//! bit for bit against glibc 2.36 on all 2³² inputs.
//!
//! Plain f32 operations in the C sources' order and association, no FMA,
//! so the port returns the same bits on every platform: the library's
//! `tanh` (the `Tanh` layer, the recurrent cell's fused epilogue) does not
//! depend on the host libm, whichever `tanhf` that libm ships. The constants are public so that a vector
//! body reproducing the port lane for lane shares them rather than
//! restating them.

/// `ln 2` high part: `k·LN2_HI` is exact for the `k` the reduction uses.
pub const LN2_HI: f32 = 0.693_138_1; // 0x3f317180
/// `ln 2` low part, `ln 2 − LN2_HI`.
pub const LN2_LO: f32 = 9.058_001e-6; // 0x3717f7d1
/// `1 / ln 2` (fdlibm's `invln2`, 0x3fb8aa3b).
pub const INV_LN2: f32 = core::f32::consts::LOG2_E;
/// `expm1f`'s scaled rational-approximation coefficients `Q1..Q5`.
pub const Q: [f32; 5] = [
    -0.033_333_335,  // 0xbd088889
    0.001_587_301_6, // 0x3ad00d01
    -7.936_507_6e-5, // 0xb8a670cd
    4.008_217_7e-6,  // 0x36867e54
    -2.010_992_1e-7, // 0xb457edbb
];

const HUGE: f32 = 1.0e30;
const TINY: f32 = 1.0e-30;
const O_THRESHOLD: f32 = 88.721_68; // 0x42b17180

/// Adds `k` to the exponent field of `y` (`SET_FLOAT_WORD(y, i + (k<<23))`).
#[inline]
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32))
}

/// `e^x − 1`, fdlibm `expm1f`.
pub(crate) fn expm1(x: f32) -> f32 {
    let bits = x.to_bits();
    let neg = bits & 0x8000_0000 != 0;
    let hx = bits & 0x7fff_ffff;
    // Huge and non-finite arguments.
    if hx >= 0x4195_b844 {
        // |x| ≥ 27·ln2
        if hx >= 0x42b1_7218 {
            // |x| ≥ 88.721…
            if hx > 0x7f80_0000 {
                return x + x; // NaN
            }
            if hx == 0x7f80_0000 {
                return if neg { -1.0 } else { x };
            }
            if x > O_THRESHOLD {
                return HUGE * HUGE; // overflow
            }
        }
        if neg {
            return TINY - 1.0; // x < −27·ln2: −1 with inexact
        }
    }
    // Argument reduction: x = k·ln2 + r, |r| ≤ 0.5·ln2, r = hi − lo.
    let (x, c, k) = if hx > 0x3eb1_7218 {
        // |x| > 0.5·ln2
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            // |x| < 1.5·ln2
            if neg {
                (x + LN2_HI, -LN2_LO, -1)
            } else {
                (x - LN2_HI, LN2_LO, 1)
            }
        } else {
            let k = (INV_LN2 * x + if neg { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let r = hi - lo;
        (r, (hi - r) - lo, k)
    } else if hx < 0x3300_0000 {
        // |x| < 2⁻²⁵: x itself (with inexact when x ≠ 0).
        let t = HUGE + x;
        return x - (t - (HUGE + x));
    } else {
        (x, 0.0, 0)
    };
    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q[0] + hxs * (Q[1] + hxs * (Q[2] + hxs * (Q[3] + hxs * Q[4]))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs); // c is 0
    }
    let e = (x * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            1.0 + 2.0 * (x - e)
        };
    }
    if k <= -2 || k > 56 {
        // Suffices to return exp(x) − 1.
        let y = 1.0 - (e - x);
        let y = if k == 128 {
            y * 2.0 * f32::from_bits(0x7f00_0000) // 2¹²⁷
        } else {
            add_exponent(y, k)
        };
        return y - 1.0;
    }
    if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)); // 1 − 2⁻ᵏ
        add_exponent(t - (e - x), k)
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2⁻ᵏ
        let y = (x - (e + t)) + 1.0;
        add_exponent(y, k)
    }
}

/// Hyperbolic tangent, fdlibm `tanhf`: bit-identical to glibc 2.36's
/// `tanhf` for every input (NaNs come back as the input NaN, quieted).
///
/// ```
/// assert_eq!(circnn_tensor::tanh(0.5).to_bits(), 0x3eec_9a9f); // 0.462 117 17
/// assert_eq!(circnn_tensor::tanh(-30.0), -1.0);
/// ```
pub fn tanh(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    // ±inf → ±1, NaN → NaN.
    if ix >= 0x7f80_0000 {
        return if jx >= 0 {
            1.0 / x + 1.0
        } else {
            1.0 / x - 1.0
        };
    }
    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x; // ±0
        }
        if ix < 0x2400_0000 {
            return x * (1.0 + x); // |x| < 2⁻⁵⁵
        }
        if ix >= 0x3f80_0000 {
            // |x| ≥ 1
            let t = expm1(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0 - TINY // |x| ≥ 22: ±1 with inexact
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(input, tanh)` bit pairs at the port's branch edges, captured from
    /// the port and checked equal to glibc 2.36's `tanhf` when pinned: ±0,
    /// subnormals, |x| = 2⁻⁵⁵, 1 and 22 with a neighbour ulp, the `expm1`
    /// argument 2|x| at 2⁻²⁵, 0.5·ln2 and 1.5·ln2, the switches to the
    /// k ≥ 23 and k > 56 reconstructions (19.58 ≤ |x| < 22), the largest
    /// finite values, ±inf, NaN payloads, and a few ordinary values.
    const PINS: [(u32, u32); 44] = [
        (0x0000_0000, 0x0000_0000), // 0
        (0x8000_0000, 0x8000_0000), // -0
        (0x0000_0001, 0x0000_0001), // smallest subnormal
        (0x8000_0001, 0x8000_0001),
        (0x007f_ffff, 0x007f_ffff), // largest subnormal
        (0x807f_ffff, 0x807f_ffff),
        (0x23ff_ffff, 0x23ff_ffff), // just below 2^-55
        (0x2400_0000, 0x2400_0000), // 2^-55
        (0xa400_0001, 0xa400_0001),
        (0x3f7f_ffff, 0x3f42_f7d5), // just below 1
        (0x3f80_0000, 0x3f42_f7d6), // 1
        (0xbf80_0001, 0xbf42_f7d6),
        (0x41af_ffff, 0x3f80_0000), // just below 22
        (0x41b0_0000, 0x3f80_0000), // 22
        (0xc1b0_0001, 0xbf80_0000),
        (0x327f_ffff, 0x327f_ffff), // 2|x| just below 2^-25
        (0x3280_0000, 0x3280_0000), // 2|x| = 2^-25
        (0xb280_0001, 0xb280_0001),
        (0x3e31_7218, 0x3e2f_b0cd), // 2|x| = 0.5 ln2
        (0x3e31_7219, 0x3e2f_b0cd),
        (0xbe31_7219, 0xbe2f_b0cd),
        (0x3f05_1591, 0x3ef4_86f8), // 2|x| just below 1.5 ln2
        (0x3f05_1592, 0x3ef4_86f8), // 2|x| = 1.5 ln2
        (0xbf05_1592, 0xbef4_86f8),
        (0x40f9_8871, 0x3f7f_fffa), // k = 22
        (0x40f9_8872, 0x3f7f_fffa), // k = 23
        (0x419c_a6b8, 0x3f80_0000), // k = 56
        (0x419c_a6b9, 0x3f80_0000), // k = 57
        (0x419c_cccd, 0x3f80_0000), // 19.6
        (0xc1a0_0000, 0xbf80_0000), // -20
        (0x41af_f000, 0x3f80_0000),
        (0x7f7f_ffff, 0x3f80_0000), // largest finite
        (0xff7f_ffff, 0xbf80_0000),
        (0x7f80_0000, 0x3f80_0000), // inf
        (0xff80_0000, 0xbf80_0000), // -inf
        (0x7fc0_0000, 0x7fc0_0000), // quiet NaN
        (0xffc0_0001, 0xffc0_0001), // negative quiet NaN with payload
        (0x7f80_0001, 0x7fc0_0001), // signalling NaN comes back quieted
        (0xff81_2345, 0xffc1_2345),
        (0x3dcc_cccd, 0x3dcc_1ebc), // 0.1
        (0x3f00_0000, 0x3eec_9a9f), // 0.5
        (0x4000_0000, 0x3f76_ca83), // 2
        (0xc040_0000, 0xbf7e_bbe9), // -3
        (0x4120_0000, 0x3f80_0000), // 10
    ];

    #[test]
    fn tanh_bits_are_pinned_at_the_branch_edges() {
        for (x, want) in PINS {
            let got = tanh(f32::from_bits(x)).to_bits();
            assert_eq!(
                got, want,
                "tanh({x:#010x}) = {got:#010x}, pinned {want:#010x}"
            );
        }
    }

    #[test]
    fn tanh_is_odd_and_bounded() {
        for b in (0..0x7f80_0000u32).step_by(4093) {
            let x = f32::from_bits(b);
            let y = tanh(x);
            assert_eq!(tanh(-x).to_bits(), (-y).to_bits());
            assert!((0.0..=1.0).contains(&y), "tanh({x}) = {y}");
        }
    }

    /// The `expm1` port against the host libm's `expm1f` on all 2³²
    /// inputs (a NaN matches any NaN). It holds only on glibc releases that
    /// still ship the fdlibm `expm1f` (checked on 2.36); a libm with a
    /// different `expm1f`, such as a correctly rounded one, fails it
    /// without the port being wrong. Run it with
    /// `cargo test --release -p circnn-tensor expm1 -- --ignored`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs: about a minute in release"]
    #[cfg(target_env = "gnu")]
    fn expm1_matches_libm_exhaustively() {
        let mismatches = (0..=u32::MAX)
            .filter(|&b| {
                let x = f32::from_bits(b);
                let (got, want) = (expm1(x), x.exp_m1());
                got.to_bits() != want.to_bits() && !(got.is_nan() && want.is_nan())
            })
            .count();
        assert_eq!(mismatches, 0);
    }
}
