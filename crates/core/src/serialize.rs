//! Compact binary serialization for block-circulant operators.
//!
//! A downstream user of CirCNN ships the *defining vectors*, not dense
//! matrices — that is the entire point of the representation. This module
//! provides a tiny, dependency-free, versioned binary codec for
//! [`BlockCirculantMatrix`] so trained models can be saved and reloaded
//! (optionally with 16-bit quantized weights, matching the deployment
//! format of §3.4/§4.2).
//!
//! Format (little-endian):
//!
//! ```text
//! magic  "CIRC"            4 bytes
//! version u16              1 = whole operator, 2 = row slice
//! flags   u16              bit 0: weights are 16-bit quantized
//!                          bit 1: row slice (version 2 only)
//! m, n, k u64 × 3
//! [row_start, full_rows]   u64 × 2, present iff row slice
//! [f32 scale]              present iff quantized
//! weights p·q·k × (f32 | i16)
//! ```
//!
//! Version 2 extends version 1 with the [`RowSlice`] placement fields —
//! what a shard server hot-loads so a router can scatter one request
//! across row-slices and stitch the segments bitwise. [`load`] keeps
//! accepting exactly the version-1 whole-operator form; [`load_slice`]
//! accepts both (a whole operator loads as the trivial full-range slice).
//!
//! Version 3 (flag bit 2) carries a [`QuantizedOperator`]'s *resident i16
//! weight spectra* rather than time-domain defining vectors:
//!
//! ```text
//! magic "CIRC", version 3, flags 4
//! m, n, k                  u64 × 3
//! weight bits, frac        u32 × 2
//! input  bits, frac        u32 × 2
//! input_range              f32
//! w_step                   f32 × p        (per-block-row scales)
//! wq_re, wq_im             i16 × bins·p·q each ([bin][p][q] planes)
//! ```
//!
//! The operator keeps its codes as one `[bin][q][p]` plane of packed pairs
//! (the layout both i16 MAC sweeps read) and transposes on load and save.
//!
//! Loading funnels through [`QuantizedOperator::from_raw_parts`], so a
//! stream whose formats could overflow i32 accumulation is rejected with
//! the same typed [`CircError::QuantOverflow`] as construction.
//! [`load`]/[`load_slice`] reject version 3 — the spectra are not
//! defining vectors and cannot rebuild an f32 operator.

use std::io::{self, Read, Write};

use circnn_fft::fixed::QFormat;

use crate::error::CircError;
use crate::matrix::{BlockCirculantMatrix, RowSlice};
use crate::quantized::{QuantConfig, QuantizedOperator};

const MAGIC: &[u8; 4] = b"CIRC";
const VERSION: u16 = 1;
const SLICE_VERSION: u16 = 2;
const SPECTRA_VERSION: u16 = 3;
const FLAG_QUANTIZED: u16 = 1;
const FLAG_SLICE: u16 = 2;
const FLAG_SPECTRA: u16 = 4;

/// Errors from the codec.
#[derive(Debug)]
pub enum SerializeError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not a CirCNN model file.
    BadMagic,
    /// The file version is newer than this library understands.
    UnsupportedVersion(u16),
    /// The decoded dimensions are invalid.
    Invalid(CircError),
}

impl core::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "i/o error: {e}"),
            SerializeError::BadMagic => write!(f, "not a circnn model stream (bad magic)"),
            SerializeError::UnsupportedVersion(v) => write!(f, "unsupported model version {v}"),
            SerializeError::Invalid(e) => write!(f, "invalid model contents: {e}"),
        }
    }
}

impl std::error::Error for SerializeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SerializeError::Io(e) => Some(e),
            SerializeError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SerializeError {
    fn from(e: io::Error) -> Self {
        SerializeError::Io(e)
    }
}

impl From<CircError> for SerializeError {
    fn from(e: CircError) -> Self {
        SerializeError::Invalid(e)
    }
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_f32<R: Read>(r: &mut R) -> io::Result<f32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(f32::from_le_bytes(buf))
}

/// A well-formed stream with impossible contents.
fn invalid_data(msg: String) -> SerializeError {
    SerializeError::Io(io::Error::new(io::ErrorKind::InvalidData, msg))
}

/// Reads a `bits, frac` pair and validates it against [`QFormat`]'s
/// domain (i16 codes cap usable widths at 16) so a corrupt stream is a
/// typed error, never a constructor panic.
fn read_format<R: Read>(r: &mut R) -> Result<QFormat, SerializeError> {
    let bits = read_u32(r)?;
    let frac = read_u32(r)?;
    if !(1..=16).contains(&bits) || frac >= bits {
        return Err(invalid_data(format!(
            "invalid quantized code format Q{bits}.{frac}"
        )));
    }
    Ok(QFormat::new(bits, frac))
}

/// Validates a header's shape before any payload is sized from it:
/// nonzero dimensions, a power-of-two `k`, and `p·q·k` within `usize`.
/// Returns `(p, q)`.
fn check_shape(m: usize, n: usize, k: usize) -> Result<(usize, usize), SerializeError> {
    if k == 0 || !k.is_power_of_two() {
        return Err(CircError::BadBlockSize(k).into());
    }
    if m == 0 || n == 0 {
        return Err(CircError::DimensionMismatch {
            expected: 1,
            got: 0,
        }
        .into());
    }
    let (p, q) = (m.div_ceil(k), n.div_ceil(k));
    match p.checked_mul(q).and_then(|pq| pq.checked_mul(k)) {
        Some(_) => Ok((p, q)),
        None => Err(invalid_data(format!(
            "operator shape {m}×{n}, k = {k}, overflows"
        ))),
    }
}

/// Reads exactly `count` values of `width` bytes each. The buffer grows
/// with the bytes that arrive, not with `count`, so a header that claims
/// more than the stream holds fails at EOF instead of allocating for it.
fn read_payload<R: Read>(
    input: &mut R,
    count: usize,
    width: usize,
) -> Result<Vec<u8>, SerializeError> {
    let len = count
        .checked_mul(width)
        .ok_or_else(|| invalid_data(format!("a payload of {count} values overflows")))?;
    let mut raw = Vec::new();
    input.by_ref().take(len as u64).read_to_end(&mut raw)?;
    if raw.len() < len {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    Ok(raw)
}

/// Reads `count` f32 scales. Calibration only emits finite, positive
/// steps, so any other value is a corrupt stream: a zero `input_range`
/// would serve zeros with a zero error bound.
fn read_scales<R: Read>(
    input: &mut R,
    count: usize,
    what: &str,
) -> Result<Vec<f32>, SerializeError> {
    read_payload(input, count, 4)?
        .chunks_exact(4)
        .map(|c| match f32::from_le_bytes([c[0], c[1], c[2], c[3]]) {
            s if s.is_finite() && s > 0.0 => Ok(s),
            s => Err(invalid_data(format!(
                "{what} {s} is not a finite positive scale"
            ))),
        })
        .collect()
}

/// Writes an operator in full f32 precision.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn save<W: Write>(matrix: &BlockCirculantMatrix, mut out: W) -> Result<(), SerializeError> {
    out.write_all(MAGIC)?;
    out.write_all(&VERSION.to_le_bytes())?;
    out.write_all(&0u16.to_le_bytes())?;
    write_u64(&mut out, matrix.rows() as u64)?;
    write_u64(&mut out, matrix.cols() as u64)?;
    write_u64(&mut out, matrix.block_size() as u64)?;
    for &w in matrix.weights() {
        out.write_all(&w.to_le_bytes())?;
    }
    Ok(())
}

/// Writes an operator with weights quantized to 16-bit (the deployment
/// format: ×2 storage saving on top of the circulant compression).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn save_quantized<W: Write>(
    matrix: &BlockCirculantMatrix,
    mut out: W,
) -> Result<(), SerializeError> {
    out.write_all(MAGIC)?;
    out.write_all(&VERSION.to_le_bytes())?;
    out.write_all(&FLAG_QUANTIZED.to_le_bytes())?;
    write_u64(&mut out, matrix.rows() as u64)?;
    write_u64(&mut out, matrix.cols() as u64)?;
    write_u64(&mut out, matrix.block_size() as u64)?;
    let max_abs = matrix.weights().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let scale = if max_abs == 0.0 {
        1.0
    } else {
        max_abs / 32767.0
    };
    out.write_all(&scale.to_le_bytes())?;
    for &w in matrix.weights() {
        let code = (w / scale).round().clamp(-32768.0, 32767.0) as i16;
        out.write_all(&code.to_le_bytes())?;
    }
    Ok(())
}

/// Writes a [`RowSlice`] — the slice operator plus its placement fields —
/// in full f32 precision (the version-2 form of the format).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn save_slice<W: Write>(slice: &RowSlice, mut out: W) -> Result<(), SerializeError> {
    out.write_all(MAGIC)?;
    out.write_all(&SLICE_VERSION.to_le_bytes())?;
    out.write_all(&FLAG_SLICE.to_le_bytes())?;
    write_u64(&mut out, slice.operator.rows() as u64)?;
    write_u64(&mut out, slice.operator.cols() as u64)?;
    write_u64(&mut out, slice.operator.block_size() as u64)?;
    write_u64(&mut out, slice.row_start as u64)?;
    write_u64(&mut out, slice.full_rows as u64)?;
    for &w in slice.operator.weights() {
        out.write_all(&w.to_le_bytes())?;
    }
    Ok(())
}

/// Writes a [`QuantizedOperator`]'s resident i16 weight spectra and
/// per-block-row scales — the version-3 serving deployment form. Half the
/// payload bytes of the f32 spectra, and loadable straight into the
/// fixed-point inference path with no re-FFT and no re-calibration.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn save_quantized_spectra<W: Write>(
    op: &QuantizedOperator,
    mut out: W,
) -> Result<(), SerializeError> {
    out.write_all(MAGIC)?;
    out.write_all(&SPECTRA_VERSION.to_le_bytes())?;
    out.write_all(&FLAG_SPECTRA.to_le_bytes())?;
    write_u64(&mut out, op.rows() as u64)?;
    write_u64(&mut out, op.cols() as u64)?;
    write_u64(&mut out, op.block_size() as u64)?;
    let cfg = op.config();
    for fmt in [cfg.weight_format, cfg.input_format] {
        out.write_all(&fmt.bits().to_le_bytes())?;
        out.write_all(&fmt.frac().to_le_bytes())?;
    }
    out.write_all(&cfg.input_range.to_le_bytes())?;
    for &s in op.weight_steps() {
        out.write_all(&s.to_le_bytes())?;
    }
    let (wq_re, wq_im) = op.code_planes();
    for plane in [wq_re, wq_im] {
        for c in plane {
            out.write_all(&c.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads a quantized-spectra stream written by [`save_quantized_spectra`].
///
/// The decoded parts funnel through [`QuantizedOperator::from_raw_parts`],
/// so dimension errors and overflow-capable formats surface as
/// [`SerializeError::Invalid`] with the construction-time [`CircError`].
///
/// # Errors
///
/// Returns [`SerializeError`] on malformed streams, non-version-3
/// streams, invalid code formats, or contents `from_raw_parts` rejects.
pub fn load_quantized_spectra<R: Read>(mut input: R) -> Result<QuantizedOperator, SerializeError> {
    let (version, flags, m, n, k) = read_header(&mut input)?;
    if version != SPECTRA_VERSION || flags & FLAG_SPECTRA == 0 {
        return Err(SerializeError::UnsupportedVersion(version));
    }
    let (p, q) = check_shape(m, n, k)?;
    let weight_format = read_format(&mut input)?;
    let input_format = read_format(&mut input)?;
    let input_range = read_scales(&mut input, 1, "input_range")?[0];
    let cfg = QuantConfig {
        weight_format,
        input_format,
        input_range,
    };
    let w_step = read_scales(&mut input, p, "w_step")?;
    // `bins ≤ k`, so this count is within the checked `p·q·k`.
    let count = (k / 2 + 1) * p * q;
    let read_codes = |input: &mut R| -> Result<Vec<i16>, SerializeError> {
        Ok(read_payload(input, count, 2)?
            .chunks_exact(2)
            .map(|c| i16::from_le_bytes([c[0], c[1]]))
            .collect())
    };
    let wq_re = read_codes(&mut input)?;
    let wq_im = read_codes(&mut input)?;
    Ok(QuantizedOperator::from_raw_parts(
        m, n, k, cfg, w_step, wq_re, wq_im,
    )?)
}

/// Reads `magic version flags m n k` and validates magic/version.
fn read_header<R: Read>(input: &mut R) -> Result<(u16, u16, usize, usize, usize), SerializeError> {
    let mut magic = [0u8; 4];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(SerializeError::BadMagic);
    }
    let mut half = [0u8; 2];
    input.read_exact(&mut half)?;
    let version = u16::from_le_bytes(half);
    if version != VERSION && version != SLICE_VERSION && version != SPECTRA_VERSION {
        return Err(SerializeError::UnsupportedVersion(version));
    }
    input.read_exact(&mut half)?;
    let flags = u16::from_le_bytes(half);
    let m = read_u64(input)? as usize;
    let n = read_u64(input)? as usize;
    let k = read_u64(input)? as usize;
    Ok((version, flags, m, n, k))
}

/// Reads the weight payload (`p·q·k` values, f32 or quantized per `flags`).
fn read_weights<R: Read>(
    input: &mut R,
    flags: u16,
    m: usize,
    n: usize,
    k: usize,
) -> Result<Vec<f32>, SerializeError> {
    let (p, q) = check_shape(m, n, k)?;
    let count = p * q * k;
    if flags & FLAG_QUANTIZED != 0 {
        let scale = read_f32(input)?;
        Ok(read_payload(input, count, 2)?
            .chunks_exact(2)
            .map(|c| f32::from(i16::from_le_bytes([c[0], c[1]])) * scale)
            .collect())
    } else {
        Ok(read_payload(input, count, 4)?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

/// Reads an operator written by [`save`] or [`save_quantized`].
///
/// A version-2 row-slice stream is rejected with
/// [`SerializeError::Invalid`]: its output segment is meaningless without
/// the placement fields — use [`load_slice`] for those.
///
/// # Errors
///
/// Returns [`SerializeError`] on malformed streams, bad versions, or
/// invalid dimensions.
pub fn load<R: Read>(mut input: R) -> Result<BlockCirculantMatrix, SerializeError> {
    let (version, flags, m, n, k) = read_header(&mut input)?;
    if version != VERSION || flags & FLAG_SLICE != 0 {
        return Err(SerializeError::UnsupportedVersion(version));
    }
    let weights = read_weights(&mut input, flags, m, n, k)?;
    Ok(BlockCirculantMatrix::from_weights(m, n, k, &weights)?)
}

/// Reads a [`RowSlice`] written by [`save_slice`] — or a whole operator
/// written by [`save`]/[`save_quantized`], which loads as the trivial
/// full-range slice (`row_start = 0`, `full_rows = m`), so a shard server
/// can hot-load either form through one path.
///
/// # Errors
///
/// Returns [`SerializeError`] on malformed streams, bad versions,
/// inconsistent placement fields (`row_start + m > full_rows`), or
/// invalid dimensions.
pub fn load_slice<R: Read>(mut input: R) -> Result<RowSlice, SerializeError> {
    let (version, flags, m, n, k) = read_header(&mut input)?;
    if version == SPECTRA_VERSION || flags & FLAG_SPECTRA != 0 {
        // Spectra streams hold i16 frequency-domain codes, not defining
        // vectors — only `load_quantized_spectra` understands them.
        return Err(SerializeError::UnsupportedVersion(version));
    }
    let (row_start, full_rows) = if version == SLICE_VERSION {
        if flags & FLAG_SLICE == 0 {
            return Err(SerializeError::UnsupportedVersion(version));
        }
        (
            read_u64(&mut input)? as usize,
            read_u64(&mut input)? as usize,
        )
    } else {
        (0, m)
    };
    if row_start.checked_add(m).map_or(true, |end| end > full_rows) {
        return Err(SerializeError::Invalid(CircError::DimensionMismatch {
            expected: full_rows,
            got: row_start.saturating_add(m),
        }));
    }
    let weights = read_weights(&mut input, flags, m, n, k)?;
    Ok(RowSlice {
        operator: BlockCirculantMatrix::from_weights(m, n, k, &weights)?,
        row_start,
        full_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use circnn_tensor::init::seeded_rng;

    fn sample() -> BlockCirculantMatrix {
        let mut rng = seeded_rng(5);
        BlockCirculantMatrix::random(&mut rng, 24, 40, 8).unwrap()
    }

    #[test]
    fn f32_round_trip_is_exact() {
        let m = sample();
        let mut buf = Vec::new();
        save(&m, &mut buf).unwrap();
        let back = load(&buf[..]).unwrap();
        assert_eq!(back.rows(), 24);
        assert_eq!(back.cols(), 40);
        assert_eq!(back.block_size(), 8);
        assert_eq!(back.weights(), m.weights());
    }

    #[test]
    fn quantized_round_trip_is_close_and_half_size() {
        let m = sample();
        let mut full = Vec::new();
        save(&m, &mut full).unwrap();
        let mut quant = Vec::new();
        save_quantized(&m, &mut quant).unwrap();
        assert!(
            quant.len() < full.len() * 6 / 10,
            "{} vs {}",
            quant.len(),
            full.len()
        );
        let back = load(&quant[..]).unwrap();
        let max_abs = m.weights().iter().fold(0.0f32, |a, &b| a.max(b.abs()));
        for (a, b) in back.weights().iter().zip(m.weights()) {
            assert!((a - b).abs() <= max_abs / 32000.0 + 1e-6);
        }
    }

    #[test]
    fn loaded_operator_computes_identically() {
        let m = sample();
        let mut buf = Vec::new();
        save(&m, &mut buf).unwrap();
        let back = load(&buf[..]).unwrap();
        let x: Vec<f32> = (0..40).map(|i| (i as f32 * 0.2).sin()).collect();
        assert_eq!(m.matvec(&x).unwrap(), back.matvec(&x).unwrap());
    }

    #[test]
    fn rejects_garbage_and_wrong_versions() {
        assert!(matches!(
            load(&b"NOPE"[..]),
            Err(SerializeError::BadMagic) | Err(SerializeError::Io(_))
        ));
        let mut buf = Vec::new();
        save(&sample(), &mut buf).unwrap();
        buf[4] = 99; // version
        assert!(matches!(
            load(&buf[..]),
            Err(SerializeError::UnsupportedVersion(_))
        ));
        // Truncated stream.
        let mut short = Vec::new();
        save(&sample(), &mut short).unwrap();
        short.truncate(short.len() / 2);
        assert!(matches!(load(&short[..]), Err(SerializeError::Io(_))));
    }

    #[test]
    fn row_slice_round_trip_is_exact() {
        let m = sample();
        let slice = m.row_slice(1..3).unwrap();
        let mut buf = Vec::new();
        save_slice(&slice, &mut buf).unwrap();
        let back = load_slice(&buf[..]).unwrap();
        assert_eq!(back.row_start, slice.row_start);
        assert_eq!(back.full_rows, 24);
        assert_eq!(back.operator.rows(), slice.operator.rows());
        assert_eq!(back.operator.cols(), 40);
        assert_eq!(back.operator.weights(), slice.operator.weights());
        // And the reloaded slice computes bitwise-identically.
        let x: Vec<f32> = (0..40).map(|i| (i as f32 * 0.17).cos()).collect();
        assert_eq!(
            slice.operator.matvec(&x).unwrap(),
            back.operator.matvec(&x).unwrap()
        );
    }

    #[test]
    fn whole_operator_streams_load_as_full_range_slices() {
        let m = sample();
        let mut buf = Vec::new();
        save(&m, &mut buf).unwrap();
        let slice = load_slice(&buf[..]).unwrap();
        assert_eq!(slice.row_start, 0);
        assert_eq!(slice.full_rows, 24);
        assert_eq!(slice.operator.weights(), m.weights());
        // Quantized whole-operator streams load through the same path.
        let mut qbuf = Vec::new();
        save_quantized(&m, &mut qbuf).unwrap();
        assert_eq!(load_slice(&qbuf[..]).unwrap().row_start, 0);
    }

    #[test]
    fn slice_streams_fail_typed_on_version_and_truncation() {
        let slice = sample().row_slice(0..2).unwrap();
        let mut buf = Vec::new();
        save_slice(&slice, &mut buf).unwrap();
        // Version mismatch: a future version is a typed rejection.
        let mut wrong = buf.clone();
        wrong[4] = 9;
        assert!(matches!(
            load_slice(&wrong[..]),
            Err(SerializeError::UnsupportedVersion(9))
        ));
        // `load` must not silently strip the placement fields.
        assert!(matches!(
            load(&buf[..]),
            Err(SerializeError::UnsupportedVersion(SLICE_VERSION))
        ));
        // Truncation anywhere — inside the header, the placement fields,
        // or the weight payload — is a typed I/O error, never a panic.
        for cut in [3, 9, 20, 30, 44, buf.len() - 3] {
            assert!(
                matches!(
                    load_slice(&buf[..cut]),
                    Err(SerializeError::Io(_)) | Err(SerializeError::BadMagic)
                ),
                "cut at {cut}"
            );
        }
        // Inconsistent placement fields (row_start + m > full_rows).
        let mut bad = buf.clone();
        bad[32..40].copy_from_slice(&u64::MAX.to_le_bytes()); // row_start
        assert!(matches!(
            load_slice(&bad[..]),
            Err(SerializeError::Invalid(_))
        ));
    }

    #[test]
    fn quantized_spectra_round_trip_is_bit_identical() {
        use crate::quantized::{QuantConfig, QuantWorkspace};
        let m = sample();
        let qop = QuantizedOperator::from_operator(&m, QuantConfig::default()).unwrap();
        let mut buf = Vec::new();
        save_quantized_spectra(&qop, &mut buf).unwrap();
        let back = load_quantized_spectra(&buf[..]).unwrap();
        assert_eq!(back.rows(), qop.rows());
        assert_eq!(back.cols(), qop.cols());
        assert_eq!(back.block_size(), qop.block_size());
        assert_eq!(back.config(), qop.config());
        assert_eq!(back.weight_steps(), qop.weight_steps());
        assert_eq!(back.code_planes(), qop.code_planes());
        // Identical codes + scales ⇒ bitwise-identical inference.
        let x: Vec<f32> = (0..40).map(|i| (i as f32 * 0.13).sin()).collect();
        let (mut wa, mut wb) = (QuantWorkspace::new(), QuantWorkspace::new());
        let (mut ya, mut yb) = (vec![0.0f32; 24], vec![0.0f32; 24]);
        qop.infer_batch_into(&x, 1, &mut wa, &mut ya, 1).unwrap();
        back.infer_batch_into(&x, 1, &mut wb, &mut yb, 1).unwrap();
        assert_eq!(
            ya.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            yb.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // Half the weight-payload bytes of the f32 stream for same m/n/k
        // would not hold (spectra store bins·p·q complex pairs vs p·q·k
        // reals), but truncation anywhere must stay a typed error.
        for cut in [3, 5, 20, 40, buf.len() / 2, buf.len() - 1] {
            assert!(
                matches!(
                    load_quantized_spectra(&buf[..cut]),
                    Err(SerializeError::Io(_)) | Err(SerializeError::BadMagic)
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn spectra_streams_are_rejected_by_vector_loaders_and_vice_versa() {
        use crate::quantized::QuantConfig;
        let m = sample();
        let qop = QuantizedOperator::from_operator(&m, QuantConfig::default()).unwrap();
        let mut sbuf = Vec::new();
        save_quantized_spectra(&qop, &mut sbuf).unwrap();
        assert!(matches!(
            load(&sbuf[..]),
            Err(SerializeError::UnsupportedVersion(SPECTRA_VERSION))
        ));
        assert!(matches!(
            load_slice(&sbuf[..]),
            Err(SerializeError::UnsupportedVersion(SPECTRA_VERSION))
        ));
        let mut vbuf = Vec::new();
        save(&m, &mut vbuf).unwrap();
        assert!(matches!(
            load_quantized_spectra(&vbuf[..]),
            Err(SerializeError::UnsupportedVersion(VERSION))
        ));
    }

    #[test]
    fn spectra_streams_fail_typed_on_overflow_and_bad_formats() {
        use crate::error::CircError;
        use crate::quantized::QuantConfig;
        let m = sample();
        let qop = QuantizedOperator::from_operator(&m, QuantConfig::default()).unwrap();
        let mut buf = Vec::new();
        save_quantized_spectra(&qop, &mut buf).unwrap();
        // Widen both formats to 16 bits in-place: 2·(2¹⁵)²·q overflows
        // i32, so the load must fail with the construction-time error.
        let fmt_off = 4 + 2 + 2 + 24;
        buf[fmt_off..fmt_off + 4].copy_from_slice(&16u32.to_le_bytes());
        buf[fmt_off + 8..fmt_off + 12].copy_from_slice(&16u32.to_le_bytes());
        assert!(matches!(
            load_quantized_spectra(&buf[..]),
            Err(SerializeError::Invalid(CircError::QuantOverflow {
                weight_bits: 16,
                input_bits: 16,
                ..
            }))
        ));
        // A format outside the i16 domain is invalid data, not a panic.
        buf[fmt_off..fmt_off + 4].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            load_quantized_spectra(&buf[..]),
            Err(SerializeError::Io(e)) if e.kind() == io::ErrorKind::InvalidData
        ));
    }

    /// A 32-byte vector stream, or a 52-byte spectra stream up to its
    /// scales, whose header claims an `m = 2⁴⁰` operator.
    fn huge_header(version: u16, flags: u16) -> Vec<u8> {
        let mut h = MAGIC.to_vec();
        h.extend_from_slice(&version.to_le_bytes());
        h.extend_from_slice(&flags.to_le_bytes());
        for v in [1u64 << 40, 16, 16] {
            h.extend_from_slice(&v.to_le_bytes());
        }
        if version == SPECTRA_VERSION {
            for v in [12u32, 11, 11, 10] {
                h.extend_from_slice(&v.to_le_bytes());
            }
            h.extend_from_slice(&1.0f32.to_le_bytes());
        }
        h
    }

    #[test]
    fn load_fails_at_eof_on_a_huge_header() {
        let buf = huge_header(VERSION, 0);
        assert!(matches!(load(&buf[..]), Err(SerializeError::Io(_))));
        // A shape whose parameter count overflows is invalid data.
        let mut over = buf.clone();
        over[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            load(&over[..]),
            Err(SerializeError::Io(e)) if e.kind() == io::ErrorKind::InvalidData
        ));
    }

    #[test]
    fn load_slice_fails_at_eof_on_a_huge_header() {
        let buf = huge_header(VERSION, 0);
        assert!(matches!(load_slice(&buf[..]), Err(SerializeError::Io(_))));
    }

    #[test]
    fn load_quantized_spectra_fails_at_eof_on_a_huge_header() {
        let buf = huge_header(SPECTRA_VERSION, FLAG_SPECTRA);
        assert_eq!(buf.len(), 52);
        assert!(matches!(
            load_quantized_spectra(&buf[..]),
            Err(SerializeError::Io(_))
        ));
    }

    /// Overwrites the f32 at `offset` of a valid spectra stream with each
    /// unusable scale; every load must fail as invalid data.
    fn rejects_scale_at(offset: usize) {
        use crate::quantized::QuantConfig;
        let qop = QuantizedOperator::from_operator(&sample(), QuantConfig::default()).unwrap();
        let mut buf = Vec::new();
        save_quantized_spectra(&qop, &mut buf).unwrap();
        for bad in [0.0f32, -1.0, f32::NAN, f32::INFINITY] {
            buf[offset..offset + 4].copy_from_slice(&bad.to_le_bytes());
            assert!(
                matches!(
                    load_quantized_spectra(&buf[..]),
                    Err(SerializeError::Io(e)) if e.kind() == io::ErrorKind::InvalidData
                ),
                "scale {bad} at byte {offset}"
            );
        }
    }

    #[test]
    fn spectra_streams_reject_an_unusable_input_range() {
        rejects_scale_at(4 + 2 + 2 + 24 + 16);
    }

    #[test]
    fn spectra_streams_reject_an_unusable_weight_step() {
        // The second of the three per-block-row steps.
        rejects_scale_at(4 + 2 + 2 + 24 + 16 + 4 + 4);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = SerializeError::BadMagic;
        assert!(!e.to_string().is_empty());
        let e2 = SerializeError::UnsupportedVersion(7);
        assert!(e2.to_string().contains('7'));
    }
}
