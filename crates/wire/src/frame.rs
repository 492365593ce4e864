//! The versioned, length-prefixed binary frame format.
//!
//! Every frame is one contiguous little-endian buffer:
//!
//! ```text
//! offset  size  field
//! 0       1     magic     0xC7 (rejects non-protocol peers instantly)
//! 1       1     version   3
//! 2       1     opcode    frame type (request 0x0*, reply 0x8*)
//! 3       1     reserved  must be 0
//! 4       4     len       payload byte length, id included, ≤ MAX_PAYLOAD
//! 8       8     id        request id: chosen by the client, echoed back
//! 16      …     fields    opcode-specific, little-endian
//! ```
//!
//! Every frame carries a `u64` request id as its first eight payload
//! bytes — requests choose it, replies (including `Error`) echo it — so
//! replies may complete out of arrival order and a pipelining client
//! matches them by id instead of position. One id is reserved:
//! [`NO_REQUEST`] marks the `Malformed` verdict a server sends before it
//! hangs up on a stream it cannot frame, which answers no request.
//!
//! Strings are `u16` length + UTF-8 bytes; `f32`/`f64` are IEEE-754 LE
//! bit patterns. Decoding is **strict**: truncated fields, trailing bytes,
//! oversized length prefixes, unknown opcodes and version mismatches all
//! return typed [`WireError`]s — never panics — so a malicious peer can at
//! worst get its connection closed.
//!
//! Encoding appends header + payload into one caller-owned `Vec<u8>`
//! (cleared first), so a steady-state connection reuses a single buffer
//! and hands the kernel one contiguous write per frame; decoding borrows
//! the input slice and only allocates the output vectors themselves.

use std::time::Duration;

use circnn_serve::ServeStats;

use crate::error::{ErrorCode, WireError};

/// First byte of every frame.
pub const MAGIC: u8 = 0xC7;
/// The protocol version: the only one encoded or decoded. Any other
/// version byte is a hard [`WireError::BadVersion`].
pub const VERSION: u8 = 3;
/// The reserved request id of a reply that answers no request: the
/// `Malformed` verdict a server sends before it hangs up on a stream it
/// cannot frame. [`decode_reply_tagged`] reports an `Error` under this id
/// as `Tag = None`; a client should not send it on a request whose
/// errors it needs to attribute.
pub const NO_REQUEST: u64 = u64::MAX;
/// Frame header length in bytes.
pub const HEADER_LEN: usize = 8;
/// Hard cap on a frame payload (64 MiB) — the length prefix is validated
/// against this *before* any allocation, so a hostile peer cannot ask the
/// server to reserve gigabytes.
pub const MAX_PAYLOAD: usize = 1 << 26;

mod opcode {
    pub const PING: u8 = 0x01;
    pub const LIST_MODELS: u8 = 0x02;
    pub const STATS: u8 = 0x03;
    pub const INFER: u8 = 0x04;
    pub const INFER_BATCH: u8 = 0x05;
    pub const HEALTH: u8 = 0x06;
    pub const INFER_SEGMENT: u8 = 0x07;
    pub const PONG: u8 = 0x81;
    pub const MODEL_LIST: u8 = 0x82;
    pub const STATS_REPLY: u8 = 0x83;
    pub const INFER_REPLY: u8 = 0x84;
    pub const INFER_BATCH_REPLY: u8 = 0x85;
    pub const HEALTH_REPLY: u8 = 0x86;
    pub const INFER_SEGMENT_REPLY: u8 = 0x87;
    pub const ERROR: u8 = 0xFF;
}

/// One registered model as reported by `ListModels`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// Registry name.
    pub name: String,
    /// Flat request vector length `n`.
    pub input_len: u32,
    /// Flat response vector length `m`.
    pub output_len: u32,
    /// Requests parked in the tenant queue at snapshot time.
    pub pending: u32,
}

/// One tenant's degradation counters as reported by `Health`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantHealth {
    /// Registry name.
    pub name: String,
    /// Requests parked in the tenant queue at snapshot time.
    pub pending: u32,
    /// Queued requests canceled by the `ShedOldest` overload policy.
    pub shed: u64,
    /// Submissions refused outright by the `Reject` overload policy.
    pub rejected: u64,
    /// Requests failed fast because their deadline passed before dispatch.
    pub expired: u64,
    /// Batch dispatches that panicked inside the model.
    pub panics: u64,
}

/// Server health snapshot as reported by `Health`: registry size plus the
/// per-tenant queue depths and degradation counters an operator (or a load
/// balancer) needs to decide whether this server is keeping up.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthInfo {
    /// Number of registered models.
    pub models: u32,
    /// Per-tenant queue depth and degradation counters, sorted by name.
    pub tenants: Vec<TenantHealth>,
}

/// Client → server frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Enumerate registered models.
    ListModels,
    /// Server health: registry size + per-tenant queue depths and
    /// shed/rejected/expired/panic counters.
    Health,
    /// Per-tenant serving statistics for one model.
    Stats {
        /// Registry name.
        model: String,
    },
    /// One `[n]` inference request.
    Infer {
        /// Registry name.
        model: String,
        /// Deadline budget in microseconds from server receipt;
        /// `0` means no deadline.
        deadline_micros: u64,
        /// Flat input vector.
        input: Vec<f32>,
    },
    /// A client-side batch of `batch` stacked `[n]` rows (the server still
    /// coalesces them with other traffic).
    InferBatch {
        /// Registry name.
        model: String,
        /// Deadline budget in microseconds (`0` = none), shared by rows.
        deadline_micros: u64,
        /// Row count.
        batch: u32,
        /// Row-major `[batch, n]` input.
        input: Vec<f32>,
    },
    /// One scatter leg of a sharded request: the **shared** input (every
    /// row-slice needs all input block spectra) plus the logical output-row
    /// range this shard is responsible for. The server validates the range
    /// against the registered segment before computing, so a misrouted leg
    /// fails typed instead of returning another slice's rows.
    InferSegment {
        /// Registry name (the segment registered under it).
        model: String,
        /// Deadline budget in microseconds (`0` = none), shared by rows.
        deadline_micros: u64,
        /// First logical output row of the requested segment.
        row_start: u32,
        /// One past the last logical output row of the requested segment.
        row_end: u32,
        /// Row count of the shared input slab.
        batch: u32,
        /// Row-major `[batch, n]` shared input.
        input: Vec<f32>,
    },
}

/// Reads a request's `deadline_micros` field back into a budget: `0` is
/// "no deadline", anything else is that many microseconds.
pub fn budget_of(deadline_micros: u64) -> Option<Duration> {
    (deadline_micros > 0).then(|| Duration::from_micros(deadline_micros))
}

/// Server → client frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::ListModels`].
    ModelList(Vec<ModelInfo>),
    /// Answer to [`Request::Stats`].
    Stats {
        /// Registry name echoed back.
        model: String,
        /// Per-tenant statistics snapshot.
        stats: ServeStats,
    },
    /// Answer to [`Request::Infer`].
    Infer {
        /// Flat `[m]` output vector.
        output: Vec<f32>,
    },
    /// Answer to [`Request::InferBatch`].
    InferBatch {
        /// Row count echoed back.
        batch: u32,
        /// Row-major `[batch, m]` output.
        output: Vec<f32>,
    },
    /// Answer to [`Request::Health`].
    Health(HealthInfo),
    /// Answer to [`Request::InferSegment`]. The row range is echoed back
    /// so the gathering router can verify the segment's placement before
    /// stitching — a reply can never be attributed to the wrong rows.
    InferSegment {
        /// First logical output row, echoed from the request.
        row_start: u32,
        /// One past the last logical output row, echoed from the request.
        row_end: u32,
        /// Row count, echoed from the request.
        batch: u32,
        /// Row-major `[batch, row_end − row_start]` output segment.
        output: Vec<f32>,
    },
    /// Typed failure for the corresponding request.
    Error {
        /// Machine-matchable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    // Strings ride a u16 length prefix. Writing a longer string with a
    // wrapped prefix would corrupt the frame, so over-long strings are
    // truncated on a char boundary instead (model names are bounded far
    // below this by the registry and the client; this protects
    // server-generated error messages that embed client input).
    let mut end = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    put_u16(buf, end as u16);
    buf.extend_from_slice(&s.as_bytes()[..end]);
}

fn put_f32s(buf: &mut Vec<u8>, xs: &[f32]) {
    buf.reserve(xs.len() * 4);
    for &x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

/// The request id a decoded frame carries: `Some(id)`, except `None` for
/// a reply `Error` under [`NO_REQUEST`] — a verdict that answers no
/// request.
pub type Tag = Option<u64>;

/// Appends a frame header (zero length; [`finish_frame`] patches it) and
/// the request id to `buf`.
fn start_frame(buf: &mut Vec<u8>, id: u64, op: u8) {
    buf.extend_from_slice(&[MAGIC, VERSION, op, 0]);
    put_u32(buf, 0);
    put_u64(buf, id);
}

/// Patches the length prefix of the frame that starts at `start`.
fn finish_frame(buf: &mut [u8], start: usize) {
    let len = (buf.len() - start - HEADER_LEN) as u32;
    buf[start + 4..start + 8].copy_from_slice(&len.to_le_bytes());
}

/// Encodes `req` as one complete frame carrying `id` into `buf` (cleared
/// first). The server echoes the id in the matching reply.
pub fn encode_request_v3(id: u64, req: &Request, buf: &mut Vec<u8>) {
    buf.clear();
    match req {
        Request::Ping => start_frame(buf, id, opcode::PING),
        Request::ListModels => start_frame(buf, id, opcode::LIST_MODELS),
        Request::Health => start_frame(buf, id, opcode::HEALTH),
        Request::Stats { model } => {
            start_frame(buf, id, opcode::STATS);
            put_str(buf, model);
        }
        Request::Infer {
            model,
            deadline_micros,
            input,
        } => {
            start_frame(buf, id, opcode::INFER);
            put_str(buf, model);
            put_u64(buf, *deadline_micros);
            put_u32(buf, input.len() as u32);
            put_f32s(buf, input);
        }
        Request::InferBatch {
            model,
            deadline_micros,
            batch,
            input,
        } => {
            start_frame(buf, id, opcode::INFER_BATCH);
            put_str(buf, model);
            put_u64(buf, *deadline_micros);
            put_u32(buf, *batch);
            put_u32(buf, input.len() as u32);
            put_f32s(buf, input);
        }
        Request::InferSegment {
            model,
            deadline_micros,
            row_start,
            row_end,
            batch,
            input,
        } => {
            start_frame(buf, id, opcode::INFER_SEGMENT);
            put_str(buf, model);
            put_u64(buf, *deadline_micros);
            put_u32(buf, *row_start);
            put_u32(buf, *row_end);
            put_u32(buf, *batch);
            put_u32(buf, input.len() as u32);
            put_f32s(buf, input);
        }
    }
    finish_frame(buf, 0);
}

/// Encodes `reply` as one complete frame echoing the request's `id` into
/// `buf` (cleared first).
pub fn encode_reply_v3(id: u64, reply: &Reply, buf: &mut Vec<u8>) {
    buf.clear();
    append_reply(id, reply, buf);
}

/// Appends `reply` as one complete frame under `id` to `buf` — how the
/// server queues a reply straight into a connection's write buffer.
pub(crate) fn append_reply(id: u64, reply: &Reply, buf: &mut Vec<u8>) {
    let start = buf.len();
    match reply {
        Reply::Pong => start_frame(buf, id, opcode::PONG),
        Reply::ModelList(models) => {
            start_frame(buf, id, opcode::MODEL_LIST);
            put_u32(buf, models.len() as u32);
            for m in models {
                put_str(buf, &m.name);
                put_u32(buf, m.input_len);
                put_u32(buf, m.output_len);
                put_u32(buf, m.pending);
            }
        }
        Reply::Stats { model, stats } => {
            start_frame(buf, id, opcode::STATS_REPLY);
            put_str(buf, model);
            put_u64(buf, stats.requests);
            put_u64(buf, stats.batches);
            put_u64(buf, stats.full_flushes);
            put_u64(buf, stats.timeout_flushes);
            put_u64(buf, stats.drain_flushes);
            put_u64(buf, stats.expired);
            put_u64(buf, stats.shed);
            put_u64(buf, stats.rejected);
            put_u64(buf, stats.panics);
            put_u64(buf, stats.retries);
            put_u64(buf, stats.max_occupancy as u64);
            put_f64(buf, stats.mean_occupancy);
            put_f64(buf, stats.mean_infer_us);
            put_f64(buf, stats.mean_latency_us);
            put_f64(buf, stats.max_latency_us);
            put_u64(buf, stats.idle_flushes);
        }
        Reply::Infer { output } => {
            start_frame(buf, id, opcode::INFER_REPLY);
            put_u32(buf, output.len() as u32);
            put_f32s(buf, output);
        }
        Reply::InferBatch { batch, output } => {
            start_frame(buf, id, opcode::INFER_BATCH_REPLY);
            put_u32(buf, *batch);
            put_u32(buf, output.len() as u32);
            put_f32s(buf, output);
        }
        Reply::Health(health) => {
            start_frame(buf, id, opcode::HEALTH_REPLY);
            put_u32(buf, health.models);
            put_u32(buf, health.tenants.len() as u32);
            for t in &health.tenants {
                put_str(buf, &t.name);
                put_u32(buf, t.pending);
                put_u64(buf, t.shed);
                put_u64(buf, t.rejected);
                put_u64(buf, t.expired);
                put_u64(buf, t.panics);
            }
        }
        Reply::InferSegment {
            row_start,
            row_end,
            batch,
            output,
        } => {
            start_frame(buf, id, opcode::INFER_SEGMENT_REPLY);
            put_u32(buf, *row_start);
            put_u32(buf, *row_end);
            put_u32(buf, *batch);
            put_u32(buf, output.len() as u32);
            put_f32s(buf, output);
        }
        Reply::Error { code, message } => {
            start_frame(buf, id, opcode::ERROR);
            put_u16(buf, *code as u16);
            put_str(buf, message);
        }
    }
    finish_frame(buf, start);
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Strict little-endian cursor over one frame payload.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Malformed("field extends past the payload"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("take returned 8")))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str16(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("name is not valid UTF-8"))
    }

    /// A `u32` count followed by that many `f32`s. The count is validated
    /// against the bytes actually present before allocating.
    fn f32s(&mut self) -> Result<Vec<f32>, WireError> {
        let count = self.u32()? as usize;
        let bytes = self.take(
            count
                .checked_mul(4)
                .ok_or(WireError::Malformed("f32 count overflows the payload"))?,
        )?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Malformed("trailing bytes after the payload"));
        }
        Ok(())
    }
}

/// Validates a frame header and returns `(opcode, payload_len)`.
///
/// # Errors
///
/// Typed [`WireError`]s for a short header, bad magic, a version other
/// than [`VERSION`], a nonzero reserved byte, or an oversized length
/// prefix.
pub fn decode_header(header: &[u8]) -> Result<(u8, usize), WireError> {
    if header.len() < HEADER_LEN {
        return Err(WireError::Malformed("frame shorter than its header"));
    }
    if header[0] != MAGIC {
        return Err(WireError::BadMagic(header[0]));
    }
    if header[1] != VERSION {
        return Err(WireError::BadVersion {
            got: header[1],
            want: VERSION,
        });
    }
    if header[3] != 0 {
        return Err(WireError::Malformed("reserved header byte is nonzero"));
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            len,
            max: MAX_PAYLOAD,
        });
    }
    Ok((header[2], len))
}

/// Splits a whole frame into `(id, opcode, fields)`.
fn frame_payload(frame: &[u8]) -> Result<(u64, u8, &[u8]), WireError> {
    let (op, len) = decode_header(frame)?;
    let payload = &frame[HEADER_LEN..];
    if payload.len() != len {
        return Err(WireError::Malformed(
            "length prefix disagrees with the bytes present",
        ));
    }
    if payload.len() < 8 {
        return Err(WireError::Malformed("frame too short for its request id"));
    }
    let id = u64::from_le_bytes(payload[..8].try_into().expect("checked length"));
    Ok((id, op, &payload[8..]))
}

/// Decodes one complete request frame (header + payload, exactly),
/// discarding the id. Servers use [`decode_request_tagged`] so the reply
/// can echo the id.
///
/// # Errors
///
/// Typed [`WireError`]s on any structural problem; never panics.
pub fn decode_request(frame: &[u8]) -> Result<Request, WireError> {
    decode_request_id(frame).map(|(_, req)| req)
}

/// Decodes one complete request frame along with its id (always `Some`:
/// a request answers nothing).
///
/// # Errors
///
/// Typed [`WireError`]s on any structural problem; never panics.
pub fn decode_request_tagged(frame: &[u8]) -> Result<(Tag, Request), WireError> {
    decode_request_id(frame).map(|(id, req)| (Some(id), req))
}

/// Decodes one complete request frame along with its id.
pub(crate) fn decode_request_id(frame: &[u8]) -> Result<(u64, Request), WireError> {
    let (id, op, payload) = frame_payload(frame)?;
    let mut c = Cur {
        buf: payload,
        pos: 0,
    };
    let req = match op {
        opcode::PING => Request::Ping,
        opcode::LIST_MODELS => Request::ListModels,
        opcode::HEALTH => Request::Health,
        opcode::STATS => Request::Stats { model: c.str16()? },
        opcode::INFER => Request::Infer {
            model: c.str16()?,
            deadline_micros: c.u64()?,
            input: c.f32s()?,
        },
        opcode::INFER_BATCH => {
            let model = c.str16()?;
            let deadline_micros = c.u64()?;
            let batch = c.u32()?;
            let input = c.f32s()?;
            Request::InferBatch {
                model,
                deadline_micros,
                batch,
                input,
            }
        }
        opcode::INFER_SEGMENT => {
            let model = c.str16()?;
            let deadline_micros = c.u64()?;
            let row_start = c.u32()?;
            let row_end = c.u32()?;
            let batch = c.u32()?;
            let input = c.f32s()?;
            Request::InferSegment {
                model,
                deadline_micros,
                row_start,
                row_end,
                batch,
                input,
            }
        }
        other => return Err(WireError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok((id, req))
}

/// Decodes one complete reply frame (header + payload, exactly),
/// discarding the id. Pipelining clients use [`decode_reply_tagged`] to
/// match replies by id.
///
/// # Errors
///
/// Typed [`WireError`]s on any structural problem; never panics.
pub fn decode_reply(frame: &[u8]) -> Result<Reply, WireError> {
    decode_reply_tagged(frame).map(|(_, reply)| reply)
}

/// Decodes one complete reply frame along with its [`Tag`]: `Some(id)`
/// for a reply to request `id`, `None` for an `Error` under
/// [`NO_REQUEST`].
///
/// # Errors
///
/// Typed [`WireError`]s on any structural problem; never panics.
pub fn decode_reply_tagged(frame: &[u8]) -> Result<(Tag, Reply), WireError> {
    let (id, op, payload) = frame_payload(frame)?;
    let mut c = Cur {
        buf: payload,
        pos: 0,
    };
    let reply = match op {
        opcode::PONG => Reply::Pong,
        opcode::MODEL_LIST => {
            let count = c.u32()? as usize;
            // Each entry is ≥ 14 bytes; bound the preallocation by what
            // the payload could actually hold.
            if count > payload.len() / 14 {
                return Err(WireError::Malformed("model count exceeds the payload"));
            }
            let mut models = Vec::with_capacity(count);
            for _ in 0..count {
                models.push(ModelInfo {
                    name: c.str16()?,
                    input_len: c.u32()?,
                    output_len: c.u32()?,
                    pending: c.u32()?,
                });
            }
            Reply::ModelList(models)
        }
        opcode::STATS_REPLY => Reply::Stats {
            model: c.str16()?,
            stats: ServeStats {
                requests: c.u64()?,
                batches: c.u64()?,
                full_flushes: c.u64()?,
                timeout_flushes: c.u64()?,
                drain_flushes: c.u64()?,
                expired: c.u64()?,
                shed: c.u64()?,
                rejected: c.u64()?,
                panics: c.u64()?,
                retries: c.u64()?,
                max_occupancy: c.u64()? as usize,
                mean_occupancy: c.f64()?,
                mean_infer_us: c.f64()?,
                mean_latency_us: c.f64()?,
                max_latency_us: c.f64()?,
                idle_flushes: c.u64()?,
            },
        },
        opcode::INFER_REPLY => Reply::Infer { output: c.f32s()? },
        opcode::INFER_BATCH_REPLY => {
            let batch = c.u32()?;
            let output = c.f32s()?;
            Reply::InferBatch { batch, output }
        }
        opcode::HEALTH_REPLY => {
            let models = c.u32()?;
            let count = c.u32()? as usize;
            // Each entry is ≥ 38 bytes; bound the preallocation by what
            // the payload could actually hold.
            if count > payload.len() / 38 {
                return Err(WireError::Malformed("tenant count exceeds the payload"));
            }
            let mut tenants = Vec::with_capacity(count);
            for _ in 0..count {
                tenants.push(TenantHealth {
                    name: c.str16()?,
                    pending: c.u32()?,
                    shed: c.u64()?,
                    rejected: c.u64()?,
                    expired: c.u64()?,
                    panics: c.u64()?,
                });
            }
            Reply::Health(HealthInfo { models, tenants })
        }
        opcode::INFER_SEGMENT_REPLY => {
            let row_start = c.u32()?;
            let row_end = c.u32()?;
            let batch = c.u32()?;
            let output = c.f32s()?;
            Reply::InferSegment {
                row_start,
                row_end,
                batch,
                output,
            }
        }
        opcode::ERROR => {
            let code = ErrorCode::from_wire(c.u16()?);
            let message = c.str16()?;
            Reply::Error { code, message }
        }
        other => return Err(WireError::UnknownOpcode(other)),
    };
    c.finish()?;
    let answers_none = id == NO_REQUEST && matches!(reply, Reply::Error { .. });
    Ok(((!answers_none).then_some(id), reply))
}

// ---------------------------------------------------------------------
// Socket framing
// ---------------------------------------------------------------------

/// Reads exactly one frame from `r` into `buf` (header + payload,
/// replacing the previous contents — the buffer's capacity is reused
/// across frames).
///
/// # Errors
///
/// [`WireError::Io`] on socket failure or EOF mid-frame, plus every header
/// validation error of [`decode_header`]. The header is validated
/// **before** the payload is read, so an oversized length prefix never
/// triggers an allocation.
pub fn read_frame(r: &mut impl std::io::Read, buf: &mut Vec<u8>) -> Result<(), WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (_, len) = decode_header(&header)?;
    buf.clear();
    buf.extend_from_slice(&header);
    buf.resize(HEADER_LEN + len, 0);
    r.read_exact(&mut buf[HEADER_LEN..])?;
    Ok(())
}

/// Writes one already-encoded frame to `w` as a single contiguous write.
///
/// # Errors
///
/// [`WireError::Io`] on socket failure.
pub fn write_frame(w: &mut impl std::io::Write, frame: &[u8]) -> Result<(), WireError> {
    w.write_all(frame)?;
    Ok(())
}

// ---------------------------------------------------------------------
// Incremental assembly (nonblocking sockets)
// ---------------------------------------------------------------------

/// Incremental frame assembly for nonblocking sockets: bytes arrive at
/// arbitrary boundaries ([`FrameAssembler::push`]), complete frames come
/// out one at a time ([`FrameAssembler::next_frame`]).
///
/// The header is validated as soon as eight bytes are present, so a
/// hostile length prefix is rejected before its payload is bought, and a
/// garbage stream fails at the first byte that cannot begin a frame.
/// Consumed frames are compacted out of the buffer on the next call;
/// steady state holds at most one partial frame plus whatever the last
/// read appended.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Bytes of `buf` consumed by already-yielded frames (compacted away
    /// on the next [`FrameAssembler::next_frame`] call).
    consumed: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes read off the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered and not yet yielded as a complete frame (a nonzero
    /// value after a read means a partial frame is in flight).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Yields the next complete frame (header + payload), or `Ok(None)`
    /// when more bytes are needed. The returned slice is valid until the
    /// next call on the assembler.
    ///
    /// # Errors
    ///
    /// Every header validation error of [`decode_header`], as soon as the
    /// offending header is complete. After an error the stream is
    /// unrecoverable (framing is lost); the connection should answer
    /// typed and close.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let (_, len) = decode_header(&self.buf[..HEADER_LEN])?;
        let total = HEADER_LEN + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        self.consumed = total;
        Ok(Some(&self.buf[..total]))
    }
}
