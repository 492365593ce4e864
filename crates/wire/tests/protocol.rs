//! Protocol robustness: random frames round-trip exactly, ids included;
//! malformed input of every stripe — truncation, a wrong length prefix,
//! any single corrupted byte, random garbage — is rejected with typed
//! errors and zero panics.

use circnn_serve::ServeStats;
use circnn_wire::frame::{
    self, decode_reply, decode_reply_tagged, decode_request, decode_request_tagged,
    encode_reply_v3, encode_request_v3, Tag, HEADER_LEN, MAGIC, MAX_PAYLOAD, NO_REQUEST, VERSION,
};
use circnn_wire::{ErrorCode, HealthInfo, ModelInfo, Reply, Request, TenantHealth, WireError};
use proptest::prelude::*;

fn name_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..36, 0..16).prop_map(|v| {
        v.iter()
            .map(|&b| {
                if b < 26 {
                    (b'a' + b) as char
                } else {
                    (b'0' + b - 26) as char
                }
            })
            .collect()
    })
}

fn values_strategy() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1e6f32..1e6, 0..96)
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (
        0usize..7,
        name_strategy(),
        any::<u64>(),
        values_strategy(),
        (1u32..9, any::<u32>(), any::<u32>()),
    )
        .prop_map(
            |(tag, model, deadline, input, (batch, row_start, row_end))| match tag {
                0 => Request::Ping,
                1 => Request::ListModels,
                2 => Request::Stats { model },
                3 => Request::Health,
                4 => Request::Infer {
                    model,
                    deadline_micros: deadline,
                    input,
                },
                5 => Request::InferBatch {
                    model,
                    deadline_micros: deadline,
                    batch,
                    input,
                },
                _ => Request::InferSegment {
                    model,
                    deadline_micros: deadline,
                    row_start,
                    row_end,
                    batch,
                    input,
                },
            },
        )
}

fn stats_strategy() -> impl Strategy<Value = ServeStats> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), 0usize..1_000_000, any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (0.0f64..1e9, 0.0f64..1e9, 0.0f64..1e9, 0.0f64..1e9),
    )
        .prop_map(
            |(
                (requests, batches, full_flushes, timeout_flushes),
                (drain_flushes, expired, max_occupancy, idle_flushes),
                (shed, rejected, panics, retries),
                (mean_occupancy, mean_infer_us, mean_latency_us, max_latency_us),
            )| ServeStats {
                requests,
                batches,
                full_flushes,
                idle_flushes,
                timeout_flushes,
                drain_flushes,
                expired,
                shed,
                rejected,
                panics,
                retries,
                max_occupancy,
                mean_occupancy,
                mean_infer_us,
                mean_latency_us,
                max_latency_us,
            },
        )
}

fn health_strategy() -> impl Strategy<Value = HealthInfo> {
    prop::collection::vec(
        (
            name_strategy(),
            any::<u32>(),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        ),
        0..5,
    )
    .prop_map(|tenants| HealthInfo {
        models: tenants.len() as u32,
        tenants: tenants
            .into_iter()
            .map(
                |(name, pending, (shed, rejected, expired, panics))| TenantHealth {
                    name,
                    pending,
                    shed,
                    rejected,
                    expired,
                    panics,
                },
            )
            .collect(),
    })
}

fn reply_strategy() -> impl Strategy<Value = Reply> {
    (
        0usize..8,
        name_strategy(),
        values_strategy(),
        stats_strategy(),
        health_strategy(),
        (1u32..9, 0u16..12, any::<u32>(), any::<u32>()),
    )
        .prop_map(
            |(tag, model, output, stats, health, (batch, code, row_start, row_end))| match tag {
                0 => Reply::Pong,
                1 => Reply::ModelList(
                    (0..(batch % 4))
                        .map(|i| ModelInfo {
                            name: format!("{model}{i}"),
                            input_len: 64 + i,
                            output_len: 32 + i,
                            pending: i,
                        })
                        .collect(),
                ),
                2 => Reply::Stats { model, stats },
                3 => Reply::Health(health),
                4 => Reply::Infer { output },
                5 => Reply::InferBatch { batch, output },
                6 => Reply::InferSegment {
                    row_start,
                    row_end,
                    batch,
                    output,
                },
                _ => Reply::Error {
                    code: ErrorCode::from_wire(code),
                    message: model,
                },
            },
        )
}

/// The tag a reply frame under `id` decodes to: the id itself, except
/// for an `Error` under the reserved id, which answers no request.
fn expected_tag(id: u64, reply: &Reply) -> Tag {
    (id != NO_REQUEST || !matches!(reply, Reply::Error { .. })).then_some(id)
}

/// The ids a client might pick first or last: the repo benchmark's load
/// generator numbers its requests from 0, `WireClient` from 1, and
/// `u64::MAX − 1` is the largest id that is not reserved.
const EDGE_IDS: [u64; 3] = [0, 1, u64::MAX - 1];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every request survives encode → decode exactly, id included.
    #[test]
    fn requests_round_trip(req in request_strategy(), id in any::<u64>()) {
        let mut buf = Vec::new();
        encode_request_v3(id, &req, &mut buf);
        prop_assert_eq!(buf[1], VERSION);
        let (tag, back) = decode_request_tagged(&buf).expect("own encoding must decode");
        prop_assert_eq!(tag, Some(id));
        prop_assert_eq!(back, req);
    }

    /// Every reply survives encode → decode exactly, and echoes its id.
    #[test]
    fn replies_round_trip(reply in reply_strategy(), id in any::<u64>()) {
        let mut buf = Vec::new();
        encode_reply_v3(id, &reply, &mut buf);
        let (tag, back) = decode_reply_tagged(&buf).expect("own encoding must decode");
        prop_assert_eq!(tag, expected_tag(id, &reply));
        prop_assert_eq!(back, reply);
    }

    /// The edge ids round-trip on requests and replies alike, errors
    /// included.
    #[test]
    fn edge_ids_round_trip(
        req in request_strategy(),
        reply in reply_strategy(),
        pick in 0usize..EDGE_IDS.len(),
    ) {
        let id = EDGE_IDS[pick];
        let mut buf = Vec::new();
        encode_request_v3(id, &req, &mut buf);
        prop_assert_eq!(decode_request_tagged(&buf).expect("request decodes").0, Some(id));
        encode_reply_v3(id, &reply, &mut buf);
        prop_assert_eq!(decode_reply_tagged(&buf).expect("reply decodes"), (Some(id), reply));
    }

    /// Any single corrupted byte of a valid request or reply frame either
    /// fails typed or decodes to a value that re-encodes to exactly the
    /// corrupted bytes — never a panic, never a silent reinterpretation.
    /// The one lossy field is an `Error`'s code: codes this build does
    /// not know decode as `Internal` by design.
    #[test]
    fn single_byte_corruption_fails_typed_or_re_encodes_exactly(
        req in request_strategy(),
        reply in reply_strategy(),
        id in any::<u64>(),
        at in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut buf = Vec::new();
        let mut again = Vec::new();
        encode_request_v3(id, &req, &mut buf);
        let pos = ((buf.len() as f64 * at) as usize).min(buf.len() - 1);
        buf[pos] ^= flip;
        if let Ok((tag, back)) = decode_request_tagged(&buf) {
            encode_request_v3(tag.expect("requests always carry an id"), &back, &mut again);
            prop_assert_eq!(&again, &buf, "request corrupted at byte {}", pos);
        }

        encode_reply_v3(id, &reply, &mut buf);
        let pos = ((buf.len() as f64 * at) as usize).min(buf.len() - 1);
        buf[pos] ^= flip;
        if let Ok((tag, back)) = decode_reply_tagged(&buf) {
            encode_reply_v3(tag.unwrap_or(NO_REQUEST), &back, &mut again);
            let code_field = HEADER_LEN + 8..HEADER_LEN + 10;
            let lossy_code = matches!(back, Reply::Error { code: ErrorCode::Internal, .. })
                && code_field.contains(&pos);
            if !lossy_code {
                prop_assert_eq!(&again, &buf, "reply corrupted at byte {}", pos);
            }
        }
    }

    /// Truncating a valid frame at ANY byte boundary yields a typed
    /// error — header-level or payload-level — and never a panic.
    #[test]
    fn truncated_frames_are_rejected(
        req in request_strategy(),
        id in any::<u64>(),
        frac in 0.0f64..1.0,
    ) {
        let mut buf = Vec::new();
        encode_request_v3(id, &req, &mut buf);
        let cut = ((buf.len() as f64 * frac) as usize).min(buf.len().saturating_sub(1));
        prop_assert!(
            decode_request(&buf[..cut]).is_err(),
            "decoding a {cut}-byte prefix of a {}-byte frame must fail",
            buf.len()
        );
    }

    /// Flipping a payload length prefix to disagree with the bytes
    /// actually present is rejected (both directions).
    #[test]
    fn wrong_length_prefix_is_rejected(
        req in request_strategy(),
        id in any::<u64>(),
        delta in 1u32..64,
    ) {
        let mut buf = Vec::new();
        encode_request_v3(id, &req, &mut buf);
        let len = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        buf[4..8].copy_from_slice(&(len + delta).to_le_bytes());
        prop_assert!(decode_request(&buf).is_err());
        if len >= delta {
            buf[4..8].copy_from_slice(&(len - delta).to_le_bytes());
            prop_assert!(decode_request(&buf).is_err());
        }
    }

    /// Random garbage never panics the decoder; it may only error (or, in
    /// the astronomically unlikely case of a valid frame, decode).
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_request(&bytes);
        let _ = decode_reply(&bytes);
    }

    /// `Stats` and `Health` are two wire views of the same tenant
    /// counters. The degradation counters both carry — `expired` in
    /// particular, plus `shed`/`rejected`/`panics` — must survive both
    /// frames' round trips with identical values, or an operator reading
    /// `Stats` and a load balancer polling `Health` would disagree about
    /// the same server.
    #[test]
    fn stats_and_health_carry_the_same_degradation_counters(
        name in name_strategy(),
        stats in stats_strategy(),
        pending in any::<u32>(),
    ) {
        let mut sbuf = Vec::new();
        encode_reply_v3(1, &Reply::Stats { model: name.clone(), stats: stats.clone() }, &mut sbuf);
        let mut hbuf = Vec::new();
        encode_reply_v3(
            2,
            &Reply::Health(HealthInfo {
                models: 1,
                tenants: vec![TenantHealth {
                    name,
                    pending,
                    shed: stats.shed,
                    rejected: stats.rejected,
                    expired: stats.expired,
                    panics: stats.panics,
                }],
            }),
            &mut hbuf,
        );
        let s = match decode_reply(&sbuf).expect("stats frame decodes") {
            Reply::Stats { stats, .. } => stats,
            other => return Err(TestCaseError::Fail(format!("expected Stats, got {other:?}"))),
        };
        let h = match decode_reply(&hbuf).expect("health frame decodes") {
            Reply::Health(mut info) => info.tenants.pop().expect("one tenant"),
            other => return Err(TestCaseError::Fail(format!("expected Health, got {other:?}"))),
        };
        prop_assert_eq!(
            (s.expired, s.shed, s.rejected, s.panics),
            (h.expired, h.shed, h.rejected, h.panics)
        );
    }
}

fn valid_frame(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_request_v3(0, req, &mut buf);
    buf
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let mut buf = valid_frame(&Request::Ping);
    buf[4..8].copy_from_slice(&((MAX_PAYLOAD + 1) as u32).to_le_bytes());
    match decode_request(&buf) {
        Err(WireError::Oversized { len, max }) => {
            assert_eq!(len, MAX_PAYLOAD + 1);
            assert_eq!(max, MAX_PAYLOAD);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
    // The streaming reader hits the same check from just the header —
    // before any payload allocation could happen.
    let mut reader = &buf[..];
    let mut scratch = Vec::new();
    assert!(matches!(
        frame::read_frame(&mut reader, &mut scratch),
        Err(WireError::Oversized { .. })
    ));
}

#[test]
fn unknown_opcodes_are_rejected() {
    for op in [0x00u8, 0x08, 0x42, 0x80, 0x90, 0xFE] {
        let mut buf = valid_frame(&Request::Ping);
        buf[2] = op;
        assert!(
            matches!(decode_request(&buf), Err(WireError::UnknownOpcode(o)) if o == op),
            "opcode {op:#04x} must be rejected"
        );
    }
    // Reply opcodes are not request opcodes and vice versa.
    let mut reply_frame = Vec::new();
    encode_reply_v3(0, &Reply::Pong, &mut reply_frame);
    assert!(matches!(
        decode_request(&reply_frame),
        Err(WireError::UnknownOpcode(_))
    ));
}

#[test]
fn version_and_magic_mismatches_are_rejected() {
    // Every version byte but this build's is rejected, the older
    // id-less version 2 included.
    for version in (0..=u8::MAX).filter(|&v| v != VERSION) {
        let mut buf = valid_frame(&Request::Ping);
        buf[1] = version;
        assert!(matches!(
            decode_request(&buf),
            Err(WireError::BadVersion { got, want }) if got == version && want == VERSION
        ));
        let mut asm = frame::FrameAssembler::new();
        asm.push(&buf);
        assert!(matches!(
            asm.next_frame(),
            Err(WireError::BadVersion { .. })
        ));
    }
    let mut buf = valid_frame(&Request::Ping);
    buf[0] = MAGIC.wrapping_add(1);
    assert!(matches!(decode_request(&buf), Err(WireError::BadMagic(_))));
    let mut buf = valid_frame(&Request::Ping);
    buf[3] = 7; // reserved byte
    assert!(matches!(decode_request(&buf), Err(WireError::Malformed(_))));
}

#[test]
fn trailing_bytes_inside_the_payload_are_rejected() {
    // A Stats frame whose payload holds the name plus one stray byte,
    // with a length prefix that covers it: structurally wrong.
    let mut buf = valid_frame(&Request::Stats {
        model: "m".to_string(),
    });
    buf.push(0xAB);
    let len = (buf.len() - HEADER_LEN) as u32;
    buf[4..8].copy_from_slice(&len.to_le_bytes());
    assert!(matches!(decode_request(&buf), Err(WireError::Malformed(_))));
}

#[test]
fn inconsistent_f32_count_is_rejected() {
    // An Infer frame whose declared f32 count exceeds the payload.
    let mut buf = valid_frame(&Request::Infer {
        model: "m".to_string(),
        deadline_micros: 0,
        input: vec![1.0, 2.0],
    });
    // The count field sits right after the id (8 bytes), the name (2+1
    // bytes) and the deadline (8 bytes) in the payload.
    let count_at = HEADER_LEN + 8 + 3 + 8;
    buf[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(decode_request(&buf), Err(WireError::Malformed(_))));
}

#[test]
fn string_length_prefix_exceeding_payload_is_rejected() {
    // Strings ride a u16 length prefix; a prefix promising more bytes
    // than the payload holds (a frame cut mid-string, or a hostile
    // client) must be a typed Malformed error, never a panic or an
    // out-of-bounds read.
    let mut buf = valid_frame(&Request::Stats {
        model: "model".to_string(),
    });
    // The name length prefix is the first field after the id.
    let name_len_at = HEADER_LEN + 8;
    buf[name_len_at..name_len_at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
    assert!(matches!(decode_request(&buf), Err(WireError::Malformed(_))));

    // Same for replies: a Health frame whose tenant name is cut short.
    let mut buf = Vec::new();
    encode_reply_v3(
        0,
        &Reply::Health(HealthInfo {
            models: 1,
            tenants: vec![TenantHealth {
                name: "tenant".to_string(),
                pending: 3,
                shed: 1,
                rejected: 2,
                expired: 4,
                panics: 5,
            }],
        }),
        &mut buf,
    );
    // id(8) + models(4) + count(4) in the payload, then the name length
    // prefix.
    let name_len_at = HEADER_LEN + 16;
    buf[name_len_at..name_len_at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
    assert!(matches!(decode_reply(&buf), Err(WireError::Malformed(_))));
}

#[test]
fn health_tenant_count_exceeding_payload_is_rejected() {
    // A Health reply claiming more tenants than its payload can hold is
    // rejected before any per-tenant allocation.
    let mut buf = Vec::new();
    encode_reply_v3(0, &Reply::Health(HealthInfo::default()), &mut buf);
    // id(8) + models(4), then the tenant count.
    let count_at = HEADER_LEN + 12;
    buf[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(decode_reply(&buf), Err(WireError::Malformed(_))));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Truncating a reply frame at any byte boundary — including inside a
    /// string field — yields a typed error, never a panic.
    #[test]
    fn truncated_replies_are_rejected(
        reply in reply_strategy(),
        id in any::<u64>(),
        frac in 0.0f64..1.0,
    ) {
        let mut buf = Vec::new();
        encode_reply_v3(id, &reply, &mut buf);
        let cut = ((buf.len() as f64 * frac) as usize).min(buf.len().saturating_sub(1));
        prop_assert!(
            decode_reply(&buf[..cut]).is_err(),
            "decoding a {cut}-byte prefix of a {}-byte reply must fail",
            buf.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Incremental decode: a frame split at EVERY byte boundary — one
    /// byte at a time through the assembler — yields exactly the original
    /// frame, and never a partial one early.
    #[test]
    fn assembler_decodes_split_at_every_byte(req in request_strategy(), id in any::<u64>()) {
        let mut buf = Vec::new();
        encode_request_v3(id, &req, &mut buf);
        let mut asm = frame::FrameAssembler::new();
        for (i, &byte) in buf.iter().enumerate() {
            asm.push(&[byte]);
            let done = asm.next_frame().expect("a valid frame prefix never errors");
            if i + 1 < buf.len() {
                prop_assert!(done.is_none(), "no frame may surface at byte {i} of {}", buf.len());
            } else {
                let whole = done.expect("the last byte completes the frame");
                prop_assert_eq!(whole, &buf[..]);
            }
        }
        prop_assert_eq!(asm.pending(), 0);
    }

    /// Incremental decode across arbitrary chunk boundaries: several
    /// frames concatenated and re-chunked randomly come out whole, in
    /// order, regardless of where the cuts land.
    #[test]
    fn assembler_reassembles_random_chunking(
        reqs in prop::collection::vec((request_strategy(), any::<u64>()), 1..5),
        cuts in prop::collection::vec(1usize..64, 1..64),
    ) {
        let mut stream = Vec::new();
        let mut frames = Vec::new();
        for (req, id) in &reqs {
            let mut buf = Vec::new();
            frame::encode_request_v3(*id, req, &mut buf);
            stream.extend_from_slice(&buf);
            frames.push(buf);
        }
        let mut asm = frame::FrameAssembler::new();
        let mut decoded = Vec::new();
        let mut offset = 0;
        let mut cut = cuts.iter().cycle();
        while offset < stream.len() {
            let take = (*cut.next().unwrap()).min(stream.len() - offset);
            asm.push(&stream[offset..offset + take]);
            offset += take;
            while let Some(whole) = asm.next_frame().expect("valid stream") {
                decoded.push(frame::decode_request_tagged(whole).expect("decodes"));
            }
        }
        prop_assert_eq!(asm.pending(), 0, "nothing may linger after the last frame");
        let expected: Vec<_> = reqs.iter().map(|(req, id)| (Some(*id), req.clone())).collect();
        prop_assert_eq!(decoded, expected);
    }

    /// Random garbage through the assembler: a typed error or patient
    /// buffering, never a panic — the event loop feeds it exactly this.
    #[test]
    fn assembler_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut asm = frame::FrameAssembler::new();
        asm.push(&bytes);
        // Pump until the assembler errors or runs dry; a hostile stream
        // may also yield decodable headers whose payloads then fail — the
        // frame decoder must absorb those too without panicking.
        loop {
            match asm.next_frame() {
                Ok(Some(whole)) => {
                    let _ = frame::decode_request_tagged(whole);
                }
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }
}

#[test]
fn frames_reject_payloads_shorter_than_the_id() {
    // Every frame promises eight id bytes; a shorter payload is
    // malformed, not a partial id.
    for short in 0..8usize {
        let mut buf = vec![MAGIC, VERSION, 0x01 /* PING */, 0];
        buf.extend_from_slice(&(short as u32).to_le_bytes());
        buf.extend_from_slice(&vec![0u8; short]);
        assert!(
            frame::decode_request_tagged(&buf).is_err(),
            "a {short}-byte payload cannot carry the id"
        );
    }
}

/// The reserved id marks only an `Error` as answering no request: any
/// other reply under it (the repo benchmark's load generator pings with
/// `u64::MAX`) and any request under it keep their id.
#[test]
fn the_reserved_id_marks_only_an_error_as_answering_no_request() {
    let mut buf = Vec::new();
    let verdict = Reply::Error {
        code: ErrorCode::Malformed,
        message: "bad magic".to_string(),
    };
    encode_reply_v3(NO_REQUEST, &verdict, &mut buf);
    assert_eq!(decode_reply_tagged(&buf).unwrap(), (None, verdict));
    encode_reply_v3(NO_REQUEST, &Reply::Pong, &mut buf);
    assert_eq!(
        decode_reply_tagged(&buf).unwrap(),
        (Some(NO_REQUEST), Reply::Pong)
    );
    encode_request_v3(NO_REQUEST, &Request::Ping, &mut buf);
    assert_eq!(
        decode_request_tagged(&buf).unwrap(),
        (Some(NO_REQUEST), Request::Ping)
    );
}

#[test]
fn truncated_stream_reads_surface_as_io_errors() {
    let buf = valid_frame(&Request::Infer {
        model: "m".to_string(),
        deadline_micros: 5,
        input: vec![1.0; 16],
    });
    // Cut the stream mid-payload: read_frame must report Io (EOF), not
    // hang or panic.
    let mut short = &buf[..buf.len() - 7];
    let mut scratch = Vec::new();
    assert!(matches!(
        frame::read_frame(&mut short, &mut scratch),
        Err(WireError::Io(_))
    ));
    // And mid-header.
    let mut tiny = &buf[..3];
    assert!(matches!(
        frame::read_frame(&mut tiny, &mut scratch),
        Err(WireError::Io(_))
    ));
}

#[test]
fn overlong_strings_encode_to_valid_truncated_frames() {
    // Strings ride a u16 length prefix; an over-long server message (e.g.
    // an error echoing hostile client input) must truncate on a char
    // boundary rather than corrupt the frame.
    let message = "é".repeat(40_000); // 80 000 bytes of two-byte chars
    let mut buf = Vec::new();
    encode_reply_v3(
        0,
        &Reply::Error {
            code: ErrorCode::Internal,
            message,
        },
        &mut buf,
    );
    match decode_reply(&buf).expect("truncated frame must stay valid") {
        Reply::Error { message, .. } => {
            assert!(message.len() <= u16::MAX as usize);
            assert!(!message.is_empty());
            assert!(message.chars().all(|c| c == 'é'), "clean char boundary");
        }
        other => panic!("expected Error, got {other:?}"),
    }
}

/// One shared live server for the payload-length property below: a
/// recurrent model whose registered input shape is `[T=5, D=3]` (15 flat
/// values per request). Built once; the server is leaked so it outlives
/// every proptest case in the process.
fn shape_server_addr() -> std::net::SocketAddr {
    use std::sync::OnceLock;
    static ADDR: OnceLock<std::net::SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        use circnn_core::{CirculantRnn, CirculantRnnCell, RnnReadout};
        let mut rng = circnn_tensor::init::seeded_rng(31);
        let cell = CirculantRnnCell::new(&mut rng, 3, 8, 4, 0.9).unwrap();
        let net = circnn_nn::Sequential::new().add(CirculantRnn::new(cell, RnnReadout::FinalState));
        let registry = std::sync::Arc::new(circnn_wire::ModelRegistry::new(1).unwrap());
        registry
            .add_network("seq", net, &[5, 3], circnn_serve::TenantConfig::default())
            .unwrap();
        let server = circnn_wire::EventServer::bind(
            "127.0.0.1:0",
            std::sync::Arc::clone(&registry),
            circnn_wire::EventConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr();
        // Keep the event loops (and the registry the server holds) alive
        // for the rest of the test process.
        std::mem::forget(server);
        std::mem::forget(registry);
        addr
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Infer` frames whose payload length is inconsistent with the
    /// registered model's input shape are rejected with the typed
    /// `BadInput` error **at the wire layer** — never a worker-side panic,
    /// never a dropped connection — and the connection stays usable for a
    /// correctly-sized request afterwards.
    #[test]
    fn inconsistent_infer_payload_is_a_typed_wire_error(len in 0usize..64, seed in any::<u64>()) {
        let addr = shape_server_addr();
        let mut wire = circnn_wire::WireClient::connect(addr).expect("connect");
        let payload: Vec<f32> = (0..len).map(|i| ((i as u64 ^ seed) % 97) as f32 * 0.01).collect();
        match wire.infer("seq", &payload) {
            Ok(out) => {
                prop_assert_eq!(len, 15, "only exact-shape payloads may succeed");
                prop_assert_eq!(out.len(), 8);
            }
            Err(WireError::Remote { code, .. }) => {
                prop_assert!(len != 15, "exact-shape payloads must not error");
                prop_assert_eq!(code, ErrorCode::BadInput);
            }
            Err(other) => prop_assert!(false, "unexpected error: {:?}", other),
        }
        // The same connection still serves a well-formed sequence.
        let ok = wire.infer("seq", &[0.25; 15]).expect("connection survived");
        prop_assert_eq!(ok.len(), 8);
    }
}
