//! Property tests of the gateway frame layer: arbitrary partial-read /
//! short-write splits must never corrupt or reorder frames, and hostile
//! input (truncated, oversized, garbage) must produce typed errors —
//! never panics, never silent misparses.
//!
//! The vendored `proptest` has no combinator strategies, so shaped values
//! (requests, responses, frame sequences) are built from a seeded
//! [`StdRng`], the same idiom as the erasure property tests.

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

use pbrs_gateway::protocol::{FrameDecoder, Request, Response};
use pbrs_obs::trace::TraceCtx;
use pbrs_wire::{encode_envelope, split_envelope, write_frame, FRAME_OVERHEAD, MAX_FRAME};

fn random_name(rng: &mut StdRng) -> String {
    let len = rng.random_range(1..64usize);
    (0..len)
        .map(|_| char::from(b'a' + (rng.random_range(0..26u8))))
        .collect()
}

fn random_bytes(rng: &mut StdRng, max: usize) -> Vec<u8> {
    let len = rng.random_range(0..max);
    (0..len).map(|_| rng.random()).collect()
}

/// Any request shape.
fn random_plain_request(rng: &mut StdRng) -> Request {
    match rng.random_range(0..9u8) {
        0 => Request::PutStart {
            name: random_name(rng),
        },
        1 => Request::PutData {
            data: random_bytes(rng, 2048),
        },
        2 => Request::PutEnd,
        3 => Request::Get {
            name: random_name(rng),
        },
        4 => Request::Delete {
            name: random_name(rng),
        },
        5 => Request::Stat {
            name: random_name(rng),
        },
        6 => Request::Prometheus,
        7 => Request::Traces,
        _ => Request::Metrics,
    }
}

fn random_ctx(rng: &mut StdRng) -> TraceCtx {
    TraceCtx::from_raw(rng.random_range(1..u64::MAX), rng.random_range(1..u64::MAX)).unwrap()
}

fn random_response(rng: &mut StdRng) -> Response {
    match rng.random_range(0..11u8) {
        0 => Response::Created {
            len: rng.random(),
            stripes: rng.random(),
        },
        1 => Response::ObjectHeader {
            len: rng.random(),
            stripes: rng.random(),
        },
        2 => Response::Data {
            data: random_bytes(rng, 2048),
        },
        3 => Response::ObjectEnd {
            degraded_stripes: rng.random(),
        },
        4 => Response::Stat {
            len: rng.random(),
            stripes: rng.random(),
        },
        5 => Response::Metrics {
            json: random_name(rng),
        },
        6 => Response::DeletedOk { len: rng.random() },
        7 => Response::NotFound,
        8 => Response::Deleted,
        9 => Response::Busy,
        _ => Response::Err {
            message: random_name(rng),
        },
    }
}

/// The frame body of `request` behind an envelope carrying `ctx`.
fn traced(ctx: TraceCtx, request: &Request) -> Vec<u8> {
    let mut body = Vec::new();
    encode_envelope(Some(ctx), &mut body);
    body.extend_from_slice(&request.encode());
    body
}

/// One of every request shape with its frame body, bare and behind a
/// trace envelope.
fn every_request() -> Vec<(Request, Vec<u8>)> {
    let plain = [
        Request::PutStart { name: "obj".into() },
        Request::PutData {
            data: vec![1, 2, 3, 4],
        },
        Request::PutData { data: Vec::new() },
        Request::PutEnd,
        Request::Get { name: "g".into() },
        Request::Delete { name: "d".into() },
        Request::Stat { name: "st".into() },
        Request::Metrics,
        Request::Prometheus,
        Request::Traces,
    ];
    let ctx = TraceCtx::from_raw(0x1234, 0x5678).unwrap();
    plain
        .into_iter()
        .flat_map(|request| {
            let body = traced(ctx, &request);
            [(request.clone(), request.encode()), (request, body)]
        })
        .collect()
}

/// One of every response shape.
fn every_response() -> Vec<Response> {
    vec![
        Response::Created { len: 5, stripes: 1 },
        Response::ObjectHeader { len: 9, stripes: 2 },
        Response::Data {
            data: vec![7, 6, 5, 4],
        },
        Response::Data { data: Vec::new() },
        Response::ObjectEnd {
            degraded_stripes: 2,
        },
        Response::Stat { len: 3, stripes: 1 },
        Response::Metrics { json: "{}".into() },
        Response::Prometheus {
            text: "x 1\n".into(),
        },
        Response::Traces {
            json: "[]".into(),
            chrome: "{}".into(),
        },
        Response::DeletedOk { len: 3 },
        Response::NotFound,
        Response::Deleted,
        Response::Busy,
        Response::Err {
            message: "no".into(),
        },
    ]
}

/// Every truncation of `bytes`, `bytes` with one byte too many, and
/// `bytes` with each position set to each value.
fn mutants(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|len| bytes[..len].to_vec()).collect();
    out.push([bytes, &[0]].concat());
    for at in 0..bytes.len() {
        for value in 0..=u8::MAX {
            let mut mutated = bytes.to_vec();
            mutated[at] = value;
            out.push(mutated);
        }
    }
    out
}

/// Feeds `wire` to a fresh [`FrameDecoder`] and hands every frame that
/// falls out to `check`; stops at "need more" or a poisoned stream.
fn through_frame_decoder(wire: &[u8], mut check: impl FnMut(&[u8])) {
    let mut decoder = FrameDecoder::new();
    decoder.feed(wire);
    while let Ok(Some((_, body))) = decoder.next_frame() {
        check(&body);
    }
}

/// Whether `tail` is the tail of `body`, not just equal to one.
fn is_tail_of(tail: &[u8], body: &[u8]) -> bool {
    tail.as_ptr_range().end == body.as_ptr_range().end
}

/// Splits the envelope off `body` as the reactor does, then decodes the
/// rest with `decode_lending`: the lent payload is the body's tail, and
/// the envelope and the request with that payload filled in re-encode to
/// `body`. Returns the filled-in request.
fn request_reencodes(body: &[u8]) -> Option<Request> {
    let (trace, bare) = split_envelope(body).ok()?;
    let (mut filled, payload) = Request::decode_lending(bare).ok()?;
    assert!(is_tail_of(payload, body), "the payload is the body's tail");
    match &mut filled {
        Request::PutData { data } => {
            assert!(data.is_empty(), "a lent payload stays in the body");
            *data = payload.to_vec();
        }
        op => assert!(payload.is_empty(), "only PUT_DATA lends: {op:?}"),
    }
    let mut wire = Vec::new();
    encode_envelope(trace, &mut wire);
    wire.extend_from_slice(&filled.encode());
    assert_eq!(wire, body, "an accepted body re-encodes exactly");
    Some(filled)
}

/// [`request_reencodes`] for responses, checking `Response::decode`
/// against lend-then-fill too: both accept a body or both refuse it. An `Err` message is decoded lossily,
/// so only the other statuses must re-encode exactly.
fn responses_agree(body: &[u8]) -> Option<Response> {
    let (decoded, lent) = (Response::decode(body), Response::decode_lending(body));
    assert_eq!(decoded.is_ok(), lent.is_ok(), "{body:?}");
    let (decoded, (mut filled, payload)) = (decoded.ok()?, lent.unwrap());
    assert!(is_tail_of(payload, body), "the payload is the body's tail");
    match &mut filled {
        Response::Data { data } => {
            assert!(data.is_empty(), "a lent payload stays in the body");
            *data = payload.to_vec();
        }
        other => assert!(payload.is_empty(), "only Data lends: {other:?}"),
    }
    assert_eq!(filled, decoded);
    if !matches!(decoded, Response::Err { .. }) {
        assert_eq!(
            decoded.encode(),
            body,
            "an accepted body re-encodes exactly"
        );
    }
    Some(decoded)
}

#[test]
fn request_decoders_are_total_and_agree_under_mutation() {
    let mut accepted = 0usize;
    for (request, body) in every_request() {
        assert_eq!(request_reencodes(&body), Some(request));
        for mutated in mutants(&body) {
            accepted += usize::from(request_reencodes(&mutated).is_some());
        }
        let mut wire = Vec::new();
        write_frame(&mut wire, 9, &body).unwrap();
        for mutated in mutants(&wire) {
            through_frame_decoder(&mutated, |body| {
                request_reencodes(body);
            });
        }
    }
    // Name and payload bytes are free, so many mutants still parse.
    assert!(accepted > 0);
}

#[test]
fn response_decoders_are_total_and_agree_under_mutation() {
    let mut accepted = 0usize;
    for response in every_response() {
        let body = response.encode();
        assert_eq!(responses_agree(&body), Some(response));
        for mutated in mutants(&body) {
            accepted += usize::from(responses_agree(&mutated).is_some());
        }
        let mut wire = Vec::new();
        write_frame(&mut wire, 9, &body).unwrap();
        for mutated in mutants(&wire) {
            through_frame_decoder(&mutated, |body| {
                responses_agree(body);
            });
        }
    }
    assert!(accepted > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode → decode is the identity for every request shape.
    #[test]
    fn requests_round_trip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let req = random_plain_request(&mut rng);
            prop_assert_eq!(request_reencodes(&req.encode()), Some(req));
        }
    }

    /// encode → decode is the identity for every response shape.
    #[test]
    fn responses_round_trip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let resp = random_response(&mut rng);
            prop_assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    /// A frame sequence fed to the decoder in arbitrary-sized pieces
    /// (modelling both partial reads and short writes) comes out intact,
    /// in order, with ids attached to the right bodies.
    #[test]
    fn arbitrary_splits_preserve_frames(
        seed in any::<u64>(),
        frame_count in 1usize..8,
        max_cut in 1usize..64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frames: Vec<(u64, Vec<u8>)> = (0..frame_count)
            .map(|_| (rng.random(), random_bytes(&mut rng, 512)))
            .collect();
        let mut wire = Vec::new();
        for (id, body) in &frames {
            write_frame(&mut wire, *id, body).unwrap();
        }
        // Split the wire at random widths in [1, max_cut].
        let mut decoder = FrameDecoder::new();
        let mut out = Vec::new();
        let mut offset = 0;
        while offset < wire.len() {
            let width = rng.random_range(1..=max_cut);
            let end = (offset + width).min(wire.len());
            decoder.feed(&wire[offset..end]);
            offset = end;
            while let Some(frame) = decoder.next_frame().unwrap() {
                out.push(frame);
            }
        }
        prop_assert_eq!(out, frames);
        prop_assert_eq!(decoder.pending(), 0);
    }

    /// A truncated tail never yields a bogus frame: the decoder just
    /// holds the partial bytes, and the remainder completes it.
    #[test]
    fn truncated_frames_are_held_not_invented(
        seed in any::<u64>(),
        keep_fraction in 0usize..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let id: u64 = rng.random();
        let mut body = random_bytes(&mut rng, 255);
        body.push(rng.random()); // never empty
        let mut wire = Vec::new();
        write_frame(&mut wire, id, &body).unwrap();
        let keep = (wire.len() - 1) * keep_fraction / 100; // always short
        let mut decoder = FrameDecoder::new();
        decoder.feed(&wire[..keep]);
        prop_assert_eq!(decoder.next_frame().unwrap(), None);
        prop_assert_eq!(decoder.pending(), keep);
        decoder.feed(&wire[keep..]);
        prop_assert_eq!(decoder.next_frame().unwrap(), Some((id, body)));
    }

    /// Garbage bytes never panic the decoder: every outcome is a frame,
    /// "need more", or a typed oversize error.
    #[test]
    fn garbage_never_panics_the_decoder(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes = random_bytes(&mut rng, 512);
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        // Drain until quiescent or error; must terminate and never panic.
        for _ in 0..=bytes.len() / FRAME_OVERHEAD + 1 {
            match decoder.next_frame() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(_) => break, // oversize prefix: connection poisoned
            }
        }
    }

    /// Garbage *bodies* (framed correctly) never panic the typed
    /// decoders.
    #[test]
    fn garbage_bodies_decode_to_errors_not_panics(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..16 {
            let body = random_bytes(&mut rng, 128);
            let _ = Request::decode_lending(&body);
            let _ = Response::decode(&body);
        }
    }

    /// Oversized length prefixes are rejected regardless of the claimed
    /// id or the bytes that follow.
    #[test]
    fn oversized_length_is_always_rejected(
        seed in any::<u64>(),
        excess in 1u64..1 << 20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = (MAX_FRAME as u64 + excess).min(u64::from(u32::MAX)) as u32;
        let mut wire = len.to_le_bytes().to_vec();
        wire.extend_from_slice(&rng.random::<u64>().to_le_bytes());
        wire.extend_from_slice(&random_bytes(&mut rng, 64));
        let mut decoder = FrameDecoder::new();
        decoder.feed(&wire);
        prop_assert!(decoder.next_frame().is_err());
    }

    /// A trace envelope round-trips around every request shape: split
    /// gives back the context and the bare request, which decodes as if
    /// it had been sent bare.
    #[test]
    fn traced_requests_round_trip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let (ctx, req) = (random_ctx(&mut rng), random_plain_request(&mut rng));
            let body = traced(ctx, &req);
            let (trace, bare) = split_envelope(&body).unwrap();
            prop_assert_eq!(trace, Some(ctx));
            prop_assert_eq!(request_reencodes(bare), Some(req));
        }
    }

    /// An untraced request's bytes are exactly its bare encoding: the
    /// envelope adds bytes only when used.
    #[test]
    fn traceless_encoding_is_byte_identical_to_legacy(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let req = random_plain_request(&mut rng);
            let bytes = req.encode();
            prop_assert_eq!(split_envelope(&bytes).unwrap(), (None, &bytes[..]));
            prop_assert_eq!(request_reencodes(&bytes), Some(req));
        }
    }
}
