//! The trace envelope: a traced and an untraced request both round-trip
//! around any bare request, an untraced envelope adds no bytes, and
//! hostile bodies (truncated, zero ids, repeated tags, garbage) are typed
//! errors — never panics, never a misparse, never a recursion.
//!
//! The vendored `proptest` has no combinator strategies, so shaped values
//! are built from a seeded `StdRng`.

use std::io;

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

use pbrs_obs::trace::TraceCtx;
use pbrs_wire::{encode_envelope, split_envelope, OP_ENV_TRACE};

/// Both envelopes, with fixed nonzero ids for the traced one.
fn every_envelope() -> [Option<TraceCtx>; 2] {
    [None, TraceCtx::from_raw(0x1234, 0x5678)]
}

fn random_envelope(rng: &mut StdRng) -> Option<TraceCtx> {
    rng.random_bool(0.5).then(|| {
        TraceCtx::from_raw(rng.random_range(1..u64::MAX), rng.random_range(1..u64::MAX)).unwrap()
    })
}

/// A stand-in bare request: an opcode that is no envelope tag, then any
/// bytes.
fn random_request(rng: &mut StdRng) -> Vec<u8> {
    let opcode = loop {
        let op: u8 = rng.random();
        if op != OP_ENV_TRACE {
            break op;
        }
    };
    let len = rng.random_range(0..64usize);
    std::iter::once(opcode)
        .chain((0..len).map(|_| rng.random::<u8>()))
        .collect()
}

fn enveloped(trace: Option<TraceCtx>, request: &[u8]) -> Vec<u8> {
    let mut body = Vec::new();
    encode_envelope(trace, &mut body);
    body.extend_from_slice(request);
    body
}

/// Splits `body`: never panics, every refusal is `InvalidData`, and an
/// accepted body re-encodes to exactly its bytes. Returns the split.
fn split_checked(body: &[u8]) -> Option<(Option<TraceCtx>, &[u8])> {
    match split_envelope(body) {
        Ok((trace, request)) => {
            assert_eq!(enveloped(trace, request), body, "{trace:?}");
            assert_ne!(request[0], OP_ENV_TRACE);
            Some((trace, request))
        }
        Err(e) => {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{body:?}");
            None
        }
    }
}

#[test]
fn enveloped_requests_round_trip_traced_and_untraced() {
    let request = [0x04, b'o', b'b', b'j'];
    for trace in every_envelope() {
        let body = enveloped(trace, &request);
        assert_eq!(
            split_envelope(&body).unwrap(),
            (trace, &request[..]),
            "{trace:?}"
        );
    }
}

#[test]
fn truncated_envelopes_are_typed_errors() {
    let request = [0x04, b'o', b'b', b'j'];
    for trace in every_envelope() {
        let body = enveloped(trace, &request);
        let envelope_len = body.len() - request.len();
        for len in 0..body.len() {
            match split_checked(&body[..len]) {
                // Cut inside the request: the envelope is whole.
                Some((got, rest)) => {
                    assert!(len > envelope_len, "{trace:?} cut at {len}");
                    assert_eq!((got, rest), (trace, &request[..len - envelope_len]));
                }
                // Cut inside the envelope, or right after it.
                None => assert!(len <= envelope_len, "{trace:?} cut at {len}"),
            }
        }
    }
}

#[test]
fn garbage_envelope_bodies_never_panic() {
    let mut accepted = 0usize;
    for trace in every_envelope() {
        let body = enveloped(trace, &[0x04, b'x']);
        // One byte too many, and every value at every position.
        accepted += usize::from(split_checked(&[&body[..], &[0]].concat()).is_some());
        for at in 0..body.len() {
            for value in 0..=u8::MAX {
                let mut mutated = body.clone();
                mutated[at] = value;
                accepted += usize::from(split_checked(&mutated).is_some());
            }
        }
    }
    assert!(accepted > 0);
}

#[test]
fn zero_trace_or_span_ids_are_refused() {
    for (trace, span) in [(0u64, 1u64), (1, 0), (0, 0)] {
        let mut body = vec![OP_ENV_TRACE];
        body.extend_from_slice(&trace.to_le_bytes());
        body.extend_from_slice(&span.to_le_bytes());
        body.push(0x04);
        let err = split_envelope(&body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{trace} {span}");
    }
}

#[test]
fn repeated_or_misplaced_tags_are_refused() {
    let trace = enveloped(TraceCtx::from_raw(1, 2), &[]);
    let request = [0x04u8, b'x'];
    for body in [
        [&trace[..], &trace, &request].concat(),
        [&trace[..], &trace, &trace, &request].concat(),
    ] {
        assert!(split_checked(&body).is_none(), "{body:?}");
    }
}

#[test]
fn a_mebibyte_of_tag_openers_is_refused() {
    // One recursion (or loop turn) per tag would walk the whole mebibyte;
    // split reads one tag at most and refuses the second.
    let opener = [
        &[OP_ENV_TRACE][..],
        &1u64.to_le_bytes(),
        &1u64.to_le_bytes(),
    ]
    .concat();
    let body = opener.repeat((1 << 20) / opener.len());
    assert!(split_checked(&body).is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any envelope round-trips around any bare request.
    #[test]
    fn random_envelopes_round_trip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let trace = random_envelope(&mut rng);
            let request = random_request(&mut rng);
            let body = enveloped(trace, &request);
            prop_assert_eq!(split_envelope(&body).unwrap(), (trace, &request[..]));
        }
    }

    /// An untraced envelope adds no bytes: a request sent without a trace
    /// is exactly its bare encoding, and splits back unchanged.
    #[test]
    fn traceless_encoding_is_byte_identical_to_legacy(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let request = random_request(&mut rng);
            prop_assert_eq!(&enveloped(None, &request), &request);
            prop_assert_eq!(split_envelope(&request).unwrap(), (None, &request[..]));
        }
    }

    /// Random bytes after the tag never panic the split.
    #[test]
    fn random_bytes_after_a_tag_never_panic(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..16 {
            let len = rng.random_range(0..64usize);
            let body: Vec<u8> = std::iter::once(OP_ENV_TRACE)
                .chain((0..len).map(|_| rng.random::<u8>()))
                .collect();
            split_checked(&body);
        }
    }
}
