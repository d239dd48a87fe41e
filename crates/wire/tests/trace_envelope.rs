//! The trace/deadline envelope: all four combinations round-trip around
//! any bare request, an empty envelope adds no bytes, and hostile bodies
//! (truncated, zero ids, repeated or misplaced tags, garbage) are typed
//! errors — never panics, never a misparse, never a recursion.
//!
//! The vendored `proptest` has no combinator strategies, so shaped values
//! are built from a seeded `StdRng`.

use std::io;

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

use pbrs_obs::trace::TraceCtx;
use pbrs_wire::{Envelope, OP_ENV_DEADLINE, OP_ENV_TRACE};

/// The four envelope combinations, with fixed nonzero values.
fn every_envelope() -> [Envelope; 4] {
    let trace = TraceCtx::from_raw(0x1234, 0x5678);
    [
        Envelope::default(),
        Envelope {
            trace,
            deadline_ms: None,
        },
        Envelope {
            trace: None,
            deadline_ms: Some(250),
        },
        Envelope {
            trace,
            deadline_ms: Some(250),
        },
    ]
}

fn random_envelope(rng: &mut StdRng) -> Envelope {
    Envelope {
        trace: rng.random_bool(0.5).then(|| {
            TraceCtx::from_raw(rng.random_range(1..u64::MAX), rng.random_range(1..u64::MAX))
                .unwrap()
        }),
        deadline_ms: rng.random_bool(0.5).then(|| rng.random()),
    }
}

/// A stand-in bare request: an opcode that is no envelope tag, then any
/// bytes.
fn random_request(rng: &mut StdRng) -> Vec<u8> {
    let opcode = loop {
        let op: u8 = rng.random();
        if op != OP_ENV_TRACE && op != OP_ENV_DEADLINE {
            break op;
        }
    };
    let len = rng.random_range(0..64usize);
    std::iter::once(opcode)
        .chain((0..len).map(|_| rng.random::<u8>()))
        .collect()
}

fn enveloped(envelope: &Envelope, request: &[u8]) -> Vec<u8> {
    let mut body = Vec::new();
    envelope.encode_into(&mut body);
    body.extend_from_slice(request);
    body
}

/// Splits `body`: never panics, every refusal is `InvalidData`, and an
/// accepted body re-encodes to exactly its bytes. Returns the split.
fn split_checked(body: &[u8]) -> Option<(Envelope, &[u8])> {
    match Envelope::split(body) {
        Ok((envelope, request)) => {
            assert_eq!(enveloped(&envelope, request), body, "{envelope:?}");
            assert!(request[0] != OP_ENV_TRACE && request[0] != OP_ENV_DEADLINE);
            Some((envelope, request))
        }
        Err(e) => {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{body:?}");
            None
        }
    }
}

#[test]
fn enveloped_requests_round_trip_in_all_four_combinations() {
    let request = [0x04, b'o', b'b', b'j'];
    for envelope in every_envelope() {
        let body = enveloped(&envelope, &request);
        assert_eq!(
            Envelope::split(&body).unwrap(),
            (envelope, &request[..]),
            "{envelope:?}"
        );
    }
}

#[test]
fn truncated_envelopes_are_typed_errors() {
    let request = [0x04, b'o', b'b', b'j'];
    for envelope in every_envelope() {
        let body = enveloped(&envelope, &request);
        let envelope_len = body.len() - request.len();
        for len in 0..body.len() {
            match split_checked(&body[..len]) {
                // Cut inside the request: the envelope is whole.
                Some((got, rest)) => {
                    assert!(len > envelope_len, "{envelope:?} cut at {len}");
                    assert_eq!((got, rest), (envelope, &request[..len - envelope_len]));
                }
                // Cut inside the envelope, or right after it.
                None => assert!(len <= envelope_len, "{envelope:?} cut at {len}"),
            }
        }
    }
}

#[test]
fn garbage_envelope_bodies_never_panic() {
    let mut accepted = 0usize;
    for envelope in every_envelope() {
        let body = enveloped(&envelope, &[0x04, b'x']);
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
        let err = Envelope::split(&body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{trace} {span}");
    }
}

#[test]
fn repeated_or_misplaced_tags_are_refused() {
    let trace = enveloped(
        &Envelope {
            trace: TraceCtx::from_raw(1, 2),
            deadline_ms: None,
        },
        &[],
    );
    let deadline = enveloped(
        &Envelope {
            trace: None,
            deadline_ms: Some(9),
        },
        &[],
    );
    let request = [0x04u8, b'x'];
    for body in [
        [&trace[..], &trace, &request].concat(),
        [&deadline[..], &deadline, &request].concat(),
        [&deadline[..], &trace, &request].concat(),
        [&trace[..], &deadline, &deadline, &request].concat(),
    ] {
        assert!(split_checked(&body).is_none(), "{body:?}");
    }
}

#[test]
fn a_mebibyte_of_tag_openers_is_refused() {
    // One recursion (or loop turn) per tag would walk the whole mebibyte;
    // split reads two tags at most and refuses the third.
    for opener in [
        [
            &[OP_ENV_TRACE][..],
            &1u64.to_le_bytes(),
            &1u64.to_le_bytes(),
        ]
        .concat(),
        [&[OP_ENV_DEADLINE][..], &1u32.to_le_bytes()].concat(),
    ] {
        let body = opener.repeat((1 << 20) / opener.len());
        assert!(split_checked(&body).is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any envelope round-trips around any bare request.
    #[test]
    fn random_envelopes_round_trip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let envelope = random_envelope(&mut rng);
            let request = random_request(&mut rng);
            let body = enveloped(&envelope, &request);
            prop_assert_eq!(Envelope::split(&body).unwrap(), (envelope, &request[..]));
        }
    }

    /// An empty envelope adds no bytes: a request sent without a trace or
    /// a budget is exactly its bare encoding, and splits back unchanged.
    #[test]
    fn traceless_encoding_is_byte_identical_to_legacy(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let request = random_request(&mut rng);
            prop_assert_eq!(&enveloped(&Envelope::default(), &request), &request);
            prop_assert_eq!(
                Envelope::split(&request).unwrap(),
                (Envelope::default(), &request[..])
            );
        }
    }

    /// Random bytes after either tag never panic the split.
    #[test]
    fn random_bytes_after_a_tag_never_panic(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..16 {
            let tag = if rng.random_bool(0.5) { OP_ENV_TRACE } else { OP_ENV_DEADLINE };
            let len = rng.random_range(0..64usize);
            let body: Vec<u8> = std::iter::once(tag)
                .chain((0..len).map(|_| rng.random::<u8>()))
                .collect();
            split_checked(&body);
        }
    }
}
