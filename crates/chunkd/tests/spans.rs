//! The span-shipping payload — what a `FETCH_SPANS` response carries back
//! to the gateway — round-trips arbitrary span records, and truncation is
//! a typed error.
//!
//! The vendored `proptest` has no combinator strategies, so shaped values
//! are built from a seeded `StdRng`.

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

use pbrs_chunkd::protocol::{decode_spans, encode_spans};
use pbrs_obs::trace::{SpanId, SpanRecord, TraceId};

fn random_name(rng: &mut StdRng) -> String {
    let len = rng.random_range(1..32usize);
    (0..len)
        .map(|_| char::from(b'a' + rng.random_range(0..26u8)))
        .collect()
}

fn random_span(rng: &mut StdRng) -> SpanRecord {
    SpanRecord {
        trace: TraceId::new(rng.random_range(1..u64::MAX)).unwrap(),
        id: SpanId::new(rng.random_range(1..u64::MAX)).unwrap(),
        parent: rng
            .random_bool(0.7)
            .then(|| SpanId::new(rng.random_range(1..u64::MAX)).unwrap()),
        name: random_name(rng),
        process: format!("chunkd:{}", random_name(rng)),
        start_us: rng.random(),
        dur_us: rng.random_range(0..1 << 40),
        tags: (0..rng.random_range(0..4usize))
            .map(|_| (random_name(rng), random_name(rng)))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn span_payloads_round_trip_and_reject_truncation(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spans: Vec<SpanRecord> = (0..rng.random_range(0..8usize))
            .map(|_| random_span(&mut rng))
            .collect();
        let payload = encode_spans(&spans);
        prop_assert_eq!(decode_spans(&payload).unwrap(), spans);
        if payload.len() > 4 {
            let cut = rng.random_range(4..payload.len());
            prop_assert!(decode_spans(&payload[..cut]).is_err());
        }
    }
}
