//! Property-based tests for GF(2^8) arithmetic, slice kernels and matrices.

use pbrs_gf::{slice_ops, Gf256, Matrix};
use proptest::collection::vec;
use proptest::prelude::*;

fn gf() -> impl Strategy<Value = Gf256> {
    any::<u8>().prop_map(Gf256::new)
}

fn nonzero_gf() -> impl Strategy<Value = Gf256> {
    (1u8..=255).prop_map(Gf256::new)
}

proptest! {
    #[test]
    fn addition_commutative_associative(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn multiplication_commutative_associative(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn distributivity(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn additive_inverse_is_self(a in gf()) {
        prop_assert_eq!(a + a, Gf256::ZERO);
        prop_assert_eq!(-a, a);
    }

    #[test]
    fn multiplicative_inverse(a in nonzero_gf()) {
        let inv = a.inverse().unwrap();
        prop_assert_eq!(a * inv, Gf256::ONE);
        prop_assert_eq!(Gf256::ONE / a, inv);
    }

    #[test]
    fn division_then_multiplication(a in gf(), b in nonzero_gf()) {
        prop_assert_eq!((a / b) * b, a);
    }

    #[test]
    fn pow_adds_exponents(a in nonzero_gf(), m in 0u32..300, n in 0u32..300) {
        prop_assert_eq!(a.pow(m) * a.pow(n), a.pow(m + n));
    }

    #[test]
    fn mul_add_slice_is_linear(
        c1 in any::<u8>(),
        c2 in any::<u8>(),
        src in vec(any::<u8>(), 1..256),
    ) {
        let mut d1 = vec![0u8; src.len()];
        slice_ops::mul_add_slice(c1, &src, &mut d1);
        slice_ops::mul_add_slice(c2, &src, &mut d1);
        let mut d2 = vec![0u8; src.len()];
        slice_ops::mul_add_slice(c1 ^ c2, &src, &mut d2);
        prop_assert_eq!(d1, d2);
    }

    #[test]
    fn mul_slice_matches_elementwise(c in any::<u8>(), src in vec(any::<u8>(), 1..256)) {
        let mut dst = vec![0u8; src.len()];
        slice_ops::mul_slice(c, &src, &mut dst);
        for (s, d) in src.iter().zip(dst.iter()) {
            prop_assert_eq!(Gf256::new(*d), Gf256::new(c) * Gf256::new(*s));
        }
    }

    #[test]
    fn linear_combination_matches_matrix(
        coeffs in vec(any::<u8>(), 1..6),
        len in 1usize..64,
        seed in any::<u64>(),
    ) {
        // Build deterministic pseudo-random source shards from the seed.
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        let srcs: Vec<Vec<u8>> = (0..coeffs.len())
            .map(|_| (0..len).map(|_| next()).collect())
            .collect();
        let src_refs: Vec<&[u8]> = srcs.iter().map(|s| s.as_slice()).collect();
        let mut out = vec![0u8; len];
        slice_ops::linear_combination(&coeffs, &src_refs, &mut out);
        // Cross-check column by column with a matrix-vector product.
        let m = Matrix::from_rows(1, coeffs.len(), coeffs.clone());
        for i in 0..len {
            let column: Vec<u8> = srcs.iter().map(|s| s[i]).collect();
            let expect = m.multiply_vec(&column).unwrap()[0];
            prop_assert_eq!(out[i], expect);
        }
    }

    #[test]
    fn random_vandermonde_square_submatrices_invertible(
        rows in 2usize..20,
        extra in 1usize..6,
    ) {
        let v = Matrix::vandermonde(rows + extra, rows);
        // Take the last `rows` rows — an arbitrary square subset.
        let idx: Vec<usize> = (extra..rows + extra).collect();
        let sub = v.submatrix_rows(&idx).unwrap();
        prop_assert!(sub.is_invertible());
    }

    #[test]
    fn matrix_inverse_round_trip(n in 1usize..10, seed in any::<u64>()) {
        // Random matrices are invertible with high probability; retry by
        // perturbing the diagonal until invertible, then check the round trip.
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        let mut m = Matrix::zero(n, n);
        for r in 0..n {
            for c in 0..n {
                m.set(r, c, next());
            }
        }
        if !m.is_invertible() {
            for d in 0..n {
                m.set(d, d, m.get(d, d) ^ 1);
            }
        }
        prop_assume!(m.is_invertible());
        let inv = m.inverted().unwrap();
        prop_assert_eq!(m.multiply(&inv).unwrap(), Matrix::identity(n));
    }

    #[test]
    fn matrix_vec_distributes_over_xor(
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        let m = Matrix::from_rows(n, n, (0..n * n).map(|_| next()).collect());
        let x: Vec<u8> = (0..n).map(|_| next()).collect();
        let y: Vec<u8> = (0..n).map(|_| next()).collect();
        let xy: Vec<u8> = x.iter().zip(y.iter()).map(|(a, b)| a ^ b).collect();
        let mx = m.multiply_vec(&x).unwrap();
        let my = m.multiply_vec(&y).unwrap();
        let mxy = m.multiply_vec(&xy).unwrap();
        let sum: Vec<u8> = mx.iter().zip(my.iter()).map(|(a, b)| a ^ b).collect();
        prop_assert_eq!(mxy, sum);
    }
}
