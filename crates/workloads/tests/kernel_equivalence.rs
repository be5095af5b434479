//! `Matrix::matmul` against a naive per-element oracle, bit for bit.
//!
//! The oracle states the summation-order contract directly: element
//! `(i, j)` starts at `+0.0` and adds `lhs[i][k] * rhs[k][j]` for `k`
//! ascending, skipping zero `lhs` entries, as a separate multiply and add.
//! The shapes reach every kernel path on AVX2 hosts: full 4-row × 16-column
//! register tiles, row remainders of 1–3, the 8-wide column remainder and
//! the scalar column remainder. The left operand carries `+0.0` and `-0.0`,
//! and some right operands carry an `inf` or a NaN facing only zero left
//! entries, where a kernel that multiplied through would produce NaN.

use nvmx_workloads::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn naive(lhs: &Matrix, rhs: &Matrix) -> Vec<u32> {
    let mut out = Vec::with_capacity(lhs.rows() * rhs.cols());
    for i in 0..lhs.rows() {
        for j in 0..rhs.cols() {
            let mut acc = 0.0f32;
            for k in 0..lhs.cols() {
                let a = lhs.get(i, k);
                if a != 0.0 {
                    let product = a * rhs.get(k, j);
                    acc += product;
                }
            }
            out.push(acc.to_bits());
        }
    }
    out
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A `rows × inner` left operand with about a quarter of its entries
/// `+0.0` or `-0.0`.
fn lhs_with_zeros(rows: usize, inner: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, inner, |_, _| match rng.gen_range(0..8) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.gen_range(-2.0f32..2.0),
    })
}

fn finite_rhs(inner: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(inner, cols, |_, _| rng.gen_range(-2.0f32..2.0))
}

#[test]
fn every_tile_shape_matches_the_naive_oracle() {
    // Each row count 1–13 against each column count 1–70: every row
    // remainder, and every 16-tile count with every 8-wide and scalar tail.
    let mut rng = StdRng::seed_from_u64(15);
    for rows in 1..=13 {
        for cols in 1..=70 {
            let inner = 1 + (rows * cols) % 7;
            let lhs = lhs_with_zeros(rows, inner, &mut rng);
            let rhs = finite_rhs(inner, cols, &mut rng);
            assert_eq!(
                bits(&lhs.matmul(&rhs)),
                naive(&lhs, &rhs),
                "{rows}x{inner}x{cols}"
            );
        }
    }
}

#[test]
fn random_shapes_match_the_naive_oracle() {
    let mut rng = StdRng::seed_from_u64(13);
    for _ in 0..150 {
        let rows = rng.gen_range(1..14);
        let inner = rng.gen_range(1..301);
        let cols = rng.gen_range(1..71);
        let lhs = lhs_with_zeros(rows, inner, &mut rng);
        let rhs = finite_rhs(inner, cols, &mut rng);
        assert_eq!(
            bits(&lhs.matmul(&rhs)),
            naive(&lhs, &rhs),
            "{rows}x{inner}x{cols}"
        );
    }
}

#[test]
fn an_all_zero_lhs_gives_positive_zeros() {
    // Every product is ±0.0; the sum must stay +0.0, never -0.0.
    let mut rng = StdRng::seed_from_u64(17);
    let lhs = Matrix::from_fn(9, 40, |r, k| if (r + k) % 2 == 0 { 0.0 } else { -0.0 });
    let rhs = finite_rhs(40, 37, &mut rng);
    let product = lhs.matmul(&rhs);
    assert!(product.as_slice().iter().all(|v| v.to_bits() == 0));
    assert_eq!(bits(&product), naive(&lhs, &rhs));
}

#[test]
fn non_finite_rhs_rows_facing_zero_lhs_entries_contribute_nothing() {
    let mut rng = StdRng::seed_from_u64(19);
    for (rows, inner, cols) in [(13, 40, 70), (8, 300, 64), (5, 17, 24), (4, 64, 16)] {
        // Rows 3 and `inner - 5` of `rhs` hold an inf, a -inf and a NaN;
        // every lhs entry facing them is +0.0 or -0.0.
        let special = [3, inner - 5];
        let lhs = Matrix::from_fn(rows, inner, |r, k| {
            if special.contains(&k) {
                if r % 2 == 0 {
                    0.0
                } else {
                    -0.0
                }
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        });
        let mut rhs = finite_rhs(inner, cols, &mut rng);
        for &k in &special {
            rhs.set(k, 0, f32::INFINITY);
            rhs.set(k, cols / 2, f32::NAN);
            rhs.set(k, cols - 1, f32::NEG_INFINITY);
        }
        let product = lhs.matmul(&rhs);
        assert!(
            product.as_slice().iter().all(|v| v.is_finite()),
            "{rows}x{inner}x{cols}"
        );
        assert_eq!(bits(&product), naive(&lhs, &rhs), "{rows}x{inner}x{cols}");
    }
}
