//! A minimal dense-matrix type — just enough linear algebra for the neural
//! network substrate (no external BLAS; the nets are small by design).

use rand::Rng;

/// A row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix with He-initialized weights (for ReLU networks).
    pub fn he_init(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let scale = (2.0 / cols as f64).sqrt() as f32;
        Self::from_fn(rows, cols, |_, _| {
            // Box–Muller standard normal.
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
            z * scale
        })
    }

    /// Creates a matrix wrapping existing row-major data.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable element access.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of the backing storage (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing storage (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self × rhs`.
    ///
    /// Summation-order contract (the incremental fault-trial evaluator in
    /// [`crate::nn`] relies on it to stay bit-identical to a full pass):
    ///
    /// - each output element `(i, j)` starts at `+0.0` and accumulates
    ///   `self[i][k] * rhs[k][j]` for `k` in ascending order, as a separate
    ///   IEEE multiply followed by a separate add — there is no FMA;
    /// - left-operand entries equal to zero (`0.0` and `-0.0`) add nothing,
    ///   so their row of `rhs` never contributes, even when it holds an
    ///   `inf` or a NaN;
    /// - column `j` of the result depends only on column `j` of `rhs`.
    ///
    /// The portable i-k-j loop is the reference: it skips zero left-operand
    /// entries outright. On x86_64 hosts with AVX2, a product whose `rhs` is
    /// all finite (checked once per call) runs a register-tiled kernel
    /// instead: blocks of 4 rows × 16 columns keep their accumulators in
    /// registers for the whole `k` loop and share each `rhs` row load, with
    /// column remainders run 8 lanes wide, then scalar. It has no zero-skip
    /// branch and needs none. An accumulator that starts at `+0.0` never
    /// becomes `-0.0` under round-to-nearest, and a zero times a finite `b`
    /// is `±0.0`, so adding it leaves every accumulator bit unchanged. An
    /// `rhs` holding an `inf` or a NaN, where `0 × b` would be NaN, takes
    /// the portable loop. Either way every result bit is the same.
    ///
    /// # Panics
    ///
    /// Panics when inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        if self.cols > 0 && rhs.cols > 0 {
            matmul_dispatch(&self.data, self.cols, &rhs.data, rhs.cols, &mut out.data);
        }
        out
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Adds `bias` to every row in place.
    ///
    /// # Panics
    ///
    /// Panics when `bias.len() != cols`.
    pub fn add_row_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Applies ReLU in place.
    pub fn relu_inplace(&mut self) {
        for v in &mut self.data {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// Index of the largest element in row `r`.
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// Largest absolute value in the matrix (used for quantization scale).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }
}

/// The portable i-k-j product loop behind [`Matrix::matmul`], and its
/// reference: `out += lhs × rhs` for row-major `lhs` (`inner` columns) and
/// `rhs` (`cols` columns). `inner` and `cols` must be non-zero.
fn matmul_kernel(lhs: &[f32], inner: usize, rhs: &[f32], cols: usize, out: &mut [f32]) {
    for (lhs_row, out_row) in lhs.chunks_exact(inner).zip(out.chunks_exact_mut(cols)) {
        for (&a, rhs_row) in lhs_row.iter().zip(rhs.chunks_exact(cols)) {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                *o += a * b;
            }
        }
    }
}

/// Writes `lhs × rhs` into the zeroed `out` with the fastest kernel whose
/// result is bit-identical to [`matmul_kernel`] on these operands.
fn matmul_dispatch(lhs: &[f32], inner: usize, rhs: &[f32], cols: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && rhs.iter().all(|b| b.is_finite()) {
        // SAFETY: AVX2 support was just detected.
        unsafe { avx2::matmul(lhs, inner, rhs, cols, out) };
        return;
    }
    matmul_kernel(lhs, inner, rhs, cols, out);
}

/// The register-tiled AVX2 kernel. Only `avx2` is enabled — never `fma` —
/// so every multiply and add stays a separate IEEE operation.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    /// Output rows per register tile.
    const TILE_ROWS: usize = 4;
    /// `f32` lanes per ymm register.
    const LANES: usize = 8;

    /// Writes `lhs × rhs` into `out` for row-major `lhs` (`inner` columns),
    /// `rhs` (`inner × cols`) and `out` (`cols` columns). Every element
    /// starts at `+0.0` and adds `lhs[i][k] * rhs[k][j]` for `k` ascending,
    /// zero `lhs` entries included, so the result matches the portable
    /// loop bit for bit when `rhs` is all finite.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths do not fit those shapes, or when
    /// `inner` or `cols` is zero.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matmul(
        lhs: &[f32],
        inner: usize,
        rhs: &[f32],
        cols: usize,
        out: &mut [f32],
    ) {
        assert!(inner > 0 && cols > 0, "empty inner or column dimension");
        let rows = lhs.len() / inner;
        assert!(
            lhs.len() == rows * inner
                && inner.checked_mul(cols) == Some(rhs.len())
                && rows.checked_mul(cols) == Some(out.len()),
            "operand shape mismatch"
        );
        let (lhs, rhs, out) = (lhs.as_ptr(), rhs.as_ptr(), out.as_mut_ptr());
        let mut row = 0;
        while row + TILE_ROWS <= rows {
            // SAFETY: rows `row..row + TILE_ROWS` lie inside `lhs` and
            // `out`, the shapes were checked above, and AVX2 is enabled.
            unsafe {
                row_block::<TILE_ROWS>(lhs.add(row * inner), inner, rhs, cols, out.add(row * cols))
            };
            row += TILE_ROWS;
        }
        let (lhs, out) = (lhs.wrapping_add(row * inner), out.wrapping_add(row * cols));
        // SAFETY: the `rows - row` remaining rows lie inside `lhs` and
        // `out`, the shapes were checked above, and AVX2 is enabled.
        unsafe {
            match rows - row {
                3 => row_block::<3>(lhs, inner, rhs, cols, out),
                2 => row_block::<2>(lhs, inner, rhs, cols, out),
                1 => row_block::<1>(lhs, inner, rhs, cols, out),
                _ => {}
            }
        }
    }

    /// Writes `R` rows of the product: 16-column tiles, then one 8-column
    /// tile, then scalar columns.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. `lhs` points at `R` consecutive rows of
    /// `inner` floats; `rhs` at `inner` rows and `out` at `R` writable
    /// rows, each row `cols` floats long and `cols` floats after the last.
    #[target_feature(enable = "avx2")]
    unsafe fn row_block<const R: usize>(
        lhs: *const f32,
        inner: usize,
        rhs: *const f32,
        cols: usize,
        out: *mut f32,
    ) {
        let mut col = 0;
        while col + 2 * LANES <= cols {
            // SAFETY: columns `col..col + 16` lie inside every row of `rhs`
            // and `out`.
            unsafe { tile::<R, 2>(lhs, inner, rhs.add(col), cols, out.add(col)) };
            col += 2 * LANES;
        }
        if col + LANES <= cols {
            // SAFETY: columns `col..col + 8` lie inside every row of `rhs`
            // and `out`.
            unsafe { tile::<R, 1>(lhs, inner, rhs.add(col), cols, out.add(col)) };
            col += LANES;
        }
        for col in col..cols {
            for r in 0..R {
                let mut acc = 0.0f32;
                for k in 0..inner {
                    // SAFETY: `r < R`, `k < inner` and `col < cols` index
                    // inside the rows the caller vouched for.
                    unsafe { acc += *lhs.add(r * inner + k) * *rhs.add(k * cols + col) };
                }
                // SAFETY: as above, for `out`.
                unsafe { *out.add(r * cols + col) = acc };
            }
        }
    }

    /// Writes one `R × (V * 8)` output tile, its accumulators held in
    /// registers across the whole `k` loop and each `rhs` row loaded once
    /// for all `R` rows.
    ///
    /// # Safety
    ///
    /// As [`row_block`], with `V * 8` readable (`rhs`) and writable (`out`)
    /// floats from each row start.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile<const R: usize, const V: usize>(
        lhs: *const f32,
        inner: usize,
        rhs: *const f32,
        cols: usize,
        out: *mut f32,
    ) {
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for k in 0..inner {
            let mut b = [_mm256_setzero_ps(); V];
            for (v, b) in b.iter_mut().enumerate() {
                // SAFETY: lanes `v * 8..v * 8 + 8` of `rhs` row `k` are in
                // bounds by the caller's contract.
                *b = unsafe { _mm256_loadu_ps(rhs.add(k * cols + v * LANES)) };
            }
            for (r, acc) in acc.iter_mut().enumerate() {
                // SAFETY: `r < R` and `k < inner` index inside `lhs`.
                let a = _mm256_set1_ps(unsafe { *lhs.add(r * inner + k) });
                for (acc, &b) in acc.iter_mut().zip(&b) {
                    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(a, b));
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            for (v, &acc) in acc.iter().enumerate() {
                // SAFETY: lanes `v * 8..v * 8 + 8` of `out` row `r` are in
                // bounds and writable by the caller's contract.
                unsafe { _mm256_storeu_ps(out.add(r * cols + v * LANES), acc) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let eye = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transposed().transposed(), a);
        assert_eq!(a.transposed().get(2, 1), 6.0);
    }

    #[test]
    fn relu_and_bias() {
        let mut a = Matrix::from_vec(1, 3, vec![-1.0, 0.5, 2.0]);
        a.add_row_bias(&[0.5, 0.5, -3.0]);
        a.relu_inplace();
        assert_eq!(a.as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn argmax_picks_largest() {
        let a = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.3, 5.0, 1.0, 2.0]);
        assert_eq!(a.argmax_row(0), 1);
        assert_eq!(a.argmax_row(1), 0);
    }

    #[test]
    fn he_init_has_plausible_spread() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Matrix::he_init(64, 64, &mut rng);
        let mean: f32 = m.as_slice().iter().sum::<f32>() / m.len() as f32;
        let var: f32 = m
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / m.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        let expected = 2.0 / 64.0;
        assert!(
            (var / expected - 1.0).abs() < 0.3,
            "var {var} vs {expected}"
        );
    }

    /// The portable (non-dispatched) kernel on the same operands.
    fn portable(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        matmul_kernel(
            a.as_slice(),
            a.cols(),
            b.as_slice(),
            b.cols(),
            out.as_mut_slice(),
        );
        out
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn dispatched_matmul_matches_the_portable_loop_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..200 {
            let rows = rng.gen_range(1..14);
            let inner = rng.gen_range(1..301);
            let cols = rng.gen_range(1..71);
            // A quarter of the left operand is +0.0 or -0.0.
            let a = Matrix::from_fn(rows, inner, |_, _| match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-2.0f32..2.0),
            });
            let b = Matrix::from_fn(inner, cols, |_, _| rng.gen_range(-2.0f32..2.0));
            assert_eq!(
                bits(&a.matmul(&b)),
                bits(&portable(&a, &b)),
                "{rows}x{inner}x{cols}"
            );
        }
    }

    #[test]
    fn zero_lhs_entries_skip_infinite_rhs_rows() {
        // Row 1 of `b` holds an inf, and every lhs entry facing it is a
        // zero of either sign: skipped, so no 0 × inf = NaN reaches out.
        for cols in [3, 8, 13] {
            let a = Matrix::from_fn(3, 3, |r, k| match (r, k) {
                (0, 1) => 0.0,
                (_, 1) => -0.0,
                _ => 1.5,
            });
            let mut b = Matrix::from_fn(3, cols, |k, c| (k * cols + c) as f32);
            b.set(1, cols / 2, f32::INFINITY);
            let fast = a.matmul(&b);
            assert!(fast.as_slice().iter().all(|v| v.is_finite()));
            assert_eq!(bits(&fast), bits(&portable(&a, &b)));
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
