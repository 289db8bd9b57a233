//! A minimal row-major `f32` matrix with the operations dense layers need.
//!
//! The three matmul kernels (`matmul_into`, `matmul_transb_into`,
//! `matmul_transa_acc_into`) dispatch through the runtime-selected
//! [`kernels`] backend — scalar register-blocked loops or
//! the AVX2+FMA microkernel, chosen once at startup (`TCRM_KERNEL`
//! overrides; see the `kernels` module docs).

use crate::kernels::{self, Backend};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major matrix of `f32` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major buffer. Panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Matrix { rows, cols, data }
    }

    /// Build from row slices (all the same length).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "at least one row required");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A 1×n row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix::from_vec(1, values.len(), values.to_vec())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The raw row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the raw buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One element.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Set one element.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable access to one row.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshape in place, reusing the existing buffer capacity. The contents
    /// after a resize are unspecified (kernels writing into a resized matrix
    /// must overwrite every element); use [`Self::fill`] to clear explicitly.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Set every element to `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }

    /// Append one row, preserving existing rows (the column count must match,
    /// unless the matrix is empty — then it adopts the row's length). Reuses
    /// spare capacity, so clearing with [`Self::clear_rows`] and re-pushing is
    /// allocation-free once the buffer has warmed to its peak size.
    pub fn push_row(&mut self, row: &[f32]) {
        if self.rows == 0 && self.cols != row.len() {
            self.cols = row.len();
            self.data.clear();
        }
        assert_eq!(row.len(), self.cols, "push_row column mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Drop all rows but keep the column count and the allocation.
    pub fn clear_rows(&mut self) {
        self.rows = 0;
        self.data.clear();
    }

    /// Become a copy of `src`, reusing the existing buffer capacity.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Matrix product `self (m×k) · other (k×n) = (m×n)`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product into a caller-provided output buffer (no allocation
    /// once `out` has capacity), on the process-wide active kernel backend.
    ///
    /// Scalar backend: register-blocked ikj kernel (4-row blocks, 16-column
    /// register tiles, 4-wide k-unroll on remainder rows). SIMD backend:
    /// `other` packed into zero-padded 8-lane panels and multiplied by the
    /// 4×16 AVX2+FMA microkernel; a single-row `self` streams `other`
    /// directly instead (see [`kernels`]). Both overwrite every element of
    /// `out`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_into_with(Backend::active(), other, out);
    }

    /// [`Self::matmul_into`] on an explicitly chosen backend (differential
    /// tests and benches; production code uses the dispatched wrapper).
    pub fn matmul_into_with(&self, backend: Backend, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let (m, k_count, n) = (self.rows, self.cols, other.cols);
        out.resize(m, n);
        kernels::matmul(
            backend,
            &self.data,
            &other.data,
            &mut out.data,
            m,
            k_count,
            n,
        );
    }

    /// Product with a transposed right operand: `self (m×k) · otherᵀ` where
    /// `other` is `n×k`, producing `m×n` — without materialising the
    /// transpose. Scalar backend: one ILP dot product of two contiguous rows
    /// per output element. SIMD backend: `otherᵀ` is packed straight into
    /// the 8-lane panels of the same microkernel as [`Self::matmul_into`],
    /// so there are no per-element dot products or horizontal sums.
    pub fn matmul_transb_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_transb_into_with(Backend::active(), other, out);
    }

    /// [`Self::matmul_transb_into`] on an explicitly chosen backend.
    pub fn matmul_transb_into_with(&self, backend: Backend, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "inner dimension mismatch");
        let (m, k_count, n) = (self.rows, self.cols, other.rows);
        out.resize(m, n);
        kernels::matmul_transb(
            backend,
            &self.data,
            &other.data,
            &mut out.data,
            m,
            k_count,
            n,
        );
    }

    /// Accumulating product with a transposed left operand:
    /// `out += selfᵀ · other` where `self` is `k×m` and `other` is `k×n`,
    /// producing `m×n`. This is the weight-gradient kernel
    /// (`dW += xᵀ · d(pre)`): accumulation happens directly in the gradient
    /// buffer, so no temporary is ever allocated. On the SIMD backend the
    /// shared microkernel reads `selfᵀ` in place and adds its tiles to
    /// `out`. `out` must already have shape `m×n`.
    pub fn matmul_transa_acc_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_transa_acc_into_with(Backend::active(), other, out);
    }

    /// [`Self::matmul_transa_acc_into`] on an explicitly chosen backend.
    pub fn matmul_transa_acc_into_with(&self, backend: Backend, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "inner dimension mismatch");
        assert_eq!(out.rows, self.cols, "output row mismatch");
        assert_eq!(out.cols, other.cols, "output col mismatch");
        let (k_count, m, n) = (self.rows, self.cols, other.cols);
        kernels::matmul_transa_acc(
            backend,
            &self.data,
            &other.data,
            &mut out.data,
            k_count,
            m,
            n,
        );
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a + b)
    }

    /// In-place element-wise addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        self.zip_assign(other, |a, b| a + b)
    }

    /// In-place element-wise subtraction.
    pub fn sub_assign(&mut self, other: &Matrix) {
        self.zip_assign(other, |a, b| a - b)
    }

    /// In-place Hadamard product.
    pub fn hadamard_assign(&mut self, other: &Matrix) {
        self.zip_assign(other, |a, b| a * b)
    }

    /// In-place scalar multiplication.
    pub fn scale_assign(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Apply a function to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// In-place element-wise combination with another same-shaped matrix.
    pub fn zip_assign(&mut self, other: &Matrix, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.rows, other.rows, "row mismatch");
        assert_eq!(self.cols, other.cols, "col mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, b);
        }
    }

    /// Add a 1×cols row vector to every row, in place.
    pub fn add_row_broadcast_assign(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for row in self.data.chunks_exact_mut(self.cols) {
            for (o, b) in row.iter_mut().zip(bias.iter()) {
                *o += b;
            }
        }
    }

    /// Accumulate the column sums into `out` (`out[j] += Σ_r self[r][j]`),
    /// the allocation-free bias-gradient kernel.
    pub fn sum_rows_acc_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "output length mismatch");
        for row in self.data.chunks_exact(self.cols) {
            for (o, v) in out.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise multiplication (Hadamard product).
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a * b)
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }

    /// Apply a function to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise combination of two same-shaped matrices.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.rows, other.rows, "row mismatch");
        assert_eq!(self.cols, other.cols, "col mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Add a 1×cols row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&self, bias: &[f32]) -> Matrix {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        let mut out = self.clone();
        for r in 0..self.rows {
            for (o, b) in out.row_mut(r).iter_mut().zip(bias.iter()) {
                *o += b;
            }
        }
        out
    }

    /// Sum over rows, producing a length-`cols` vector (bias gradient).
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, v) in out.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// True if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:8.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 6 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        let mut m = m;
        m.set(0, 1, 9.0);
        assert_eq!(m.get(0, 1), 9.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_checks_length() {
        Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.row(0), &[58.0, 64.0]);
        assert_eq!(c.row(1), &[139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b).row(0), &[4.0, 6.0]);
        assert_eq!(b.sub(&a).row(0), &[2.0, 2.0]);
        assert_eq!(a.hadamard(&b).row(0), &[3.0, 8.0]);
        assert_eq!(a.scale(2.0).row(0), &[2.0, 4.0]);
        assert_eq!(a.map(|v| v + 1.0).row(0), &[2.0, 3.0]);
    }

    #[test]
    fn broadcast_and_reductions() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let with_bias = a.add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(with_bias.row(1), &[13.0, 24.0]);
        assert_eq!(a.sum_rows(), vec![4.0, 6.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert!((a.norm() - (30.0f32).sqrt()).abs() < 1e-6);
        assert!(a.is_finite());
    }

    #[test]
    fn display_does_not_panic_on_large_matrices() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m}");
        assert!(s.contains("Matrix 20x20"));
    }
}
