//! Minimal dense linear algebra for the training substrate.
//!
//! Row-major `f32` matrices with exactly the operations an MLP needs —
//! no external math crates (DESIGN.md §6). The three matrix products
//! live in [`kernel`] as register-tiled `*_into` functions (DESIGN.md
//! §10) that write into a caller-owned output and reuse a caller-owned
//! [`Workspace`], so steady-state training allocates nothing.

pub mod kernel;

pub use kernel::Workspace;

/// A dense row-major matrix. The `Default` is the empty `0 × 0`
/// matrix, the usual seed for `*_into`/workspace buffers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.write_from_fn(f);
        m
    }

    /// Reshapes in place to `rows × cols` and refills from a closure
    /// over `(row, col)`, reusing the existing buffer capacity.
    pub fn fill_from_fn(&mut self, rows: usize, cols: usize, f: impl FnMut(usize, usize) -> f32) {
        self.resize(rows, cols);
        self.write_from_fn(f);
    }

    /// Overwrites every element from a closure (flat index-writes, so
    /// the loop optimizes to a straight fill — no per-element push).
    fn write_from_fn(&mut self, mut f: impl FnMut(usize, usize) -> f32) {
        let cols = self.cols;
        for r in 0..self.rows {
            let row = &mut self.data[r * cols..(r + 1) * cols];
            for (c, v) in row.iter_mut().enumerate() {
                *v = f(r, c);
            }
        }
    }

    /// Reshapes in place to `rows × cols`, reusing the buffer's
    /// capacity where possible. Element contents are unspecified
    /// afterwards — callers overwrite them.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies `src`'s shape and contents into this matrix, reusing
    /// capacity.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.resize(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// Capacity of the backing buffer in elements (exposed so tests
    /// can assert the zero-reallocation contract).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size must match shape");
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

    /// Immutable element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row access.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place scale.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Adds a bias row vector to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols);
        for r in 0..self.rows {
            for (v, b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one `kernel::*_into` product into a fresh output.
    fn product(
        f: fn(&Matrix, &Matrix, &mut Matrix, &mut Workspace),
        a: &Matrix,
        b: &Matrix,
    ) -> Matrix {
        let mut out = Matrix::default();
        f(a, b, &mut out, &mut Workspace::new());
        out
    }

    #[test]
    fn matmul_small_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = product(kernel::matmul_into, &a, &b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_transposed_matches_explicit() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(2, 3, vec![1., 0., 1., 0., 1., 0.]);
        // a * b^T
        let c = product(kernel::matmul_transposed_into, &a, &b);
        assert_eq!(c.as_slice(), &[4., 2., 10., 5.]);
    }

    #[test]
    fn transposed_matmul_matches_explicit() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]);
        // a^T * b = [[1,3],[2,4]] * [[5,6],[7,8]] = [[26,30],[38,44]]
        let c = product(kernel::transposed_matmul_into, &a, &b);
        assert_eq!(c.as_slice(), &[26., 30., 38., 44.]);
    }

    #[test]
    fn axpy_scale_bias_norm() {
        let mut a = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![1., 1., 1.]);
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[3., 4., 5.]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[1.5, 2., 2.5]);
        a.add_bias(&[0.5, 0.0, -0.5]);
        assert_eq!(a.as_slice(), &[2., 2., 2.]);
        assert!((a.norm() - 12f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = product(kernel::matmul_into, &a, &b);
    }

    #[test]
    fn resize_and_fill_from_fn_reuse_capacity() {
        let mut m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let ptr = m.as_slice().as_ptr();
        let cap = m.capacity();
        m.fill_from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m.as_slice(), &[0., 1., 2., 3., 4., 5.]);
        assert_eq!(m.as_slice().as_ptr(), ptr, "shrinking must reuse the buffer");
        assert_eq!(m.capacity(), cap);
        m.resize(4, 2);
        assert_eq!((m.rows(), m.cols()), (4, 2));
        assert_eq!(m.as_slice().len(), 8);
    }

    #[test]
    fn copy_from_matches_source() {
        let src = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
        let mut dst = Matrix::zeros(1, 1);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn from_fn_and_accessors() {
        let m = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.get(1, 0), 10.0);
        assert_eq!(m.row(1), &[10., 11.]);
        let mut m = m;
        m.set(0, 1, 9.0);
        assert_eq!(m.get(0, 1), 9.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
    }
}
