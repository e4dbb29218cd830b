//! Dense 2-D tensor of `f32` values.
//!
//! Every value flowing through [`crate::graph::Graph`] is a `Tensor`. Column
//! vectors are represented as `(n, 1)` tensors and scalars as `(1, 1)`.

use std::fmt;
use std::ops::{Index, IndexMut};

use rand::Rng;

/// A dense, row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use asteria_nn::Tensor;
///
/// let w = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let x = Tensor::column(&[1.0, 1.0]);
/// let y = w.matvec(&x);
/// assert_eq!(y.as_slice(), &[3.0, 7.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "tensor dimensions must be nonzero");
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        let mut t = Tensor::zeros(rows, cols);
        t.data.fill(1.0);
        t
    }

    /// Creates a tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut t = Tensor::zeros(rows, cols);
        t.data.fill(value);
        t
    }

    /// Creates a tensor from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "at least one row required");
        let cols = rows[0].len();
        assert!(cols > 0, "rows must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Tensor {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates an `(n, 1)` column vector from a slice.
    pub fn column(values: &[f32]) -> Self {
        assert!(!values.is_empty(), "column vector must be non-empty");
        Tensor {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Creates a `(1, 1)` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            rows: 1,
            cols: 1,
            data: vec![value],
        }
    }

    /// Creates a tensor from a raw row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        assert!(rows > 0 && cols > 0, "tensor dimensions must be nonzero");
        Tensor { rows, cols, data }
    }

    /// Creates a tensor with entries drawn uniformly from `[-limit, limit]`.
    pub fn uniform<R: Rng>(rows: usize, cols: usize, limit: f32, rng: &mut R) -> Self {
        let mut t = Tensor::zeros(rows, cols);
        for v in &mut t.data {
            *v = rng.gen_range(-limit..=limit);
        }
        t
    }

    /// Creates a tensor using Xavier/Glorot uniform initialization for a
    /// weight matrix with `cols` inputs and `rows` outputs.
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        Tensor::uniform(rows, cols, limit, rng)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false: tensors have nonzero dimensions by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Row-major view of the underlying buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major view of the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Value of a `(1, 1)` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `1x1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor");
        self.data[0]
    }

    /// Matrix–vector product `self * x` where `x` is `(cols, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not a column vector with `self.cols()` rows.
    pub fn matvec(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.cols, 1, "matvec requires a column vector");
        assert_eq!(x.rows, self.cols, "matvec dimension mismatch");
        let mut out = Tensor::zeros(self.rows, 1);
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0f32;
            for (a, b) in row.iter().zip(x.data.iter()) {
                acc += a * b;
            }
            out.data[r] = acc;
        }
        out
    }

    /// Transposed matrix–vector product `self^T * y` where `y` is `(rows, 1)`.
    pub fn matvec_t(&self, y: &Tensor) -> Tensor {
        assert_eq!(y.cols, 1, "matvec_t requires a column vector");
        assert_eq!(y.rows, self.rows, "matvec_t dimension mismatch");
        let mut out = Tensor::zeros(self.cols, 1);
        for r in 0..self.rows {
            let yr = y.data[r];
            if yr == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, a) in out.data.iter_mut().zip(row.iter()) {
                *o += a * yr;
            }
        }
        out
    }

    /// Outer product `y * x^T` of two column vectors, shaped `(y.rows, x.rows)`.
    pub fn outer(y: &Tensor, x: &Tensor) -> Tensor {
        assert_eq!(y.cols, 1, "outer requires column vectors");
        assert_eq!(x.cols, 1, "outer requires column vectors");
        let mut out = Tensor::zeros(y.rows, x.rows);
        for r in 0..y.rows {
            let yr = y.data[r];
            for c in 0..x.rows {
                out.data[r * x.rows + c] = yr * x.data[c];
            }
        }
        out
    }

    /// Dot product of two equal-shape tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape(), "dot shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Euclidean norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Element-wise addition into `self`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Element-wise `self += scale * other`.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// Sets every entry to zero.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Applies `f` element-wise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = self.clone();
        for v in &mut out.data {
            *v = f(*v);
        }
        out
    }

    /// Element-wise binary combination of two equal-shape tensors.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        let mut out = self.clone();
        for (v, w) in out.data.iter_mut().zip(other.data.iter()) {
            *v = f(*v, *w);
        }
        out
    }

    /// Row `r` as a new `(cols, 1)` column vector.
    pub fn row_vector(&self, r: usize) -> Tensor {
        assert!(r < self.rows, "row index out of range");
        Tensor::column(&self.data[r * self.cols..(r + 1) * self.cols])
    }

    /// Adds `v` (a `(cols, 1)` vector) into row `r`.
    pub fn add_row(&mut self, r: usize, v: &Tensor) {
        assert!(r < self.rows, "row index out of range");
        assert_eq!(v.shape(), (self.cols, 1), "row shape mismatch");
        for (a, b) in self.data[r * self.cols..(r + 1) * self.cols]
            .iter_mut()
            .zip(&v.data)
        {
            *a += b;
        }
    }

    /// True when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// A matrix laid out column-major for inference-time matrix–vector
/// products.
///
/// [`ColMajor::matvec_into`] runs its inner loop across output rows, so
/// it vectorizes, yet each row still starts from `+0.0` and adds its
/// terms in ascending column order, exactly as [`Tensor::matvec`] does.
/// The two are therefore bit-identical. Several matrices with the same
/// column count can be stacked into one, so one pass serves them all.
///
/// # Examples
///
/// ```
/// use asteria_nn::{ColMajor, Tensor};
///
/// let a = Tensor::from_rows(&[&[1.0, 2.0]]);
/// let b = Tensor::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
/// let m = ColMajor::stack(&[&a, &b]);
/// let mut out = [0.0; 3];
/// m.matvec_into(&[1.0, 1.0], &mut out);
/// assert_eq!(out, [3.0, 7.0, 11.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ColMajor {
    rows: usize,
    data: Vec<f32>,
}

impl ColMajor {
    /// Stacks `blocks` vertically, top to bottom, in column-major order.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty or their column counts differ.
    pub fn stack(blocks: &[&Tensor]) -> ColMajor {
        let cols = blocks.first().expect("at least one block").cols;
        assert!(
            blocks.iter().all(|b| b.cols == cols),
            "stacked blocks must have equal column counts"
        );
        let rows: usize = blocks.iter().map(|b| b.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for c in 0..cols {
            for b in blocks {
                data.extend((0..b.rows).map(|r| b.data[r * cols + c]));
            }
        }
        ColMajor { rows, data }
    }

    /// Number of rows (the length of a product).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Writes `M·x` into `out`, bit-identical to [`Tensor::matvec`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.rows()` or `x` does not have one
    /// entry per column.
    pub fn matvec_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), self.rows, "matvec output length mismatch");
        assert_eq!(
            x.len() * self.rows,
            self.data.len(),
            "matvec dimension mismatch"
        );
        // Each tile of rows accumulates in a local array, which stays in
        // registers across all columns; the remainder rows accumulate in
        // `out` directly. Either way a row starts from `+0.0` and adds its
        // terms in ascending column order.
        let tiled = self.rows - self.rows % MATVEC_TILE;
        for (t, out_tile) in out[..tiled].chunks_exact_mut(MATVEC_TILE).enumerate() {
            let mut acc = [0.0f32; MATVEC_TILE];
            for (col, &x_c) in self.data.chunks_exact(self.rows).zip(x) {
                let w = &col[t * MATVEC_TILE..][..MATVEC_TILE];
                for (a, &w) in acc.iter_mut().zip(w) {
                    *a += w * x_c;
                }
            }
            out_tile.copy_from_slice(&acc);
        }
        let rest = &mut out[tiled..];
        rest.fill(0.0);
        for (col, &x_c) in self.data.chunks_exact(self.rows).zip(x) {
            for (o, &w) in rest.iter_mut().zip(&col[tiled..]) {
                *o += w * x_c;
            }
        }
    }
}

/// Output rows [`ColMajor::matvec_into`] accumulates together.
const MATVEC_TILE: usize = 16;

impl Index<(usize, usize)> for Tensor {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Tensor {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})[", self.rows, self.cols)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|v| format!("{v:.4}"))
            .collect();
        write!(f, "{}", preview.join(", "))?;
        if self.data.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(3, 2);
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.len(), 6);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_layout_is_row_major() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t[(0, 1)], 2.0);
        assert_eq!(t[(1, 0)], 3.0);
        assert_eq!(t.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn matvec_matches_manual() {
        let w = Tensor::from_rows(&[&[1.0, -1.0, 2.0], &[0.5, 0.0, -2.0]]);
        let x = Tensor::column(&[2.0, 3.0, 1.0]);
        let y = w.matvec(&x);
        assert_eq!(y.as_slice(), &[1.0, -1.0]);
    }

    #[test]
    fn col_major_matvec_is_bit_identical_to_matvec() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::uniform(7, 5, 1.0, &mut rng);
        let mut b = Tensor::uniform(3, 5, 1.0, &mut rng);
        // Signed zeros and cancellation: the order of every sum matters.
        b.as_mut_slice()[..5].copy_from_slice(&[-0.0, 0.0, -0.0, 1e8, -1e8]);
        let m = ColMajor::stack(&[&a, &b]);
        assert_eq!(m.rows(), 10);
        for x in [
            Tensor::uniform(5, 1, 1.0, &mut rng),
            Tensor::column(&[0.0, -0.0, 0.0, 1.0, 1.0]),
            Tensor::column(&[-0.0; 5]),
        ] {
            let mut out = vec![f32::NAN; 10];
            m.matvec_into(x.as_slice(), &mut out);
            let want: Vec<u32> = [a.matvec(&x), b.matvec(&x)]
                .iter()
                .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()))
                .collect();
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want);
        }
    }

    /// `m.matvec_into(x)` as bits, checked against `Tensor::matvec` on
    /// the same row-major matrix.
    fn assert_col_major_matches(t: &Tensor, x: &[f32]) {
        let m = ColMajor::stack(&[t]);
        let mut out = vec![f32::NAN; t.rows];
        m.matvec_into(x, &mut out);
        let want: Vec<u32> = t
            .matvec(&Tensor::column(x))
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "{}x{} matrix", t.rows, t.cols);
    }

    #[test]
    fn col_major_matvec_is_exact_around_the_row_tile() {
        // Row counts below, at, between and past whole tiles: the tiled
        // rows and the remainder rows must both keep `Tensor::matvec`'s
        // summation order.
        let mut rng = StdRng::seed_from_u64(15);
        for rows in [1, 15, 16, 17, 31, 32, 33, 160] {
            for cols in [1, 3, 32] {
                let t = Tensor::uniform(rows, cols, 1.0, &mut rng);
                let x = Tensor::uniform(cols, 1, 1.0, &mut rng);
                assert_col_major_matches(&t, x.as_slice());
            }
        }
    }

    #[test]
    fn col_major_matvec_keeps_signed_zeros() {
        // `-0.0 · x` terms: a row whose every term is `-0.0` sums to
        // `+0.0` only because it starts from `+0.0`.
        for rows in [15, 16, 17, 40] {
            let mut t = Tensor::zeros(rows, 3);
            for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
                *v = if i % 2 == 0 { -0.0 } else { 0.0 };
            }
            for x in [[1.0, -1.0, 0.5], [-0.0, -0.0, -0.0], [0.0, 1e30, -1e30]] {
                assert_col_major_matches(&t, &x);
            }
        }
    }

    #[test]
    fn col_major_matvec_propagates_nan_and_infinity() {
        for rows in [15, 16, 33] {
            let mut rng = StdRng::seed_from_u64(rows as u64);
            let mut t = Tensor::uniform(rows, 4, 1.0, &mut rng);
            t.as_mut_slice()[5] = f32::NAN;
            t.as_mut_slice()[4 * (rows - 1)] = f32::INFINITY;
            for x in [[1.0, 2.0, 3.0, 4.0], [f32::NAN, 0.0, 0.0, 0.0], [0.0; 4]] {
                let m = ColMajor::stack(&[&t]);
                let mut out = vec![0.0; rows];
                m.matvec_into(&x, &mut out);
                let want = t.matvec(&Tensor::column(&x));
                for (r, (&got, &want)) in out.iter().zip(want.as_slice()).enumerate() {
                    // NaN payloads are unspecified; NaN-ness and every
                    // other bit pattern must match.
                    if want.is_nan() {
                        assert!(got.is_nan(), "row {r} of {rows}");
                    } else {
                        assert_eq!(got.to_bits(), want.to_bits(), "row {r} of {rows}");
                    }
                }
            }
        }
    }

    #[test]
    fn matvec_t_is_transpose_product() {
        let w = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let y = Tensor::column(&[1.0, 0.0, -1.0]);
        let x = w.matvec_t(&y);
        assert_eq!(x.as_slice(), &[-4.0, -4.0]);
    }

    #[test]
    fn outer_product() {
        let y = Tensor::column(&[1.0, 2.0]);
        let x = Tensor::column(&[3.0, 4.0, 5.0]);
        let o = Tensor::outer(&y, &x);
        assert_eq!(o.shape(), (2, 3));
        assert_eq!(o[(1, 2)], 10.0);
    }

    #[test]
    fn dot_and_norm() {
        let a = Tensor::column(&[3.0, 4.0]);
        assert_eq!(a.dot(&a), 25.0);
        assert_eq!(a.norm(), 5.0);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Tensor::ones(2, 2);
        let b = Tensor::full(2, 2, 3.0);
        a.add_scaled(&b, 2.0);
        assert!(a.as_slice().iter().all(|&v| v == 7.0));
    }

    #[test]
    fn rows_roundtrip() {
        let mut m = Tensor::zeros(3, 4);
        let v = Tensor::column(&[1.0, 2.0, 3.0, 4.0]);
        m.add_row(1, &v);
        assert_eq!(m.row_vector(1), v);
        m.add_row(1, &v);
        assert_eq!(m.row_vector(1).as_slice(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn uniform_respects_limit() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::uniform(10, 10, 0.25, &mut rng);
        assert!(t.as_slice().iter().all(|&v| (-0.25..=0.25).contains(&v)));
    }

    #[test]
    #[should_panic(expected = "matvec dimension mismatch")]
    fn matvec_rejects_bad_shapes() {
        let w = Tensor::zeros(2, 3);
        let x = Tensor::column(&[1.0, 2.0]);
        let _ = w.matvec(&x);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::column(&[1.0, -2.0]);
        let b = Tensor::column(&[10.0, 20.0]);
        assert_eq!(a.map(f32::abs).as_slice(), &[1.0, 2.0]);
        assert_eq!(a.zip_map(&b, |x, y| x + y).as_slice(), &[11.0, 18.0]);
    }
}
