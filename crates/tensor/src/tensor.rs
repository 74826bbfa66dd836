//! Dense row-major `f32` matrix.

use std::fmt;

/// Shape-check failure path, kept out of line so the hot kernels carry
/// no format machinery: the happy path is a bare integer compare.
#[cold]
#[inline(never)]
fn dim_panic(kernel: &str, lhs: usize, rhs: usize) -> ! {
    panic!("{kernel}: {lhs} vs {rhs}");
}

/// A dense 2-D `f32` tensor (row-major).
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)
    }
}

impl Tensor {
    /// Zero-filled tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat data slice.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element mutation.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Matrix product `self · b`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, b: &Tensor) -> Tensor {
        if self.cols != b.rows {
            dim_panic("matmul inner dims", self.cols, b.rows);
        }
        let _prof = gp_prof::scope("tensor.matmul");
        let mut out = Tensor::zeros(self.rows, b.cols);
        // i-k-j order: streams through b row-wise (cache friendly).
        for i in 0..self.rows {
            let out_row = out.row_mut(i);
            for (k, &a_ik) in self.row(i).iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                for (o, &b_kj) in out_row.iter_mut().zip(b.row(k).iter()) {
                    *o += a_ik * b_kj;
                }
            }
        }
        out
    }

    /// `selfᵀ · b` without materialising the transpose
    /// (`self: r×m`, `b: r×n` → `m×n`). This is the `grad_W = Xᵀ·dY`
    /// shape.
    ///
    /// # Panics
    ///
    /// Panics on outer-dimension mismatch.
    pub fn matmul_at_b(&self, b: &Tensor) -> Tensor {
        if self.rows != b.rows {
            dim_panic("matmul_at_b outer dims", self.rows, b.rows);
        }
        let _prof = gp_prof::scope("tensor.matmul");
        let mut out = Tensor::zeros(self.cols, b.cols);
        for r in 0..self.rows {
            let b_row = b.row(r);
            for (m, &a_rm) in self.row(r).iter().enumerate() {
                if a_rm == 0.0 {
                    continue;
                }
                for (o, &b_rn) in out.row_mut(m).iter_mut().zip(b_row.iter()) {
                    *o += a_rm * b_rn;
                }
            }
        }
        out
    }

    /// `self · bᵀ` (`self: r×m`, `b: n×m` → `r×n`). This is the
    /// `dX = dY·Wᵀ` shape.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_a_bt(&self, b: &Tensor) -> Tensor {
        if self.cols != b.cols {
            dim_panic("matmul_a_bt inner dims", self.cols, b.cols);
        }
        let _prof = gp_prof::scope("tensor.matmul");
        let mut out = Tensor::zeros(self.rows, b.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for (j, o) in out.row_mut(i).iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (&a, &bb) in a_row.iter().zip(b.row(j).iter()) {
                    acc += a * bb;
                }
                *o = acc;
            }
        }
        out
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place scaling.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Add a row vector (broadcast over rows), e.g. a bias.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (a, &b) in self.row_mut(r).iter_mut().zip(bias.iter()) {
                *a += b;
            }
        }
    }

    /// Sum over rows → vector of length `cols` (bias gradient shape).
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
        out
    }

    /// Fill with zeros (reuse allocation).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Select rows by index into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn select_rows(&self, idx: &[u32]) -> Tensor {
        let mut out = Tensor::zeros(idx.len(), self.cols);
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r as usize));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    /// Pseudo-random but deterministic fill with a sprinkle of exact
    /// zeros so the kernels' zero-skip path is exercised.
    fn filled(rows: usize, cols: usize, salt: u64) -> Tensor {
        let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state.is_multiple_of(7) {
                data.push(0.0);
            } else {
                data.push(((state % 2000) as f32 - 1000.0) / 256.0);
            }
        }
        Tensor::from_vec(rows, cols, data)
    }

    /// Textbook `a · b`: each output element sums its products in
    /// increasing inner index from `0.0`.
    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f32;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn transpose(a: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.cols(), a.rows());
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                out.set(c, r, a.get(r, c));
            }
        }
        out
    }

    #[test]
    fn matmul_family_bitwise_matches_a_naive_product() {
        // Finite inputs: skipping a zero product adds nothing, so the
        // kernels' zero-skip and loop orders must reproduce the naive
        // sums bit for bit, on square, tall, wide and degenerate shapes.
        for (salt, (n, m, p)) in [(1, 1), (3, 5), (5, 3), (70, 9), (9, 70)]
            .into_iter()
            .flat_map(|(n, m)| [(n, m, 1), (n, m, 13)])
            .enumerate()
        {
            let salt = salt as u64 * 4;
            let a = filled(n, m, salt + 1);
            let b = filled(m, p, salt + 2);
            let at = filled(n, p, salt + 3);
            let bt = filled(p, m, salt + 4);
            let shape = format!("{n}x{m}, {p}");
            assert_eq!(a.matmul(&b).data(), naive(&a, &b).data(), "matmul {shape}");
            assert_eq!(
                a.matmul_at_b(&at).data(),
                naive(&transpose(&a), &at).data(),
                "matmul_at_b {shape}"
            );
            assert_eq!(
                a.matmul_a_bt(&bt).data(),
                naive(&a, &transpose(&bt)).data(),
                "matmul_a_bt {shape}"
            );
        }
    }

    #[test]
    fn matmul_basic() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = t(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_at_b_equals_explicit_transpose() {
        let a = t(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = t(3, 2, &[1., 0., 0., 1., 1., 1.]);
        // aᵀ = [[1,3,5],[2,4,6]]; aᵀ·b = [[6,8],[8,10]]
        let c = a.matmul_at_b(&b);
        assert_eq!(c.data(), &[6., 8., 8., 10.]);
    }

    #[test]
    fn matmul_a_bt_matches() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = t(2, 3, &[1., 0., 1., 0., 1., 0.]);
        // a·bᵀ = [[4, 2],[10, 5]]
        let c = a.matmul_a_bt(&b);
        assert_eq!(c.data(), &[4., 2., 10., 5.]);
    }

    #[test]
    fn identity_roundtrip() {
        let a = t(2, 2, &[1., 2., 3., 4.]);
        let eye = t(2, 2, &[1., 0., 0., 1.]);
        assert_eq!(a.matmul(&eye).data(), a.data());
    }

    #[test]
    fn bias_and_sum_rows() {
        let mut a = Tensor::zeros(3, 2);
        a.add_bias(&[1.0, 2.0]);
        assert_eq!(a.sum_rows(), vec![3.0, 6.0]);
    }

    #[test]
    fn select_rows_picks() {
        let a = t(3, 2, &[0., 1., 2., 3., 4., 5.]);
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.data(), &[4., 5., 0., 1.]);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_shape_checked() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn scale_and_norm() {
        let mut a = t(1, 2, &[3., 4.]);
        assert_eq!(a.norm(), 5.0);
        a.scale(2.0);
        assert_eq!(a.norm(), 10.0);
    }
}
