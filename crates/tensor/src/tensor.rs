//! Dense row-major `f32` matrix.

use std::fmt;

use gp_exec::{par_map, Threads};

/// Rows per parallel panel of the blocked matmul kernels. Each panel is
/// an index-addressed `par_map` job, so the split never changes
/// results — only how they are scheduled.
const ROW_PANEL: usize = 64;

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
        self.matmul_with(b, Threads::serial())
    }

    /// [`Tensor::matmul`] on the `gp-exec` pool: output rows are split
    /// into contiguous panels, one index-addressed job per panel. Every
    /// output element accumulates in the exact order of the serial
    /// kernel, so the product is bit-identical at any width.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_with(&self, b: &Tensor, threads: Threads) -> Tensor {
        if self.cols != b.rows {
            dim_panic("matmul inner dims", self.cols, b.rows);
        }
        let mut out = Tensor::zeros(self.rows, b.cols);
        run_row_panels(self.rows, b.cols, threads, out.data_mut(), |i0, i1, panel| {
            // i-k-j order: streams through b row-wise (cache friendly).
            for i in i0..i1 {
                let a_row = self.row(i);
                let out_row = &mut panel[(i - i0) * b.cols..(i - i0 + 1) * b.cols];
                for (k, &a_ik) in a_row.iter().enumerate() {
                    if a_ik == 0.0 {
                        continue;
                    }
                    let b_row = b.row(k);
                    debug_assert_eq!(out_row.len(), b_row.len(), "panel width");
                    for (o, &b_kj) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += a_ik * b_kj;
                    }
                }
            }
        });
        out
    }

    /// `selfᵀ · b` without materialising the transpose
    /// (`self: r×m`, `b: r×n` → `m×n`). This is the `grad_W = Xᵀ·dY`
    /// shape.
    pub fn matmul_at_b(&self, b: &Tensor) -> Tensor {
        self.matmul_at_b_with(b, Threads::serial())
    }

    /// [`Tensor::matmul_at_b`] on the `gp-exec` pool: panels over the
    /// *output* rows (columns of `self`). For every output element the
    /// reduction over `r` runs in the serial kernel's increasing-`r`
    /// order (including its zero-skip), so the result is bit-identical
    /// at any width.
    ///
    /// # Panics
    ///
    /// Panics on outer-dimension mismatch.
    pub fn matmul_at_b_with(&self, b: &Tensor, threads: Threads) -> Tensor {
        if self.rows != b.rows {
            dim_panic("matmul_at_b outer dims", self.rows, b.rows);
        }
        let mut out = Tensor::zeros(self.cols, b.cols);
        run_row_panels(self.cols, b.cols, threads, out.data_mut(), |m0, m1, panel| {
            for r in 0..self.rows {
                let a_row = self.row(r);
                let b_row = b.row(r);
                for (m, &a_rm) in a_row.iter().enumerate().take(m1).skip(m0) {
                    if a_rm == 0.0 {
                        continue;
                    }
                    let out_row = &mut panel[(m - m0) * b.cols..(m - m0 + 1) * b.cols];
                    debug_assert_eq!(out_row.len(), b_row.len(), "panel width");
                    for (o, &b_rn) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += a_rm * b_rn;
                    }
                }
            }
        });
        out
    }

    /// `self · bᵀ` (`self: r×m`, `b: n×m` → `r×n`). This is the
    /// `dX = dY·Wᵀ` shape.
    pub fn matmul_a_bt(&self, b: &Tensor) -> Tensor {
        self.matmul_a_bt_with(b, Threads::serial())
    }

    /// [`Tensor::matmul_a_bt`] on the `gp-exec` pool; row panels as in
    /// [`Tensor::matmul_with`], bit-identical at any width.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_a_bt_with(&self, b: &Tensor, threads: Threads) -> Tensor {
        if self.cols != b.cols {
            dim_panic("matmul_a_bt inner dims", self.cols, b.cols);
        }
        let mut out = Tensor::zeros(self.rows, b.rows);
        run_row_panels(self.rows, b.rows, threads, out.data_mut(), |i0, i1, panel| {
            for i in i0..i1 {
                let a_row = self.row(i);
                let out_row = &mut panel[(i - i0) * b.rows..(i - i0 + 1) * b.rows];
                for (j, o) in out_row.iter_mut().enumerate() {
                    let b_row = b.row(j);
                    debug_assert_eq!(a_row.len(), b_row.len(), "panel width");
                    let mut acc = 0.0f32;
                    for (&a, &bb) in a_row.iter().zip(b_row.iter()) {
                        acc += a * bb;
                    }
                    *o = acc;
                }
            }
        });
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

/// Drive a row-panel kernel either serially (one panel spanning the
/// whole output, run on the caller's thread) or on the `gp-exec` pool
/// (one index-addressed job per [`ROW_PANEL`]-row panel, results copied
/// back in index order). `kernel(i0, i1, panel)` must fill `panel` with
/// output rows `i0..i1`; because every output element is produced by
/// exactly one panel and each panel computes its elements in the same
/// order as the serial kernel, the split is bit-transparent.
fn run_row_panels<F>(rows: usize, cols: usize, threads: Threads, out: &mut [f32], kernel: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    if threads.count() <= 1 || rows <= ROW_PANEL {
        let _prof = gp_prof::scope("tensor.matmul.panel");
        kernel(0, rows, out);
        return;
    }
    let panels: Vec<(usize, usize)> =
        (0..rows).step_by(ROW_PANEL).map(|i0| (i0, (i0 + ROW_PANEL).min(rows))).collect();
    let kernel = &kernel;
    let jobs: Vec<_> = panels
        .iter()
        .map(|&(i0, i1)| {
            move || {
                let _prof = gp_prof::scope("tensor.matmul.panel");
                let mut buf = vec![0.0f32; (i1 - i0) * cols];
                kernel(i0, i1, &mut buf);
                buf
            }
        })
        .collect();
    let bufs = par_map(threads, jobs);
    for (&(i0, i1), buf) in panels.iter().zip(bufs.iter()) {
        out[i0 * cols..i1 * cols].copy_from_slice(buf);
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

    #[test]
    fn threaded_matmul_family_bitwise_matches_serial() {
        // Every output exceeds ROW_PANEL rows so the pool path splits
        // in all three kernels.
        let n = 2 * ROW_PANEL + 17;
        let a = filled(n, n, 1);
        let b = filled(n, 29, 2);
        let bt = filled(29, n, 3);
        let at = filled(n, 29, 4);
        for w in [2usize, 4, 8] {
            let t = Threads::new(w);
            assert_eq!(a.matmul(&b).data(), a.matmul_with(&b, t).data(), "matmul w={w}");
            assert_eq!(
                a.matmul_at_b(&at).data(),
                a.matmul_at_b_with(&at, t).data(),
                "matmul_at_b w={w}"
            );
            assert_eq!(
                a.matmul_a_bt(&bt).data(),
                a.matmul_a_bt_with(&bt, t).data(),
                "matmul_a_bt w={w}"
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
