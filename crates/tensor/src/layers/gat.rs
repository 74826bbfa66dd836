//! GAT layer — single-head graph attention (Veličković et al., ICLR 2018).
//!
//! ```text
//! z_i    = x_i · W
//! e_ds   = LeakyReLU(a_l·z_d + a_r·z_s)        for s ∈ N(d)
//! α_ds   = softmax_s(e_ds)
//! y_d    = act( Σ_s α_ds z_s + b )
//! ```
//!
//! The attention coefficients are computed per block edge, which is what
//! makes GAT noticeably more compute-heavy than GraphSAGE — an effect
//! the paper's Figure 25 shows directly.

use crate::block::Aggregation;
use crate::init::xavier_uniform;
use crate::layers::Layer;
use crate::ops::{leaky_relu_grad, relu_backward_inplace, relu_inplace, softmax_slice};
use crate::optim::Param;
use crate::tensor::Tensor;

const ATTENTION_SLOPE: f32 = 0.2;

/// Single-head GAT layer.
#[derive(Debug)]
pub struct GatLayer {
    w: Param,
    a_left: Param,
    a_right: Param,
    b: Param,
    relu: bool,
    in_dim: usize,
    out_dim: usize,
    cache_x: Option<Tensor>,
    cache_z: Option<Tensor>,
    /// Attention weights per block edge (in `Aggregation` index order).
    cache_alpha: Option<Vec<f32>>,
    /// Pre-activation attention logits per block edge.
    cache_pre: Option<Vec<f32>>,
    cache_y: Option<Tensor>,
}

impl GatLayer {
    /// New GAT layer. `relu = false` for the final (logit) layer.
    pub fn new(in_dim: usize, out_dim: usize, relu: bool, seed: u64) -> Self {
        GatLayer {
            w: Param::new(xavier_uniform(in_dim, out_dim, seed)),
            a_left: Param::new(xavier_uniform(1, out_dim, seed ^ 0x1111)),
            a_right: Param::new(xavier_uniform(1, out_dim, seed ^ 0x2222)),
            b: Param::new(Tensor::zeros(1, out_dim)),
            relu,
            in_dim,
            out_dim,
            cache_x: None,
            cache_z: None,
            cache_alpha: None,
            cache_pre: None,
            cache_y: None,
        }
    }
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

impl Layer for GatLayer {
    fn forward(&mut self, block: &Aggregation, x: &Tensor) -> Tensor {
        assert_eq!(x.rows(), block.num_src(), "x rows must equal num_src");
        assert_eq!(x.cols(), self.in_dim);
        let z = x.matmul(&self.w.value);
        let a_l = self.a_left.value.row(0);
        let a_r = self.a_right.value.row(0);
        // Right attention term per source (reused across destinations).
        let r: Vec<f32> = (0..block.num_src()).map(|s| dot(a_r, z.row(s))).collect();
        let mut alpha: Vec<f32> = Vec::with_capacity(block.num_edges());
        let mut pre: Vec<f32> = Vec::with_capacity(block.num_edges());
        let mut y = Tensor::zeros(block.num_dst(), self.out_dim);
        for d in 0..block.num_dst() {
            let nbrs = block.neighbors(d);
            if nbrs.is_empty() {
                continue;
            }
            let l_d = dot(a_l, z.row(d));
            let start = alpha.len();
            for &s in nbrs {
                let p = l_d + r[s as usize];
                pre.push(p);
                alpha.push(if p >= 0.0 { p } else { ATTENTION_SLOPE * p });
            }
            softmax_slice(&mut alpha[start..]);
            let row = y.row_mut(d);
            for (i, &s) in nbrs.iter().enumerate() {
                let a = alpha[start + i];
                for (o, &v) in row.iter_mut().zip(z.row(s as usize).iter()) {
                    *o += a * v;
                }
            }
        }
        y.add_bias(self.b.value.row(0));
        if self.relu {
            relu_inplace(&mut y);
        }
        self.cache_x = Some(x.clone());
        self.cache_z = Some(z);
        self.cache_alpha = Some(alpha);
        self.cache_pre = Some(pre);
        self.cache_y = Some(y.clone());
        y
    }

    fn backward(&mut self, block: &Aggregation, dy: &Tensor) -> Tensor {
        let x = self.cache_x.take().expect("forward before backward");
        let z = self.cache_z.take().expect("forward before backward");
        let alpha = self.cache_alpha.take().expect("forward before backward");
        let pre = self.cache_pre.take().expect("forward before backward");
        let y = self.cache_y.take().expect("forward before backward");
        let mut dh = dy.clone();
        if self.relu {
            relu_backward_inplace(&mut dh, &y);
        }
        self.b.grad.add_assign(&Tensor::from_vec(1, self.out_dim, dh.sum_rows()));

        let a_l = self.a_left.value.row(0).to_vec();
        let a_r = self.a_right.value.row(0).to_vec();
        let mut dz = Tensor::zeros(block.num_src(), self.out_dim);
        let mut da_l = vec![0.0f32; self.out_dim];
        let mut da_r = vec![0.0f32; self.out_dim];

        let mut cursor = 0usize;
        for d in 0..block.num_dst() {
            let nbrs = block.neighbors(d);
            if nbrs.is_empty() {
                continue;
            }
            let dh_d = dh.row(d);
            let a_slice = &alpha[cursor..cursor + nbrs.len()];
            let p_slice = &pre[cursor..cursor + nbrs.len()];
            // dα_ds = dh_d · z_s ; aggregation gradient dz_s += α dh_d.
            let mut dalpha: Vec<f32> = Vec::with_capacity(nbrs.len());
            for (i, &s) in nbrs.iter().enumerate() {
                dalpha.push(dot(dh_d, z.row(s as usize)));
                let dst = dz.row_mut(s as usize);
                for (o, &v) in dst.iter_mut().zip(dh_d.iter()) {
                    *o += a_slice[i] * v;
                }
            }
            // Softmax backward.
            let inner: f32 = a_slice.iter().zip(dalpha.iter()).map(|(a, d)| a * d).sum();
            let mut dl_d = 0.0f32;
            for (i, &s) in nbrs.iter().enumerate() {
                let de = a_slice[i] * (dalpha[i] - inner);
                let dpre = de * leaky_relu_grad(p_slice[i], ATTENTION_SLOPE);
                dl_d += dpre;
                // dr_s = dpre → da_r and dz_s.
                let zs = z.row(s as usize);
                for c in 0..self.out_dim {
                    da_r[c] += dpre * zs[c];
                }
                let dst = dz.row_mut(s as usize);
                for (o, &ar) in dst.iter_mut().zip(a_r.iter()) {
                    *o += dpre * ar;
                }
            }
            // dl_d → da_l and dz_d.
            let zd = z.row(d);
            for c in 0..self.out_dim {
                da_l[c] += dl_d * zd[c];
            }
            let dst = dz.row_mut(d);
            for (o, &al) in dst.iter_mut().zip(a_l.iter()) {
                *o += dl_d * al;
            }
            cursor += nbrs.len();
        }

        self.a_left.grad.add_assign(&Tensor::from_vec(1, self.out_dim, da_l));
        self.a_right.grad.add_assign(&Tensor::from_vec(1, self.out_dim, da_r));
        self.w.grad.add_assign(&x.matmul_at_b(&dz));
        dz.matmul_a_bt(&self.w.value)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.a_left, &mut self.a_right, &mut self.b]
    }

    fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck::{check_layer, test_block, test_input};

    #[test]
    fn shapes() {
        let block = test_block();
        let x = test_input(4);
        let mut l = GatLayer::new(4, 6, true, 1);
        let y = l.forward(&block, &x);
        assert_eq!((y.rows(), y.cols()), (3, 6));
        let dx = l.backward(&block, &Tensor::zeros(3, 6));
        assert_eq!((dx.rows(), dx.cols()), (5, 4));
    }

    #[test]
    fn gradients_correct() {
        let block = test_block();
        let x = test_input(4);
        let mut l = GatLayer::new(4, 3, false, 2);
        check_layer(&mut l, &block, &x);
    }

    #[test]
    fn attention_weights_sum_to_one() {
        let block = test_block();
        let x = test_input(4);
        let mut l = GatLayer::new(4, 3, false, 3);
        let _ = l.forward(&block, &x);
        let alpha = l.cache_alpha.as_ref().unwrap();
        let mut cursor = 0;
        for d in 0..block.num_dst() {
            let n = block.degree(d);
            let sum: f32 = alpha[cursor..cursor + n].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "dst {d} alpha sum {sum}");
            cursor += n;
        }
    }

    #[test]
    fn uniform_attention_when_scores_equal() {
        // With a_l = a_r = 0, attention is uniform and GAT degenerates to
        // a mean aggregator (over z).
        let block = test_block();
        let x = test_input(3);
        let mut l = GatLayer::new(3, 3, false, 1);
        l.a_left.value.fill_zero();
        l.a_right.value.fill_zero();
        l.w.value.fill_zero();
        for i in 0..3 {
            l.w.value.set(i, i, 1.0);
        }
        let y = l.forward(&block, &x);
        let expect = block.mean(&x);
        for r in 0..3 {
            for c in 0..3 {
                assert!((y.get(r, c) - expect.get(r, c)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn param_count() {
        let mut l = GatLayer::new(4, 6, true, 1);
        assert_eq!(l.num_params(), 4 * 6 + 6 + 6 + 6);
    }
}
