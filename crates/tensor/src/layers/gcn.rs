//! GCN layer (Kipf & Welling, ICLR 2017), mean-normalised variant.
//!
//! `y_d = act( (½ x_d + ½ mean_{s ∈ N(d)}(x_s)) · W + b )`
//!
//! The self-loop term of the original symmetric normalisation is
//! approximated by averaging the destination's own representation with
//! its neighbour mean — the standard "GCN with mean norm" used when
//! degrees differ between the sampled block and the full graph.

use crate::block::Aggregation;
use crate::init::xavier_uniform;
use crate::layers::Layer;
use crate::ops::{relu_backward_inplace, relu_inplace};
use crate::optim::Param;
use crate::tensor::Tensor;

/// GCN layer with mean normalisation.
#[derive(Debug)]
pub struct GcnLayer {
    w: Param,
    b: Param,
    relu: bool,
    in_dim: usize,
    out_dim: usize,
    cache_h: Option<Tensor>,
    cache_y: Option<Tensor>,
}

impl GcnLayer {
    /// New GCN layer. `relu = false` for the final (logit) layer.
    pub fn new(in_dim: usize, out_dim: usize, relu: bool, seed: u64) -> Self {
        GcnLayer {
            w: Param::new(xavier_uniform(in_dim, out_dim, seed)),
            b: Param::new(Tensor::zeros(1, out_dim)),
            relu,
            in_dim,
            out_dim,
            cache_h: None,
            cache_y: None,
        }
    }
}

impl Layer for GcnLayer {
    fn forward(&mut self, block: &Aggregation, x: &Tensor) -> Tensor {
        assert_eq!(x.rows(), block.num_src(), "x rows must equal num_src");
        assert_eq!(x.cols(), self.in_dim);
        // h = ½ x_dst + ½ mean(x)
        let mut h = block.mean(x);
        h.scale(0.5);
        for d in 0..block.num_dst() {
            let row = h.row_mut(d);
            for (o, &v) in row.iter_mut().zip(x.row(d).iter()) {
                *o += 0.5 * v;
            }
        }
        let mut y = h.matmul(&self.w.value);
        y.add_bias(self.b.value.row(0));
        if self.relu {
            relu_inplace(&mut y);
        }
        self.cache_h = Some(h);
        self.cache_y = Some(y.clone());
        y
    }

    fn backward(&mut self, block: &Aggregation, dy: &Tensor) -> Tensor {
        let h = self.cache_h.take().expect("forward before backward");
        let y = self.cache_y.take().expect("forward before backward");
        let mut dy = dy.clone();
        if self.relu {
            relu_backward_inplace(&mut dy, &y);
        }
        self.w.grad.add_assign(&h.matmul_at_b(&dy));
        self.b.grad.add_assign(&Tensor::from_vec(1, self.out_dim, dy.sum_rows()));
        let mut dh = dy.matmul_a_bt(&self.w.value);
        dh.scale(0.5);
        // dh flows to sources through the mean and to destinations
        // directly (both scaled by ½, already applied above).
        let mut dx = block.mean_backward(&dh);
        for d in 0..block.num_dst() {
            let row = dx.row_mut(d);
            for (o, &v) in row.iter_mut().zip(dh.row(d).iter()) {
                *o += v;
            }
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
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
        let mut l = GcnLayer::new(4, 6, true, 1);
        let y = l.forward(&block, &x);
        assert_eq!((y.rows(), y.cols()), (3, 6));
        let dx = l.backward(&block, &Tensor::zeros(3, 6));
        assert_eq!((dx.rows(), dx.cols()), (5, 4));
    }

    #[test]
    fn gradients_correct() {
        let block = test_block();
        let x = test_input(4);
        let mut l = GcnLayer::new(4, 3, false, 2);
        check_layer(&mut l, &block, &x);
    }

    #[test]
    fn identity_weight_averages_self_and_neighbors() {
        let block = test_block();
        let x = test_input(3);
        let mut l = GcnLayer::new(3, 3, false, 1);
        l.w.value.fill_zero();
        for i in 0..3 {
            l.w.value.set(i, i, 1.0);
        }
        let y = l.forward(&block, &x);
        let agg = block.mean(&x);
        for r in 0..3 {
            for c in 0..3 {
                let expect = 0.5 * x.get(r, c) + 0.5 * agg.get(r, c);
                assert!((y.get(r, c) - expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn param_count() {
        let mut l = GcnLayer::new(4, 6, true, 1);
        assert_eq!(l.num_params(), 4 * 6 + 6);
    }
}
