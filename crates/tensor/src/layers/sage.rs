//! GraphSAGE layer with mean aggregator (Hamilton et al., NeurIPS 2017).
//!
//! `y_d = act( x_d · W_self + mean_{s ∈ N(d)}(x_s) · W_neigh + b )`
//!
//! This is the model DistGNN supports and the paper's primary
//! architecture.

use crate::block::Aggregation;
use crate::init::xavier_uniform;
use crate::layers::Layer;
use crate::ops::{relu_backward_inplace, relu_inplace};
use crate::optim::Param;
use crate::tensor::Tensor;

/// GraphSAGE-mean layer.
#[derive(Debug)]
pub struct SageLayer {
    w_self: Param,
    w_neigh: Param,
    b: Param,
    relu: bool,
    in_dim: usize,
    out_dim: usize,
    cache_x_dst: Option<Tensor>,
    cache_agg: Option<Tensor>,
    cache_y: Option<Tensor>,
}

impl SageLayer {
    /// New GraphSAGE layer. `relu = false` for the final (logit) layer.
    pub fn new(in_dim: usize, out_dim: usize, relu: bool, seed: u64) -> Self {
        SageLayer {
            w_self: Param::new(xavier_uniform(in_dim, out_dim, seed)),
            w_neigh: Param::new(xavier_uniform(in_dim, out_dim, seed ^ 0x5a5a)),
            b: Param::new(Tensor::zeros(1, out_dim)),
            relu,
            in_dim,
            out_dim,
            cache_x_dst: None,
            cache_agg: None,
            cache_y: None,
        }
    }
}

impl Layer for SageLayer {
    fn forward(&mut self, block: &Aggregation, x: &Tensor) -> Tensor {
        assert_eq!(x.rows(), block.num_src(), "x rows must equal num_src");
        assert_eq!(x.cols(), self.in_dim);
        let dst_idx: Vec<u32> = (0..block.num_dst() as u32).collect();
        let x_dst = x.select_rows(&dst_idx);
        let agg = block.mean(x);
        let mut y = x_dst.matmul(&self.w_self.value);
        y.add_assign(&agg.matmul(&self.w_neigh.value));
        y.add_bias(self.b.value.row(0));
        if self.relu {
            relu_inplace(&mut y);
        }
        self.cache_x_dst = Some(x_dst);
        self.cache_agg = Some(agg);
        self.cache_y = Some(y.clone());
        y
    }

    fn backward(&mut self, block: &Aggregation, dy: &Tensor) -> Tensor {
        let x_dst = self.cache_x_dst.take().expect("forward before backward");
        let agg = self.cache_agg.take().expect("forward before backward");
        let y = self.cache_y.take().expect("forward before backward");
        let mut dy = dy.clone();
        if self.relu {
            relu_backward_inplace(&mut dy, &y);
        }
        self.w_self.grad.add_assign(&x_dst.matmul_at_b(&dy));
        self.w_neigh.grad.add_assign(&agg.matmul_at_b(&dy));
        self.b.grad.add_assign(&Tensor::from_vec(1, self.out_dim, dy.sum_rows()));
        // Gradient to sources: through the self path (destinations only)
        // and through the mean aggregation (all sources).
        let dx_self = dy.matmul_a_bt(&self.w_self.value);
        let dagg = dy.matmul_a_bt(&self.w_neigh.value);
        let mut dx = block.mean_backward(&dagg);
        for d in 0..block.num_dst() {
            let row = dx.row_mut(d);
            for (o, &v) in row.iter_mut().zip(dx_self.row(d).iter()) {
                *o += v;
            }
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w_self, &mut self.w_neigh, &mut self.b]
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
        let mut l = SageLayer::new(4, 6, true, 1);
        let y = l.forward(&block, &x);
        assert_eq!((y.rows(), y.cols()), (3, 6));
        let dx = l.backward(&block, &Tensor::zeros(3, 6));
        assert_eq!((dx.rows(), dx.cols()), (5, 4));
    }

    #[test]
    fn gradients_correct() {
        let block = test_block();
        let x = test_input(4);
        let mut l = SageLayer::new(4, 3, false, 2);
        check_layer(&mut l, &block, &x);
    }

    #[test]
    fn aggregates_neighbors() {
        // With W_self = 0 and W_neigh = I, the output equals the
        // neighbour mean.
        let block = test_block();
        let x = test_input(3);
        let mut l = SageLayer::new(3, 3, false, 1);
        l.w_self.value.fill_zero();
        l.w_neigh.value.fill_zero();
        for i in 0..3 {
            l.w_neigh.value.set(i, i, 1.0);
        }
        let y = l.forward(&block, &x);
        let expect = block.mean(&x);
        for r in 0..3 {
            for c in 0..3 {
                assert!((y.get(r, c) - expect.get(r, c)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn param_count() {
        let mut l = SageLayer::new(4, 6, true, 1);
        assert_eq!(l.num_params(), 2 * 4 * 6 + 6);
    }

    #[test]
    fn zero_grad_resets() {
        let block = test_block();
        let x = test_input(4);
        let mut l = SageLayer::new(4, 3, false, 2);
        let y = l.forward(&block, &x);
        let dy = Tensor::from_vec(y.rows(), y.cols(), vec![1.0; 9]);
        let _ = l.backward(&block, &dy);
        assert!(l.w_self.grad.norm() > 0.0);
        l.zero_grad();
        assert_eq!(l.w_self.grad.norm(), 0.0);
    }
}
