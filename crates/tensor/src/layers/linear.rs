//! Dense (fully-connected) layer.
//!
//! Ignores the block topology except for selecting the destination rows;
//! useful as an MLP baseline and as the building block the GNN layers
//! are tested against.

use crate::block::Aggregation;
use crate::init::xavier_uniform;
use crate::layers::Layer;
use crate::ops::{relu_backward_inplace, relu_inplace};
use crate::optim::Param;
use crate::tensor::Tensor;

/// `y = act(x_dst · W + b)`.
#[derive(Debug)]
pub struct DenseLayer {
    w: Param,
    b: Param,
    relu: bool,
    in_dim: usize,
    out_dim: usize,
    cache_x_dst: Option<Tensor>,
    cache_y: Option<Tensor>,
}

impl DenseLayer {
    /// New dense layer. `relu = false` for the final (logit) layer.
    pub fn new(in_dim: usize, out_dim: usize, relu: bool, seed: u64) -> Self {
        DenseLayer {
            w: Param::new(xavier_uniform(in_dim, out_dim, seed)),
            b: Param::new(Tensor::zeros(1, out_dim)),
            relu,
            in_dim,
            out_dim,
            cache_x_dst: None,
            cache_y: None,
        }
    }
}

impl Layer for DenseLayer {
    fn forward(&mut self, block: &Aggregation, x: &Tensor) -> Tensor {
        assert_eq!(x.rows(), block.num_src(), "x rows must equal num_src");
        assert_eq!(x.cols(), self.in_dim);
        let dst_idx: Vec<u32> = (0..block.num_dst() as u32).collect();
        let x_dst = x.select_rows(&dst_idx);
        let mut y = x_dst.matmul(&self.w.value);
        y.add_bias(self.b.value.row(0));
        if self.relu {
            relu_inplace(&mut y);
        }
        self.cache_x_dst = Some(x_dst);
        self.cache_y = Some(y.clone());
        y
    }

    fn backward(&mut self, block: &Aggregation, dy: &Tensor) -> Tensor {
        let x_dst = self.cache_x_dst.take().expect("forward before backward");
        let y = self.cache_y.take().expect("forward before backward");
        let mut dy = dy.clone();
        if self.relu {
            relu_backward_inplace(&mut dy, &y);
        }
        self.w.grad.add_assign(&x_dst.matmul_at_b(&dy));
        self.b.grad.add_assign(&Tensor::from_vec(1, self.out_dim, dy.sum_rows()));
        let dx_dst = dy.matmul_a_bt(&self.w.value);
        // Scatter onto the full source gradient (non-destination sources
        // receive zero gradient from a dense layer).
        let mut dx = Tensor::zeros(block.num_src(), self.in_dim);
        for d in 0..block.num_dst() {
            dx.row_mut(d).copy_from_slice(dx_dst.row(d));
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
        let mut l = DenseLayer::new(4, 6, true, 1);
        let y = l.forward(&block, &x);
        assert_eq!((y.rows(), y.cols()), (3, 6));
        let dy = Tensor::zeros(3, 6);
        let dx = l.backward(&block, &dy);
        assert_eq!((dx.rows(), dx.cols()), (5, 4));
    }

    #[test]
    fn gradients_correct() {
        let block = test_block();
        let x = test_input(4);
        let mut l = DenseLayer::new(4, 3, false, 2);
        check_layer(&mut l, &block, &x);
    }

    #[test]
    fn relu_masks_negative_outputs() {
        let block = test_block();
        let x = test_input(4);
        let mut l = DenseLayer::new(4, 8, true, 3);
        let y = l.forward(&block, &x);
        assert!(y.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn param_count() {
        let mut l = DenseLayer::new(4, 6, true, 1);
        assert_eq!(l.num_params(), 4 * 6 + 6);
    }

    #[test]
    #[should_panic(expected = "forward before backward")]
    fn backward_requires_forward() {
        let block = test_block();
        let mut l = DenseLayer::new(4, 3, false, 1);
        let _ = l.backward(&block, &Tensor::zeros(3, 3));
    }
}
