//! GNN layers with explicit forward/backward.
//!
//! All layers implement [`Layer`]: they consume an [`Aggregation`] block
//! plus a source feature matrix (`num_src` rows) and produce a
//! destination matrix (`num_dst` rows). Hidden layers apply ReLU; the
//! final layer of a model is constructed without activation so its
//! output feeds the softmax cross-entropy loss directly.

pub mod gat;
pub mod gcn;
pub mod linear;
pub mod sage;

pub use gat::GatLayer;
pub use gcn::GcnLayer;
pub use linear::DenseLayer;
pub use sage::SageLayer;

use crate::block::Aggregation;
use crate::optim::Param;
use crate::tensor::Tensor;

/// A differentiable GNN layer.
pub trait Layer {
    /// Forward pass: `x` has `block.num_src()` rows; the result has
    /// `block.num_dst()` rows. Caches whatever backward needs.
    fn forward(&mut self, block: &Aggregation, x: &Tensor) -> Tensor;

    /// Backward pass: `dy` has `block.num_dst()` rows; returns the
    /// gradient w.r.t. `x` (`block.num_src()` rows) and accumulates
    /// parameter gradients. Must be called with the same block as the
    /// preceding [`Layer::forward`].
    fn backward(&mut self, block: &Aggregation, dy: &Tensor) -> Tensor;

    /// Mutable access to all trainable parameters.
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Input feature dimension.
    fn in_dim(&self) -> usize;

    /// Output feature dimension.
    fn out_dim(&self) -> usize;

    /// Reset all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of scalar parameters.
    fn num_params(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }
}

#[cfg(test)]
pub(crate) mod gradcheck {
    use super::*;

    /// Finite-difference gradient check for any layer: perturb each of a
    /// few input entries and parameters and compare against the analytic
    /// gradient of the scalar loss `L = sum(y)`.
    pub fn check_layer<L: Layer>(layer: &mut L, block: &Aggregation, x: &Tensor) {
        let eps = 3e-3f32;
        let tol = 3e-2f32;
        // Analytic gradients.
        layer.zero_grad();
        let y = layer.forward(block, x);
        let dy = Tensor::from_vec(y.rows(), y.cols(), vec![1.0; y.rows() * y.cols()]);
        let dx = layer.backward(block, &dy);

        let loss =
            |layer: &mut L, x: &Tensor| -> f32 { layer.forward(block, x).data().iter().sum() };

        // Check a handful of input coordinates.
        let mut xp = x.clone();
        let stride = (x.data().len() / 7).max(1);
        for i in (0..x.data().len()).step_by(stride) {
            let orig = xp.data()[i];
            xp.data_mut()[i] = orig + eps;
            let lp = loss(layer, &xp);
            xp.data_mut()[i] = orig - eps;
            let lm = loss(layer, &xp);
            xp.data_mut()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = dx.data()[i];
            assert!(
                (num - ana).abs() < tol * (1.0 + num.abs().max(ana.abs())),
                "input grad mismatch at {i}: numerical {num} vs analytic {ana}"
            );
        }

        // Check a handful of parameter coordinates. Snapshot analytic
        // gradients first (recomputing forward would clear caches).
        let grads: Vec<Vec<f32>> =
            layer.params_mut().iter().map(|p| p.grad.data().to_vec()).collect();
        for (pi, pgrads) in grads.iter().enumerate() {
            let plen = pgrads.len();
            let stride = (plen / 5).max(1);
            for i in (0..plen).step_by(stride) {
                let orig = layer.params_mut()[pi].value.data()[i];
                layer.params_mut()[pi].value.data_mut()[i] = orig + eps;
                let lp = loss(layer, x);
                layer.params_mut()[pi].value.data_mut()[i] = orig - eps;
                let lm = loss(layer, x);
                layer.params_mut()[pi].value.data_mut()[i] = orig;
                let num = (lp - lm) / (2.0 * eps);
                let ana = pgrads[i];
                assert!(
                    (num - ana).abs() < tol * (1.0 + num.abs().max(ana.abs())),
                    "param {pi} grad mismatch at {i}: numerical {num} vs analytic {ana}"
                );
            }
        }
    }

    /// A small test block: 3 destinations, 5 sources.
    pub fn test_block() -> Aggregation {
        Aggregation::from_lists(5, &[vec![1, 3, 4], vec![0, 2], vec![2, 4]])
    }

    /// Deterministic input features for the test block.
    pub fn test_input(cols: usize) -> Tensor {
        crate::init::synthetic_features(5, cols, 99)
    }
}
