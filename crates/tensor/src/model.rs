//! GNN model: a stack of layers of one architecture.

use crate::block::Aggregation;
use crate::layers::{GatLayer, GcnLayer, Layer, SageLayer};
use crate::loss::{accuracy, cross_entropy};
use crate::optim::Optimizer;
use crate::tensor::Tensor;

/// GNN architecture (the paper evaluates all three on DistDGL; DistGNN
/// supports GraphSAGE only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// GraphSAGE with mean aggregator.
    Sage,
    /// GCN with mean normalisation.
    Gcn,
    /// Single-head GAT.
    Gat,
}

impl ModelKind {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Sage => "GraphSage",
            ModelKind::Gcn => "GCN",
            ModelKind::Gat => "GAT",
        }
    }

    /// Parse a case-insensitive name.
    pub fn parse(s: &str) -> Option<ModelKind> {
        match s.to_ascii_lowercase().as_str() {
            "sage" | "graphsage" => Some(ModelKind::Sage),
            "gcn" => Some(ModelKind::Gcn),
            "gat" => Some(ModelKind::Gat),
            _ => None,
        }
    }
}

/// Hyper-parameters of a GNN model (paper Table 3).
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Architecture.
    pub kind: ModelKind,
    /// Input feature dimension (16 / 64 / 512 in the paper).
    pub feature_dim: usize,
    /// Hidden dimension (16 / 64 / 512 in the paper).
    pub hidden_dim: usize,
    /// Number of GNN layers (2 / 3 / 4 in the paper).
    pub num_layers: usize,
    /// Output classes.
    pub num_classes: usize,
    /// Parameter-initialisation seed.
    pub seed: u64,
}

impl ModelConfig {
    /// Dimensions of layer `i`: `(in, out)`.
    pub fn layer_dims(&self, i: usize) -> (usize, usize) {
        let input = if i == 0 { self.feature_dim } else { self.hidden_dim };
        let output = if i + 1 == self.num_layers { self.num_classes } else { self.hidden_dim };
        (input, output)
    }
}

/// A trainable GNN: `num_layers` layers of one [`ModelKind`]; the last
/// layer produces logits (no activation).
pub struct GnnModel {
    config: ModelConfig,
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for GnnModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GnnModel({}, {} layers)", self.config.kind.name(), self.layers.len())
    }
}

impl GnnModel {
    /// Build a model from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers == 0` or any dimension is zero.
    pub fn new(config: ModelConfig) -> Self {
        assert!(config.num_layers > 0, "need at least one layer");
        assert!(
            config.feature_dim > 0 && config.hidden_dim > 0 && config.num_classes > 0,
            "dimensions must be positive"
        );
        let mut layers: Vec<Box<dyn Layer>> = Vec::with_capacity(config.num_layers);
        for i in 0..config.num_layers {
            let (input, output) = config.layer_dims(i);
            let relu = i + 1 != config.num_layers;
            let seed = config.seed.wrapping_add(i as u64 * 0x9e37);
            layers.push(match config.kind {
                ModelKind::Sage => Box::new(SageLayer::new(input, output, relu, seed)),
                ModelKind::Gcn => Box::new(GcnLayer::new(input, output, relu, seed)),
                ModelKind::Gat => Box::new(GatLayer::new(input, output, relu, seed)),
            });
        }
        GnnModel { config, layers }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Forward pass through all layers. `blocks[i]` feeds layer `i`
    /// (outermost sampled hop first); `x` has `blocks[0].num_src()` rows.
    ///
    /// # Panics
    ///
    /// Panics if `blocks.len() != num_layers()` or shapes mismatch.
    pub fn forward(&mut self, blocks: &[&Aggregation], x: &Tensor) -> Tensor {
        assert_eq!(blocks.len(), self.layers.len(), "one block per layer");
        let mut h = x.clone();
        for (layer, block) in self.layers.iter_mut().zip(blocks.iter()) {
            h = layer.forward(block, &h);
        }
        h
    }

    /// Full-batch convenience: use the same block for every layer.
    pub fn forward_full(&mut self, block: &Aggregation, x: &Tensor) -> Tensor {
        let blocks: Vec<&Aggregation> = std::iter::repeat_n(block, self.layers.len()).collect();
        self.forward(&blocks, x)
    }

    /// Backward pass (after [`Self::forward`]) from the loss gradient.
    pub fn backward(&mut self, blocks: &[&Aggregation], dlogits: &Tensor) {
        assert_eq!(blocks.len(), self.layers.len(), "one block per layer");
        let mut grad = dlogits.clone();
        for (layer, block) in self.layers.iter_mut().zip(blocks.iter()).rev() {
            grad = layer.backward(block, &grad);
        }
    }

    /// Zero all parameter gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Apply one optimiser step to all parameters.
    pub fn step<O: Optimizer>(&mut self, opt: &mut O) {
        opt.begin_step();
        for l in &mut self.layers {
            for p in l.params_mut() {
                opt.update(p);
            }
        }
    }

    /// One full training step: forward, loss, backward, update.
    /// Returns `(loss, accuracy)` on the batch.
    pub fn train_step<O: Optimizer>(
        &mut self,
        blocks: &[&Aggregation],
        x: &Tensor,
        labels: &[u32],
        opt: &mut O,
    ) -> (f32, f64) {
        self.zero_grad();
        let logits = self.forward(blocks, x);
        let (loss, dlogits) = cross_entropy(&logits, labels);
        let acc = accuracy(&logits, labels);
        self.backward(blocks, &dlogits);
        self.step(opt);
        (loss, acc)
    }

    /// Total number of scalar parameters.
    pub fn num_params(&mut self) -> usize {
        self.layers.iter_mut().map(|l| l.num_params()).sum()
    }

    /// Size of all parameters (and hence of one gradient all-reduce
    /// message) in bytes.
    pub fn param_bytes(&mut self) -> u64 {
        self.num_params() as u64 * 4
    }

    /// Average gradients across model replicas in place (the all-reduce
    /// of data-parallel training). All models must share an identical
    /// architecture.
    ///
    /// # Panics
    ///
    /// Panics if the replica architectures disagree.
    pub fn allreduce_grads(replicas: &mut [&mut GnnModel]) {
        if replicas.len() <= 1 {
            return;
        }
        let n = replicas.len() as f32;
        let num_layers = replicas[0].layers.len();
        for li in 0..num_layers {
            // Sum grads parameter by parameter into the first replica…
            let num_params = replicas[0].layers[li].params_mut().len();
            for pi in 0..num_params {
                let mut acc = {
                    let p0 = &mut replicas[0].layers[li].params_mut()[pi].grad;
                    p0.clone()
                };
                for r in replicas.iter_mut().skip(1) {
                    acc.add_assign(&r.layers[li].params_mut()[pi].grad);
                }
                acc.scale(1.0 / n);
                // …then broadcast the mean back.
                for r in replicas.iter_mut() {
                    let p = &mut r.layers[li].params_mut()[pi].grad;
                    assert_eq!(
                        (p.rows(), p.cols()),
                        (acc.rows(), acc.cols()),
                        "replica architectures differ"
                    );
                    p.data_mut().copy_from_slice(acc.data());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;

    fn chain_block(n: usize) -> Aggregation {
        // Every vertex aggregates from its predecessor (vertex 0 from
        // itself), sources == destinations == n.
        let lists: Vec<Vec<u32>> =
            (0..n).map(|i| vec![if i == 0 { 0 } else { (i - 1) as u32 }]).collect();
        Aggregation::from_lists(n, &lists)
    }

    fn mk(kind: ModelKind) -> GnnModel {
        GnnModel::new(ModelConfig {
            kind,
            feature_dim: 6,
            hidden_dim: 8,
            num_layers: 2,
            num_classes: 3,
            seed: 7,
        })
    }

    #[test]
    fn forward_shapes_all_kinds() {
        let block = chain_block(10);
        let x = crate::init::synthetic_features(10, 6, 1);
        for kind in [ModelKind::Sage, ModelKind::Gcn, ModelKind::Gat] {
            let mut m = mk(kind);
            let y = m.forward_full(&block, &x);
            assert_eq!((y.rows(), y.cols()), (10, 3), "{}", kind.name());
        }
    }

    #[test]
    fn training_reduces_loss() {
        let block = chain_block(32);
        let x = crate::init::synthetic_features(32, 6, 2);
        let labels: Vec<u32> = (0..32).map(|i| i % 3).collect();
        for kind in [ModelKind::Sage, ModelKind::Gcn, ModelKind::Gat] {
            let mut m = mk(kind);
            let mut opt = Adam::new(0.02);
            let blocks = [&block, &block];
            let (first_loss, _) = m.train_step(&blocks, &x, &labels, &mut opt);
            let mut last_loss = first_loss;
            for _ in 0..200 {
                let (l, _) = m.train_step(&blocks, &x, &labels, &mut opt);
                last_loss = l;
            }
            assert!(
                last_loss < 0.7 * first_loss,
                "{}: loss {first_loss} -> {last_loss}",
                kind.name()
            );
        }
    }

    #[test]
    fn layer_dims_follow_config() {
        let c = ModelConfig {
            kind: ModelKind::Sage,
            feature_dim: 16,
            hidden_dim: 64,
            num_layers: 3,
            num_classes: 10,
            seed: 0,
        };
        assert_eq!(c.layer_dims(0), (16, 64));
        assert_eq!(c.layer_dims(1), (64, 64));
        assert_eq!(c.layer_dims(2), (64, 10));
    }

    #[test]
    fn allreduce_averages() {
        let block = chain_block(8);
        let x = crate::init::synthetic_features(8, 6, 3);
        let labels: Vec<u32> = (0..8).map(|i| i % 3).collect();
        let mut m1 = mk(ModelKind::Sage);
        let mut m2 = mk(ModelKind::Sage);
        // Different data → different grads.
        let x2 = crate::init::synthetic_features(8, 6, 4);
        for (m, xx) in [(&mut m1, &x), (&mut m2, &x2)] {
            m.zero_grad();
            let logits = m.forward_full(&block, xx);
            let (_, d) = crate::loss::cross_entropy(&logits, &labels);
            m.backward(&[&block, &block], &d);
        }
        let g1_before = m1.layers[0].params_mut()[0].grad.clone();
        let g2_before = m2.layers[0].params_mut()[0].grad.clone();
        GnnModel::allreduce_grads(&mut [&mut m1, &mut m2]);
        let g1_after = m1.layers[0].params_mut()[0].grad.clone();
        let g2_after = m2.layers[0].params_mut()[0].grad.clone();
        assert_eq!(g1_after, g2_after);
        for i in 0..g1_after.data().len() {
            let expect = 0.5 * (g1_before.data()[i] + g2_before.data()[i]);
            assert!((g1_after.data()[i] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn parse_kind() {
        assert_eq!(ModelKind::parse("GraphSAGE"), Some(ModelKind::Sage));
        assert_eq!(ModelKind::parse("gcn"), Some(ModelKind::Gcn));
        assert_eq!(ModelKind::parse("GAT"), Some(ModelKind::Gat));
        assert_eq!(ModelKind::parse("mlp"), None);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn rejects_zero_layers() {
        let _ = GnnModel::new(ModelConfig {
            kind: ModelKind::Sage,
            feature_dim: 4,
            hidden_dim: 4,
            num_layers: 0,
            num_classes: 2,
            seed: 0,
        });
    }
}
