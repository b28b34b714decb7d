//! Neural-network building blocks for the BlissCam reproduction.
//!
//! Layers are thin, explicitly-parameterised wrappers over
//! [`bliss_tensor::Tensor`] operations, and the layer structs own the
//! persistent parameter tensors. Each layer is written once, as an `apply`
//! method generic over the [`Builder`] trait: on the [`Tape`] engine it
//! runs define-by-run and records a fresh autograd graph (the `forward`
//! methods), and on [`bliss_tensor::GraphBuilder`] it records the static
//! DAG that planned inference compiles.
//!
//! The crate provides everything the paper's networks need:
//!
//! * [`Linear`], [`Conv2d`], [`DepthwiseSeparableConv2d`] — the ROI-prediction
//!   CNN (3 Conv + 2 FC, §III-A) and the RITnet/EdGaze-style baselines.
//! * [`MultiHeadAttention`], [`TransformerBlock`], [`LayerNormLayer`] — the
//!   sparse ViT segmenter (12-block encoder + 2-block decoder, §III-B).
//! * [`Adam`], [`Sgd`] — the joint-training optimizers (§III-C).
//!
//! Each layer exposes a `macs(...)` method for multiply-accumulate
//! accounting; the lowered GEMM workload descriptions consumed by the NPU
//! simulator live in `bliss-npu`.
//!
//! # Example
//!
//! ```
//! use bliss_nn::{Linear, Module, Sgd};
//! use bliss_tensor::{NdArray, Tensor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), bliss_tensor::TensorError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let layer = Linear::new(&mut rng, 4, 2);
//! let mut opt = Sgd::new(layer.parameters(), 0.1);
//! for _ in 0..10 {
//!     let x = Tensor::constant(NdArray::ones(&[3, 4]));
//!     let loss = layer.forward(&x)?.mse_loss(&NdArray::zeros(&[3, 2]))?;
//!     opt.zero_grad();
//!     loss.backward()?;
//!     opt.step();
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod attention;
mod builder;
mod init;
mod layers;
mod optim;
mod snapshot;

pub use attention::{MultiHeadAttention, TransformerBlock};
pub use builder::{Builder, Tape};
pub use init::{kaiming_normal, xavier_uniform};
pub use layers::{Conv2d, DepthwiseSeparableConv2d, LayerNormLayer, Linear, Mlp};
pub use optim::{clip_global_norm, Adam, Sgd};
pub use snapshot::{restore_params, snapshot_params, ParamSnapshot};

use bliss_tensor::Tensor;

/// A set of trainable parameters.
///
/// Every layer implements `Module`; composite networks collect the parameters
/// of their sub-layers. Forward signatures differ per layer (image vs token
/// inputs), so `Module` intentionally only standardises parameter access.
pub trait Module {
    /// All trainable parameter tensors of this module, in a stable order.
    fn parameters(&self) -> Vec<Tensor>;

    /// Total number of scalar parameters.
    fn num_parameters(&self) -> usize {
        self.parameters().iter().map(|p| p.value().len()).sum()
    }
}
