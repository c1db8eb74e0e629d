//! A minimal deep-learning framework: the training substrate of the
//! reproduction.
//!
//! The paper trains CNNs (ResNet-50, VGG-19) and a Transformer with
//! TensorFlow; convergence experiments here (Fig. 10, Table 2) need *real*
//! gradients flowing through real models, so this crate implements manual
//! backpropagation for the layer types those architectures are built from:
//!
//! * [`linear`] — fully connected layers,
//! * [`conv`] — 2-D convolutions and max pooling,
//! * [`norm`] — batch and layer normalisation,
//! * [`activation`] — ReLU,
//! * [`attention`] — single-head scaled dot-product self-attention,
//! * [`embedding`] — token + positional embeddings,
//! * [`loss`] — fused softmax cross-entropy and top-k accuracy,
//! * [`models`] — scaled-down reference models (ResNet-lite, VGG-lite,
//!   MLP, TinyTransformer) with the same *structure* as the paper's
//!   workloads,
//! * [`data`] — deterministic synthetic datasets (class-conditional images,
//!   patterned token sequences) standing in for ImageNet/WMT17.
//!
//! Models expose their parameters and gradients as **flat vectors** with
//! per-parameter-tensor ranges ([`model::Model::layer_ranges`]) — the
//! interface the distributed engine compresses, aggregates, and applies
//! LARS over.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod attention;
pub mod conv;
pub mod data;
pub mod embedding;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod math;
pub mod model;
pub mod models;
pub mod norm;
#[cfg(test)]
mod testutil;

pub use layer::{Layer, Param};
pub use model::{Input, Model, ParamRange};
