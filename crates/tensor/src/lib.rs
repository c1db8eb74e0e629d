//! Dense tensor primitives for the `cloudtrain` distributed-training stack.
//!
//! This crate provides the small, allocation-conscious numeric core that the
//! rest of the workspace builds on:
//!
//! * [`Tensor`] — a shaped, contiguous `f32` buffer with elementwise and
//!   reduction kernels tuned for the access patterns of gradient processing
//!   (scale/axpy/norm over multi-million element vectors).
//! * [`ops`] — free functions over `&[f32]` slices; these are the hot kernels
//!   shared by the compression operators and the collectives.
//! * [`half`] — a bit-accurate software IEEE 754 binary16 (`f16`) used for
//!   FP16 wire formats (the paper transmits FP16 elements in Fig. 7).
//! * [`init`] — seeded random initialisation (uniform, normal, Xavier, He).
//! * [`partition`] — contiguous range partitioning of a `d`-element vector
//!   over `P` workers, the indexing scheme used by ReduceScatter, the
//!   hierarchical top-k communication, and the parallel tensor operator.
//!
//! Everything is deterministic given a seed; no global RNG state is used.

#![warn(missing_docs)]

mod buffer;
mod error;
pub mod half;
pub mod init;
pub mod ops;
pub mod partition;

pub use buffer::Tensor;
pub use error::{ShapeError, ShapeResult};
