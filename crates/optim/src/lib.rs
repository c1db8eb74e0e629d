//! Optimizers and learning-rate schedules for large-batch training.
//!
//! The paper's training recipe is synchronous SGD with momentum plus
//! **LARS** (You et al., 2018) for large-batch stability — LARS's
//! layer-wise learning-rate computation (Eq. 11) is also the workload the
//! parallel tensor operator (§4.2) distributes. LAMB (You et al., 2020) is
//! included as the paper mentions handling it with PTO "would be similar".
//!
//! * [`sgd`] — plain SGD and SGD with momentum (+ weight decay),
//! * [`lars`] — LARS with the Eq. 11 rate computation factored out so PTO
//!   can partition it over workers,
//! * [`adam`] — plain Adam (the adaptive baseline LAMB extends),
//! * [`lamb`] — LAMB (Adam + layer-wise trust ratio),
//! * [`schedule`] — warmup + step/cosine decay and the DAWNBench-style
//!   piecewise schedule,
//! * [`clip`] — global-norm gradient clipping (used by the Transformer),
//! * [`mixed`] — mixed-precision support: dynamic loss scaling and the
//!   FP16 gradient wire format (§5.5.2).

#![warn(missing_docs)]

pub mod adam;
pub mod clip;
pub mod lamb;
pub mod lars;
pub mod mixed;
pub mod schedule;
pub mod sgd;

pub use lars::{Lars, LarsConfig};
pub use schedule::LrSchedule;
pub use sgd::{Momentum, Sgd};

/// An optimizer stepping a flat parameter vector.
pub trait Optimizer: Send {
    /// Applies one update: `params` are modified in place from `grads`
    /// (already aggregated across workers) at learning rate `lr`.
    ///
    /// # Panics
    /// Implementations panic if `params` and `grads` lengths differ or do
    /// not match the state the optimizer was built for.
    fn step(&mut self, params: &mut [f32], grads: &[f32], lr: f32);

    /// Optimizer name for logs and tables.
    fn name(&self) -> &'static str;
}
