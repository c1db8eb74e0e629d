//! Positive fixture: cfg on a feature the manifest never declares.

#[cfg(feature = "warp_drive")] //~ unexpected_cfgs
pub fn gated() {}

pub fn always() {}
