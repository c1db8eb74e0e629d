//! The aggregation strategies the paper compares.

use cloudtrain_collectives::gtopk;
use serde::{Deserialize, Serialize};

/// Gradient-aggregation scheme for one training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// Dense synchronous SGD with NCCL's tree AllReduce ("Dense-SGD" /
    /// "TreeAR"): the plain TensorFlow+Horovod baseline, FP32 wire.
    DenseTreeAr,
    /// Dense synchronous SGD with the 2D-Torus AllReduce ("2DTAR-SGD"),
    /// FP16 wire (CommLib).
    DenseTorus,
    /// Exact top-k sparsification with the flat sparse AllGather
    /// ("TopK-SGD" / NaiveAG): exact GPU top-k + TF `IndexedSlices`
    /// (FP32 values, int64 indices, host staging).
    TopKNaiveAg {
        /// Density ρ (fraction of coordinates sent).
        rho: f64,
    },
    /// The paper's scheme ("MSTopK-SGD"): approximate top-k + HiTopKComm,
    /// packed FP32/int32 wire on GPU buffers.
    MsTopKHiTopK {
        /// Density ρ.
        rho: f64,
        /// MSTopK threshold-search iterations (`N`, paper uses 30).
        samplings: usize,
    },
    /// gTop-k SGD (Shi et al. 2019, §6): global top-k by recursive
    /// doubling, keeping exactly `ρ·d` entries end to end.
    GTopK {
        /// Density ρ.
        rho: f64,
    },
    /// QSGD (Alistarh et al. 2017, §6): unbiased stochastic quantization
    /// aggregated by a flat code AllGather.
    Qsgd {
        /// Positive quantization levels (127 = 8-bit codes).
        levels: u8,
    },
}

impl Strategy {
    /// Short label used in tables and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::DenseTreeAr => "Dense-SGD",
            Strategy::DenseTorus => "2DTAR-SGD",
            Strategy::TopKNaiveAg { .. } => "TopK-SGD",
            Strategy::MsTopKHiTopK { .. } => "MSTopK-SGD",
            Strategy::GTopK { .. } => "gTopK-SGD",
            Strategy::Qsgd { .. } => "QSGD",
        }
    }

    /// Whether gradients are sparsified (and thus need error feedback).
    pub fn is_sparse(&self) -> bool {
        matches!(
            self,
            Strategy::TopKNaiveAg { .. } | Strategy::MsTopKHiTopK { .. } | Strategy::GTopK { .. }
        )
    }

    /// Whether the strategy's collective can run over `world` ranks; `Err`
    /// carries the one-line reason. Only gTop-k constrains the world
    /// ([`gtopk::check_world`]: a power of two).
    pub fn check_world(&self, world: usize) -> Result<(), String> {
        match self {
            Strategy::GTopK { .. } => gtopk::check_world(world),
            _ => Ok(()),
        }
    }

    /// The paper's default MSTopK-SGD configuration (ρ = 0.01, N = 30).
    pub fn mstopk_default() -> Self {
        Strategy::MsTopKHiTopK {
            rho: 0.01,
            samplings: 30,
        }
    }

    /// The paper's default TopK-SGD configuration (ρ = 0.01).
    pub fn topk_default() -> Self {
        Strategy::TopKNaiveAg { rho: 0.01 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_sparsity() {
        assert_eq!(Strategy::DenseTreeAr.label(), "Dense-SGD");
        assert!(!Strategy::DenseTreeAr.is_sparse());
        assert!(!Strategy::DenseTorus.is_sparse());
        assert!(Strategy::topk_default().is_sparse());
        assert!(Strategy::mstopk_default().is_sparse());
    }

    #[test]
    fn only_gtopk_constrains_the_world() {
        for world in [1, 2, 8, 16] {
            assert_eq!(Strategy::GTopK { rho: 0.01 }.check_world(world), Ok(()));
        }
        for world in [3, 6, 12, 24] {
            let why = Strategy::GTopK { rho: 0.01 }
                .check_world(world)
                .unwrap_err();
            assert!(why.contains(&format!("got {world} ranks")), "{why}");
            assert_eq!(Strategy::mstopk_default().check_world(world), Ok(()));
            assert_eq!(Strategy::DenseTorus.check_world(world), Ok(()));
        }
    }

    #[test]
    fn serde_roundtrip() {
        let s = Strategy::mstopk_default();
        let json = serde_json::to_string(&s).unwrap();
        let back: Strategy = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
