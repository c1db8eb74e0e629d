//! Quantized AllReduce: aggregate QSGD/TernGrad/sign-compressed gradients.
//!
//! Quantized codes are not summable on the wire (levels are relative to a
//! per-tensor scale), so the standard scheme is an AllGather of
//! `(scale, codes)` followed by local decode-and-sum — the quantization
//! sibling of the sparse NaiveAG path.

use cloudtrain_compress::quantize::{QuantizedGrad, Quantizer};
use cloudtrain_tensor::ops;

use crate::group::Transport;
use crate::ring::{all_gather_f32, all_gather_u32};

/// Packs i8 codes into u32 words (4 codes per word, little-endian).
pub fn pack_codes(codes: &[i8]) -> Vec<u32> {
    codes
        .chunks(4)
        .map(|c| {
            let mut w = 0u32;
            for (i, &b) in c.iter().enumerate() {
                w |= (b as u8 as u32) << (8 * i);
            }
            w
        })
        .collect()
}

/// Unpacks u32 words back to `len` i8 codes.
///
/// # Panics
/// Panics if `words` is too short for `len` codes.
pub fn unpack_codes(words: &[u32], len: usize) -> Vec<i8> {
    assert!(words.len() * 4 >= len, "unpack_codes: too few words");
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let w = words[i / 4];
        out.push(((w >> (8 * (i % 4))) & 0xFF) as u8 as i8);
    }
    out
}

/// Quantized AllReduce: every rank quantizes its gradient, the `(scale,
/// codes)` pairs are AllGathered, and each rank decodes and sums all of
/// them. On return `x` holds the sum of the quantized gradients (identical
/// on every rank). Returns the bytes this rank sent.
pub fn quantized_all_reduce<T: Transport + ?Sized, Q: Quantizer + ?Sized>(
    peer: &T,
    x: &mut [f32],
    quantizer: &mut Q,
) -> usize {
    let members: Vec<usize> = (0..peer.size()).collect();
    let q = quantizer.quantize(x);
    let wire = q.wire_bytes();
    let packed = pack_codes(&q.codes);

    let scales = all_gather_f32(peer, &[q.scale], &members);
    let code_blocks = all_gather_u32(peer, &packed, &members);
    let sent = wire * (members.len() - 1);

    ops::fill(x, 0.0);
    for (scale_block, codes_block) in scales.iter().zip(&code_blocks) {
        let decoded = QuantizedGrad {
            // lint:allow(panic_free, reason = "each gathered block is the one-element scale slice sent two lines up; all_gather preserves block length")
            scale: scale_block[0],
            codes: unpack_codes(codes_block, x.len()),
            levels: q.levels,
        };
        decoded.add_into(x);
    }
    sent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::run_on_group;
    use cloudtrain_compress::quantize::{Qsgd, ScaledSign};
    use cloudtrain_tensor::init;

    #[test]
    fn pack_unpack_roundtrip() {
        let codes: Vec<i8> = vec![-128, -1, 0, 1, 127, 5, -7];
        let packed = pack_codes(&codes);
        assert_eq!(packed.len(), 2);
        assert_eq!(unpack_codes(&packed, codes.len()), codes);
    }

    #[test]
    fn all_ranks_get_the_same_quantized_sum() {
        let (p, d) = (4usize, 300usize);
        let results = run_on_group(p, |peer| {
            let mut rng = init::rng_from_seed(8000 + peer.rank() as u64);
            let mut x = init::gradient_like_tensor(d, &mut rng).into_vec();
            let mut q = Qsgd::new(127, peer.rank() as u64);
            let sent = quantized_all_reduce(peer, &mut x, &mut q);
            (x, sent)
        });
        for (x, _) in &results[1..] {
            assert_eq!(x, &results[0].0);
        }
        // Wire: (4 + d codes at 8 bits) x (p-1).
        assert_eq!(results[0].1, (4 + d) * (p - 1));
    }

    #[test]
    fn quantized_sum_approximates_dense_sum() {
        let (p, d) = (4usize, 500usize);
        let mut dense = vec![0.0f32; d];
        for r in 0..p {
            let mut rng = init::rng_from_seed(8100 + r as u64);
            ops::add_assign(
                &mut dense,
                init::gradient_like_tensor(d, &mut rng).as_slice(),
            );
        }
        let results = run_on_group(p, |peer| {
            let mut rng = init::rng_from_seed(8100 + peer.rank() as u64);
            let mut x = init::gradient_like_tensor(d, &mut rng).into_vec();
            let mut q = Qsgd::new(127, 5);
            quantized_all_reduce(peer, &mut x, &mut q);
            x
        });
        // 127-level QSGD: relative error per worker ~ ||x||/127.
        let err = ops::linf_distance(&results[0], &dense);
        let scale = ops::max_abs(&dense);
        assert!(err < 0.25 * scale, "err {err} vs scale {scale}");
    }

    #[test]
    fn sign_all_reduce_majority_direction_survives() {
        // All workers agree on the sign pattern; the aggregated sign sum
        // must preserve it.
        let d = 64;
        let pattern: Vec<f32> = (0..d)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let results = run_on_group(4, |peer| {
            let mut x: Vec<f32> = pattern
                .iter()
                .map(|v| v * (1.0 + peer.rank() as f32))
                .collect();
            let mut q = ScaledSign;
            quantized_all_reduce(peer, &mut x, &mut q);
            x
        });
        for (i, v) in results[0].iter().enumerate() {
            assert_eq!(v.signum(), pattern[i].signum());
        }
    }
}
