//! Seeded input generation and the checksums outputs are compared with.
//! Every generator is a pure function of its seed: the program under test
//! only ever sees what these functions return.

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Order-sensitive checksum of the bit patterns of `x`, for vectors too
/// large to hash bytewise between timed rounds: four independent FNV-style
/// lanes over 32-bit words (so the multiplies pipeline), folded at the end.
/// Equal only for bitwise-equal vectors, up to 64-bit collisions.
pub fn checksum_f32(x: &[f32]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [0xcbf2_9ce4_8422_2325u64, 1, 2, 3];
    let chunks = x.chunks_exact(4);
    let rest = chunks.remainder();
    for c in chunks {
        for (lane, v) in lanes.iter_mut().zip(c) {
            *lane = (*lane ^ u64::from(v.to_bits())).wrapping_mul(PRIME);
        }
    }
    let mut h = lanes
        .iter()
        .fold(x.len() as u64, |h, l| (h ^ l).wrapping_mul(PRIME));
    for v in rest {
        h = (h ^ u64::from(v.to_bits())).wrapping_mul(PRIME);
    }
    h
}

/// SplitMix64 finaliser.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded heavy-tailed "gradient-like" vector: each element is a random
/// sign times the squared product of three uniforms on `(0, 1]`, so the top
/// 1 % of coordinates hold about 15 % of the mass (what top-k selection and
/// error feedback depend on) at a few nanoseconds per element — the
/// paper-scale workload needs two hundred million of them per run.
pub fn heavy_tailed(len: usize, seed: u64) -> Vec<f32> {
    const SCALE: f32 = 1.0 / (65536.0 * 65536.0 * 65536.0);
    let base = mix64(seed);
    (0..len as u64)
        .map(|i| {
            let h = mix64(base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let a = (h & 0xFFFF) as f32 + 1.0;
            let b = ((h >> 16) & 0xFFFF) as f32 + 1.0;
            let c = ((h >> 32) & 0xFFFF) as f32 + 1.0;
            let sign = if h >> 63 == 0 { 1.0 } else { -1.0 };
            let p = a * b * c * SCALE;
            sign * p * p
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        let hash = |x: &[f32]| {
            let bytes: Vec<u8> = x.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
            fnv1a(&bytes)
        };
        let a = heavy_tailed(10_000, 42);
        assert_eq!(hash(&a), hash(&heavy_tailed(10_000, 42)));
        assert_ne!(hash(&a), hash(&heavy_tailed(10_000, 43)));
        // A prefix of a longer vector is the shorter vector.
        assert_eq!(a[..100], heavy_tailed(100, 42)[..]);
    }

    #[test]
    fn generator_is_heavy_tailed_and_finite() {
        let x = heavy_tailed(100_000, 7);
        assert!(x
            .iter()
            .all(|v| v.is_finite() && *v != 0.0 && v.abs() <= 1.0));
        let mut mags: Vec<f32> = x.iter().map(|v| v.abs()).collect();
        mags.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let total: f32 = mags.iter().sum();
        let top1pct: f32 = mags[..1000].iter().sum();
        // A uniform vector would put 2 % of its mass in its top 1 %.
        assert!(top1pct / total > 0.12, "top 1 % holds {}", top1pct / total);
        let negatives = x.iter().filter(|v| **v < 0.0).count();
        assert!((45_000..55_000).contains(&negatives));
    }

    #[test]
    fn checksum_sees_order_length_and_single_bits() {
        let x = heavy_tailed(1003, 1);
        let base = checksum_f32(&x);
        assert_eq!(base, checksum_f32(&x.clone()));
        let mut y = x.clone();
        y.swap(10, 14); // same lane, different order
        assert_ne!(base, checksum_f32(&y));
        let mut z = x.clone();
        z[1002] = f32::from_bits(z[1002].to_bits() ^ 1); // in the remainder
        assert_ne!(base, checksum_f32(&z));
        assert_ne!(base, checksum_f32(&x[..1002]));
        assert_ne!(checksum_f32(&[0.0]), checksum_f32(&[-0.0]));
    }
}
