//! Shared test data for the bitwise kernel-vs-reference tests.

/// A xorshift stream (the tests need reproducible bits, not quality).
fn xorshift(seed: u64) -> impl FnMut() -> u32 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 16) as u32
    }
}

/// Deterministic finite data mixing the values that expose a changed start
/// value or summation order: `+0.0`, `-0.0`, subnormals of either sign, and
/// ordinary magnitudes spread over 24 binades.
pub fn tricky(len: usize, seed: u64) -> Vec<f32> {
    let mut next = xorshift(seed);
    (0..len)
        .map(|_| {
            let r = next();
            let sign = r & 0x8000_0000;
            match r % 8 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(sign | (r & 0x007f_ffff)),
                _ => f32::from_bits(sign | (((r >> 8) % 24 + 115) << 23) | (r & 0x007f_ffff)),
            }
        })
        .collect()
}

/// Overwrites `count` seeded positions of `x` with NaN, `+inf` and `-inf`
/// in turn: few enough that most chains of a reduction stay finite.
pub fn poison(x: &mut [f32], seed: u64, count: usize) {
    if x.is_empty() {
        return;
    }
    let mut next = xorshift(seed ^ 0xdead_beef);
    for i in 0..count {
        let at = usize::try_from(next()).expect("usize holds a u32") % x.len();
        x[at] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][i % 3];
    }
}

/// The bit patterns of `x`.
pub fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// [`bits`] with every NaN mapped to the canonical quiet NaN, for
/// [`poison`]ed data: which operand's sign and payload a NaN result inherits
/// depends on an operand order the compiler is free to commute, so it is not
/// part of what a kernel and its reference must agree on.
pub fn bits_any_nan(x: &[f32]) -> Vec<u32> {
    x.iter()
        .map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() })
        .collect()
}
