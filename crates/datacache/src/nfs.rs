//! A deterministic synthetic networked file system.
//!
//! Stands in for the cloud NFS (CFS) holding the training set: every sample
//! id maps to a reproducible JPEG-like blob (pseudo-random bytes behind a
//! small header), and every fetch is charged NFS-class virtual time. The
//! blob layout is what [`crate::decode`] parses, so the full read→decode→
//! cache path does real byte work.

use bytes::{BufMut, Bytes, BytesMut};

use crate::timing::StorageSpec;
use crate::SampleId;

/// Header length of a synthetic blob: pixel count (u32) + class label (u32).
pub const BLOB_HEADER: usize = 8;

/// Statistics of one blob source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NfsStats {
    /// Number of fetches served.
    pub fetches: u64,
    /// Total bytes served.
    pub bytes: u64,
}

/// Deterministic remote blob store with NFS-class virtual timing.
#[derive(Debug)]
pub struct SyntheticNfs {
    spec: StorageSpec,
    /// Decoded sample size in pixels (e.g. 96*96*3 for the DAWNBench warmup
    /// resolution).
    pixels: usize,
    /// Dataset-level seed, so different datasets produce different blobs.
    seed: u64,
    stats: NfsStats,
}

impl SyntheticNfs {
    /// Creates a store whose samples decode to `pixels` values each.
    pub fn new(pixels: usize, seed: u64) -> Self {
        Self {
            spec: StorageSpec::nfs(),
            pixels,
            seed,
            stats: NfsStats::default(),
        }
    }

    /// Overrides the storage timing (e.g. a slower shared filer).
    pub fn with_spec(mut self, spec: StorageSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Decoded sample size in pixels.
    pub fn pixels(&self) -> usize {
        self.pixels
    }

    /// Source statistics so far.
    pub fn stats(&self) -> NfsStats {
        self.stats
    }

    /// Fetches the blob for `id`, returning the bytes and the virtual
    /// seconds charged.
    pub fn fetch(&mut self, id: SampleId) -> (Bytes, f64) {
        let blob = synth_blob(id, self.pixels, self.seed);
        self.stats.fetches += 1;
        self.stats.bytes += blob.len() as u64;
        let t = self.spec.access_time(blob.len());
        (blob, t)
    }
}

/// Builds the deterministic blob for a sample: an 8-byte header (pixel
/// count, class label) followed by one "compressed" byte per pixel derived
/// from a splitmix-style hash. Compression ratio is therefore 1 byte per
/// pixel — JPEG-like for 8-bit RGB at quality ~90.
pub fn synth_blob(id: SampleId, pixels: usize, seed: u64) -> Bytes {
    let label = (hash64(id ^ seed.rotate_left(17)) % 1000) as u32;
    let mut out = BytesMut::with_capacity(BLOB_HEADER + pixels);
    out.put_u32_le(pixels as u32);
    out.put_u32_le(label);
    let mut state = hash64(id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed);
    let mut left = pixels;
    while left > 0 {
        state = hash64(state);
        let take = left.min(8);
        out.put_slice(&state.to_le_bytes()[..take]);
        left -= take;
    }
    out.freeze()
}

/// SplitMix64 finaliser — a cheap, high-quality 64-bit mix.
fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_are_deterministic() {
        assert_eq!(synth_blob(7, 100, 1), synth_blob(7, 100, 1));
        assert_ne!(synth_blob(7, 100, 1), synth_blob(8, 100, 1));
        assert_ne!(synth_blob(7, 100, 1), synth_blob(7, 100, 2));
    }

    /// The byte-at-a-time generator `synth_blob` replaced.
    fn synth_blob_bytewise(id: SampleId, pixels: usize, seed: u64) -> Vec<u8> {
        let label = (hash64(id ^ seed.rotate_left(17)) % 1000) as u32;
        let mut out = Vec::new();
        out.extend_from_slice(&(pixels as u32).to_le_bytes());
        out.extend_from_slice(&label.to_le_bytes());
        let mut state = hash64(id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed);
        let mut word = 0u64;
        for i in 0..pixels {
            if i % 8 == 0 {
                state = hash64(state);
                word = state;
            }
            out.push((word & 0xFF) as u8);
            word >>= 8;
        }
        out
    }

    #[test]
    fn word_at_a_time_blob_equals_the_bytewise_one() {
        for pixels in [0, 1, 7, 8, 9, 15, 16, 17, 100, 1003, 96 * 96 * 3] {
            for (id, seed) in [(0, 0), (7, 42), (u64::MAX, 1), (12_345, u64::MAX)] {
                assert_eq!(
                    synth_blob(id, pixels, seed)[..],
                    synth_blob_bytewise(id, pixels, seed)[..],
                    "id {id} pixels {pixels} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn blob_bytes_are_pinned() {
        let fnv = synth_blob(7, 96 * 96 * 3, 42)
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(fnv, 0x867d_f955_17f7_55b7);
    }

    #[test]
    fn blob_layout() {
        let b = synth_blob(3, 50, 0);
        assert_eq!(b.len(), BLOB_HEADER + 50);
        let pixels = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        assert_eq!(pixels, 50);
        let label = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        assert!(label < 1000);
    }

    #[test]
    fn fetch_charges_nfs_time_and_counts() {
        let mut nfs = SyntheticNfs::new(96 * 96 * 3, 42);
        let (blob, t) = nfs.fetch(0);
        assert_eq!(blob.len(), BLOB_HEADER + 96 * 96 * 3);
        let expect = StorageSpec::nfs().access_time(blob.len());
        assert!((t - expect).abs() < 1e-12);
        assert_eq!(nfs.stats().fetches, 1);
        assert_eq!(nfs.stats().bytes, blob.len() as u64);
    }

    #[test]
    fn pixel_bytes_look_random() {
        // Entropy check: byte histogram of a large blob should be flat-ish.
        let b = synth_blob(1, 100_000, 9);
        let mut hist = [0usize; 256];
        for &byte in &b[BLOB_HEADER..] {
            hist[byte as usize] += 1;
        }
        let expect = 100_000 / 256;
        assert!(hist.iter().all(|&c| c > expect / 2 && c < expect * 2));
    }
}
