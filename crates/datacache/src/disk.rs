//! Node-local file-system cache (the first cache level of Fig. 5).
//!
//! Blobs fetched from NFS are kept in a local directory and served from
//! there on later epochs (and later *runs* — the paper notes this makes
//! hyper-parameter sweeps over the same data cheap). The bytes are real;
//! access time is charged from the local-SSD spec.
//!
//! The directory holds an append-only segment log, `segment_NNNNNN.bin`.
//! A `put` appends one frame with one `write_all`,
//!
//! ```text
//! | magic u32 LE | len u32 LE | id u64 LE | len bytes |
//! ```
//!
//! and only then records `(segment, offset, len)` in an in-memory index;
//! a `get` is an index lookup plus one positioned read that re-checks the
//! frame header, so a blob is served whole or not at all. Nothing is
//! buffered in user space: a frame is in the file when `put` returns, and
//! [`DiskCache::open`] rebuilds the index from the frame headers, so a
//! second handle opened on the directory — while the first is alive or
//! after it is gone — serves everything put before. Segments are opened in
//! append mode and a frame's offset is read back from the file position, so
//! two live handles that both put never overwrite or misplace each other's
//! frames (each just does not see what the other wrote after it opened).
//! Like the un-synced rename it replaces, nothing is fsynced: this is a
//! cache, and a frame torn by a crash is cut off at the next `open`.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use bytes::Bytes;

use crate::timing::StorageSpec;
use crate::SampleId;

/// First four bytes of every frame ("CTDC", little-endian).
const MAGIC: u32 = 0x4344_5443;
/// Frame header length: magic, blob length, sample id.
const HEADER: usize = 16;
/// A segment that has reached this size is closed to appends and the next
/// frame starts a new one, so no single file grows without bound.
const SEGMENT_BYTES: u64 = 64 << 20;

/// Per-tier hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Reads served from the local cache.
    pub hits: u64,
    /// Reads that fell through to the backing store.
    pub misses: u64,
}

/// Where one blob's frame starts.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Position in [`DiskCache::segments`].
    segment: usize,
    offset: u64,
    len: u32,
}

#[derive(Debug)]
struct Segment {
    number: u32,
    file: File,
}

/// A real on-disk blob cache with virtual-time accounting.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    spec: StorageSpec,
    stats: DiskStats,
    segment_bytes: u64,
    /// Every segment of the directory in number order, each with an open
    /// handle; only the last is appended to.
    segments: Vec<Segment>,
    /// End of the last frame known to be intact in the last segment.
    tail: u64,
    /// Looked up, never iterated; a `BTreeMap` like the memory tier's.
    index: BTreeMap<SampleId, Slot>,
    /// One frame: built here by `put`, read into here by `get`.
    frame: Vec<u8>,
}

fn frame_header(id: SampleId, len: u32) -> [u8; HEADER] {
    let mut header = [0; HEADER];
    header[..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&len.to_le_bytes());
    header[8..].copy_from_slice(&id.to_le_bytes());
    header
}

/// The `(id, len)` of a frame header, or `None` if the magic is wrong.
fn parse_header(header: &[u8; HEADER]) -> Option<(SampleId, u32)> {
    let [m0, m1, m2, m3, l0, l1, l2, l3, i0, i1, i2, i3, i4, i5, i6, i7] = *header;
    (u32::from_le_bytes([m0, m1, m2, m3]) == MAGIC).then(|| {
        (
            u64::from_le_bytes([i0, i1, i2, i3, i4, i5, i6, i7]),
            u32::from_le_bytes([l0, l1, l2, l3]),
        )
    })
}

/// A blob length as the frame format stores it.
fn frame_len(blob_len: usize) -> io::Result<u32> {
    u32::try_from(blob_len).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "blob is longer than a frame's u32 length field",
        )
    })
}

fn segment_name(number: u32) -> String {
    format!("segment_{number:06}.bin")
}

/// The number in a segment's file name; any other name is not a segment.
fn segment_number(name: &str) -> Option<u32> {
    let number = name
        .strip_prefix("segment_")?
        .strip_suffix(".bin")?
        .parse()
        .ok()?;
    (segment_name(number) == name).then_some(number)
}

fn open_for_append(path: &Path) -> io::Result<File> {
    OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)
}

impl DiskCache {
    /// Opens (creating if needed) a cache rooted at `dir` and indexes what
    /// earlier handles and earlier runs left there. Only frame headers are
    /// read. A segment is indexed up to its first frame that is cut short
    /// or does not start with the magic, and the last segment — the one new
    /// frames are appended to — is truncated there. Files of the older
    /// file-per-sample layout are ignored.
    ///
    /// # Errors
    /// Returns any I/O error from creating the directory or reading it.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Self::with_segment_bytes(dir.into(), SEGMENT_BYTES)
    }

    fn with_segment_bytes(dir: PathBuf, segment_bytes: u64) -> io::Result<Self> {
        fs::create_dir_all(&dir)?;
        let mut numbers = Vec::new();
        for entry in fs::read_dir(&dir)? {
            numbers.extend(segment_number(&entry?.file_name().to_string_lossy()));
        }
        numbers.sort_unstable();
        let mut cache = Self {
            dir,
            spec: StorageSpec::local_ssd(),
            stats: DiskStats::default(),
            segment_bytes,
            segments: Vec::with_capacity(numbers.len()),
            tail: 0,
            index: BTreeMap::new(),
            frame: Vec::new(),
        };
        for (at, &number) in numbers.iter().enumerate() {
            let path = cache.dir.join(segment_name(number));
            let last = at + 1 == numbers.len();
            let file = if last {
                open_for_append(&path)?
            } else {
                File::open(&path)?
            };
            let size = file.metadata()?.len();
            let intact = cache.index_frames(&file, at, size)?;
            if last {
                if intact < size {
                    file.set_len(intact)?;
                }
                cache.tail = intact;
            }
            cache.segments.push(Segment { number, file });
        }
        Ok(cache)
    }

    /// Indexes the run of intact frames at the start of a segment of `size`
    /// bytes and returns where it ends.
    fn index_frames(&mut self, file: &File, segment: usize, size: u64) -> io::Result<u64> {
        let mut at = 0;
        let mut header = [0; HEADER];
        while at + HEADER as u64 <= size {
            file.read_exact_at(&mut header, at)?;
            let Some((id, len)) = parse_header(&header) else {
                break;
            };
            let end = at + HEADER as u64 + u64::from(len);
            if end > size {
                break;
            }
            self.index.insert(
                id,
                Slot {
                    segment,
                    offset: at,
                    len,
                },
            );
            at = end;
        }
        Ok(at)
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Returns the cached blob and its virtual read time, or `None` on miss.
    pub fn get(&mut self, id: SampleId) -> Option<(Bytes, f64)> {
        match self.read(id) {
            Some(blob) => {
                self.stats.hits += 1;
                let t = self.spec.access_time(blob.len());
                Some((blob, t))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The indexed frame's payload, if the frame still reads back whole and
    /// its header still says `(id, len)`.
    fn read(&mut self, id: SampleId) -> Option<Bytes> {
        let slot = *self.index.get(&id)?;
        self.frame.resize(HEADER + slot.len as usize, 0);
        let file = &self.segments[slot.segment].file;
        file.read_exact_at(&mut self.frame, slot.offset).ok()?;
        let (header, blob) = self.frame.split_at(HEADER);
        (header == frame_header(id, slot.len)).then(|| Bytes::from(blob))
    }

    /// Stores a blob, returning the virtual write time. A later `put` of
    /// the same id wins.
    ///
    /// # Errors
    /// Returns any I/O error from the write, and `InvalidInput` for a blob
    /// of more than `u32::MAX` bytes.
    pub fn put(&mut self, id: SampleId, blob: &Bytes) -> io::Result<f64> {
        let len = frame_len(blob.len())?;
        let segment = self.active_segment()?;
        self.frame.clear();
        self.frame.extend_from_slice(&frame_header(id, len));
        self.frame.extend_from_slice(blob);
        let mut file = &self.segments[segment].file;
        if let Err(e) = file.write_all(&self.frame) {
            // Cut a partial frame off again: a frame appended behind it
            // would be lost to every later `open`, which stops there.
            let _ = file.set_len(self.tail);
            return Err(e);
        }
        // Append mode wrote at the end of the file, wherever another handle
        // had moved it to, and left the position just past this frame.
        self.tail = file.stream_position()?;
        let offset = self.tail - self.frame.len() as u64;
        self.index.insert(
            id,
            Slot {
                segment,
                offset,
                len,
            },
        );
        Ok(self.spec.access_time(blob.len()))
    }

    /// The position of the segment to append to, starting a new one when
    /// there is none yet or the last has reached the segment size.
    fn active_segment(&mut self) -> io::Result<usize> {
        let number = match self.segments.last() {
            None => 0,
            Some(_) if self.tail < self.segment_bytes => return Ok(self.segments.len() - 1),
            Some(last) => last
                .number
                .checked_add(1)
                .ok_or_else(|| io::Error::other("segment numbers exhausted"))?,
        };
        let file = open_for_append(&self.dir.join(segment_name(number)))?;
        self.tail = file.metadata()?.len();
        self.segments.push(Segment { number, file });
        Ok(self.segments.len() - 1)
    }

    /// Removes every cached blob (e.g. between experiments), files of the
    /// older file-per-sample layout included.
    ///
    /// # Errors
    /// Returns any I/O error from the directory walk.
    pub fn clear(&mut self) -> io::Result<()> {
        self.index.clear();
        self.segments.clear();
        self.tail = 0;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("segment_") || name.starts_with("sample_") {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cloudtrain-diskcache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn miss_then_hit_roundtrip() {
        let mut c = DiskCache::open(tmpdir("roundtrip")).unwrap();
        assert!(c.get(1).is_none());
        let blob = Bytes::from_static(b"hello blob");
        let tw = c.put(1, &blob).unwrap();
        assert!(tw > 0.0);
        let (got, tr) = c.get(1).unwrap();
        assert_eq!(got, blob);
        assert!(tr > 0.0);
        assert_eq!(c.stats(), DiskStats { hits: 1, misses: 1 });
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = DiskCache::open(tmpdir("clear")).unwrap();
        c.put(1, &Bytes::from_static(b"a")).unwrap();
        c.put(2, &Bytes::from_static(b"b")).unwrap();
        c.clear().unwrap();
        assert!(c.get(1).is_none());
        assert!(c.get(2).is_none());
    }

    #[test]
    fn ids_do_not_collide() {
        let mut c = DiskCache::open(tmpdir("ids")).unwrap();
        c.put(0x10, &Bytes::from_static(b"x")).unwrap();
        c.put(0x1000, &Bytes::from_static(b"y")).unwrap();
        assert_eq!(c.get(0x10).unwrap().0, Bytes::from_static(b"x"));
        assert_eq!(c.get(0x1000).unwrap().0, Bytes::from_static(b"y"));
    }

    /// A blob whose bytes and length both depend on the id.
    fn blob_of(id: SampleId) -> Bytes {
        let len = (id * 7 % 23) as usize;
        Bytes::from(
            (0..len)
                .map(|i| (id as usize * 31 + i) as u8)
                .collect::<Vec<u8>>(),
        )
    }

    fn frame_of(id: SampleId, blob: &[u8]) -> Vec<u8> {
        let mut frame = frame_header(id, blob.len() as u32).to_vec();
        frame.extend_from_slice(blob);
        frame
    }

    fn served(c: &mut DiskCache, id: SampleId) -> Option<Bytes> {
        c.get(id).map(|(blob, _)| blob)
    }

    #[test]
    fn a_second_handle_serves_what_the_first_put_alive_or_dropped() {
        let dir = tmpdir("reopen");
        let mut first = DiskCache::open(&dir).unwrap();
        for id in 0..40 {
            first.put(id, &blob_of(id)).unwrap();
        }
        let mut second = DiskCache::open(&dir).unwrap();
        for id in 0..40 {
            assert_eq!(
                served(&mut second, id),
                Some(blob_of(id)),
                "first alive, id {id}"
            );
        }
        assert_eq!(served(&mut second, 40), None);
        assert_eq!(
            second.stats(),
            DiskStats {
                hits: 40,
                misses: 1
            }
        );
        drop(first);
        drop(second);
        let mut third = DiskCache::open(&dir).unwrap();
        for id in 0..40 {
            assert_eq!(
                served(&mut third, id),
                Some(blob_of(id)),
                "first dropped, id {id}"
            );
        }
    }

    #[test]
    fn two_live_handles_that_both_put_keep_their_frames_apart() {
        let dir = tmpdir("two-writers");
        let mut a = DiskCache::open(&dir).unwrap();
        let mut b = DiskCache::open(&dir).unwrap();
        for id in 0..20 {
            let writer = if id % 3 == 0 { &mut b } else { &mut a };
            writer.put(id, &blob_of(id)).unwrap();
        }
        for id in 0..20 {
            let (writer, other) = if id % 3 == 0 {
                (&mut b, &mut a)
            } else {
                (&mut a, &mut b)
            };
            assert_eq!(served(writer, id), Some(blob_of(id)), "id {id}");
            // Put after the other handle's `open`: unseen there, never wrong.
            assert_eq!(served(other, id), None, "id {id}");
        }
        let mut c = DiskCache::open(&dir).unwrap();
        for id in 0..20 {
            assert_eq!(served(&mut c, id), Some(blob_of(id)), "id {id}");
        }
    }

    #[test]
    fn a_torn_tail_is_dropped_and_the_log_goes_on_behind_the_intact_frames() {
        let mut log = Vec::new();
        for id in [1, 2] {
            log.extend(frame_of(id, &blob_of(id)));
        }
        let intact = log.len();
        log.extend(frame_of(3, b"the torn one"));
        let dir = tmpdir("torn");
        for cut in intact + 1..log.len() {
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            let path = dir.join(segment_name(0));
            fs::write(&path, &log[..cut]).unwrap();

            let mut c = DiskCache::open(&dir).unwrap();
            assert_eq!(
                fs::metadata(&path).unwrap().len(),
                intact as u64,
                "cut {cut}"
            );
            assert_eq!(served(&mut c, 1), Some(blob_of(1)), "cut {cut}");
            assert_eq!(served(&mut c, 2), Some(blob_of(2)), "cut {cut}");
            assert_eq!(served(&mut c, 3), None, "cut {cut}");
            c.put(4, &blob_of(4)).unwrap();
            drop(c);

            let mut c = DiskCache::open(&dir).unwrap();
            for id in [1, 2, 4] {
                assert_eq!(served(&mut c, id), Some(blob_of(id)), "cut {cut} id {id}");
            }
            assert_eq!(served(&mut c, 3), None, "cut {cut}");
        }
    }

    /// The recovery rule, restated over a byte slice: the frames of the
    /// intact run at the start of a segment, last one of an id winning.
    fn intact_frames(log: &[u8]) -> BTreeMap<SampleId, Vec<u8>> {
        let mut frames = BTreeMap::new();
        let mut at = 0;
        while let Some(header) = log.get(at..at + HEADER) {
            let Some((id, len)) = parse_header(header.try_into().unwrap()) else {
                break;
            };
            let Some(blob) = log.get(at + HEADER..at + HEADER + len as usize) else {
                break;
            };
            frames.insert(id, blob.to_vec());
            at += HEADER + len as usize;
        }
        frames
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever bytes a segment file holds — a valid log, one cut short,
        /// one with bytes overwritten, plain noise — `open` and `get` do not
        /// panic and serve exactly the intact run's frames, byte for byte.
        #[test]
        fn arbitrary_segment_bytes_serve_only_intact_frames(
            ids in prop::collection::vec(0u64..12, 0..8),
            noise in prop::collection::vec(any::<u8>(), 0..48),
            overwrites in prop::collection::vec((0usize..400, any::<u8>()), 0..4),
            keep in 0usize..400,
        ) {
            let mut log = Vec::new();
            for (nth, &id) in ids.iter().enumerate() {
                // Two frames of one id differ, so the later one must win.
                log.extend(frame_of(id, &blob_of(id + 12 * nth as u64)));
            }
            log.extend(&noise);
            for &(at, byte) in &overwrites {
                if let Some(b) = log.get_mut(at) {
                    *b = byte;
                }
            }
            log.truncate(keep);
            let dir = tmpdir("noise");
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join(segment_name(0)), &log).unwrap();

            let want = intact_frames(&log);
            let mut c = DiskCache::open(&dir).unwrap();
            for id in 0..12 {
                prop_assert_eq!(
                    served(&mut c, id).map(|b| b.to_vec()),
                    want.get(&id).cloned(),
                    "id {} of {:?}", id, log
                );
            }
        }
    }

    #[test]
    fn a_frame_changed_under_a_live_handle_is_a_miss() {
        let dir = tmpdir("changed");
        let mut c = DiskCache::open(&dir).unwrap();
        c.put(1, &blob_of(1)).unwrap();
        c.put(2, &blob_of(2)).unwrap();
        let path = dir.join(segment_name(0));
        let mut log = fs::read(&path).unwrap();
        log[8] ^= 1; // frame 1 now claims another id
        fs::write(&path, &log).unwrap();
        assert_eq!(served(&mut c, 1), None);
        assert_eq!(served(&mut c, 2), Some(blob_of(2)));
        fs::write(&path, &log[..log.len() - 1]).unwrap();
        assert_eq!(served(&mut c, 2), None);
        assert_eq!(c.stats(), DiskStats { hits: 1, misses: 2 });
    }

    #[test]
    fn a_second_put_of_an_id_wins() {
        let dir = tmpdir("last-wins");
        let mut c = DiskCache::open(&dir).unwrap();
        c.put(9, &Bytes::from_static(b"old")).unwrap();
        c.put(9, &Bytes::from_static(b"newer")).unwrap();
        assert_eq!(served(&mut c, 9), Some(Bytes::from_static(b"newer")));
        let mut reopened = DiskCache::open(&dir).unwrap();
        assert_eq!(served(&mut reopened, 9), Some(Bytes::from_static(b"newer")));
    }

    #[test]
    fn clear_leaves_an_empty_directory_and_a_reopen_misses() {
        let dir = tmpdir("clear-all");
        let mut c = DiskCache::with_segment_bytes(dir.clone(), 64).unwrap();
        for id in 0..10 {
            c.put(id, &blob_of(id)).unwrap();
        }
        // What a run of the file-per-sample store left behind goes too.
        fs::write(dir.join("sample_0000000000000001.bin"), b"stale").unwrap();
        c.clear().unwrap();
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        assert!(c.index.is_empty() && c.segments.is_empty());
        assert_eq!(served(&mut DiskCache::open(&dir).unwrap(), 1), None);
        // The cleared handle starts a new log.
        c.put(1, &blob_of(1)).unwrap();
        assert_eq!(served(&mut c, 1), Some(blob_of(1)));
        assert_eq!(
            served(&mut DiskCache::open(&dir).unwrap(), 1),
            Some(blob_of(1))
        );
    }

    #[test]
    fn files_of_the_file_per_sample_layout_are_not_served() {
        let dir = tmpdir("legacy");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("sample_0000000000000001.bin"), b"stale").unwrap();
        fs::write(
            dir.join("segment_1.bin"),
            frame_of(1, b"not a segment name"),
        )
        .unwrap();
        assert_eq!(served(&mut DiskCache::open(&dir).unwrap(), 1), None);
    }

    #[test]
    fn an_empty_blob_roundtrips() {
        let dir = tmpdir("empty");
        let mut c = DiskCache::open(&dir).unwrap();
        c.put(5, &Bytes::from_static(b"")).unwrap();
        c.put(6, &Bytes::from_static(b"after it")).unwrap();
        for mut c in [c, DiskCache::open(&dir).unwrap()] {
            assert_eq!(served(&mut c, 5), Some(Bytes::from_static(b"")));
            assert_eq!(served(&mut c, 6), Some(Bytes::from_static(b"after it")));
        }
    }

    #[test]
    fn an_oversized_blob_is_an_error() {
        assert_eq!(frame_len(u32::MAX as usize).unwrap(), u32::MAX);
        let err = frame_len(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn a_full_segment_rolls_over_and_every_segment_is_served() {
        let dir = tmpdir("roll");
        let mut c = DiskCache::with_segment_bytes(dir.clone(), 100).unwrap();
        for id in 0..30 {
            c.put(id, &blob_of(id)).unwrap();
        }
        c.put(3, &Bytes::from_static(b"rewritten in a later segment"))
            .unwrap();
        let files = fs::read_dir(&dir).unwrap().count();
        assert!(files > 3, "{files} segments");
        assert_eq!(files, c.segments.len());
        for entry in fs::read_dir(&dir).unwrap() {
            // A segment closes at the first frame that ends at or past the size.
            let len = entry.unwrap().metadata().unwrap().len();
            assert!(len < 100 + (HEADER + 28) as u64, "{len}");
        }
        // The public `open` reads segments of any size.
        for mut c in [c, DiskCache::open(&dir).unwrap()] {
            for id in (0..30).filter(|&id| id != 3) {
                assert_eq!(served(&mut c, id), Some(blob_of(id)), "id {id}");
            }
            let rewritten = Bytes::from_static(b"rewritten in a later segment");
            assert_eq!(served(&mut c, 3), Some(rewritten));
        }
        // A reopened log goes on in its last segment, then rolls again.
        let mut c = DiskCache::with_segment_bytes(dir.clone(), 100).unwrap();
        for id in 30..40 {
            c.put(id, &blob_of(id)).unwrap();
        }
        assert!(c.segments.len() > files);
        let mut c = DiskCache::open(&dir).unwrap();
        for id in 4..40 {
            assert_eq!(served(&mut c, id), Some(blob_of(id)), "id {id}");
        }
    }
}
