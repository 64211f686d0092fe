//! Zero-copy shard byte handles: range views of a store's pack file,
//! `mmap`-backed with a portable `read_at` fallback.
//!
//! A store keeps every shard in one pack file. [`Pack`] is that file,
//! opened once per store: either one read-only mapping of the whole pack,
//! or (under `SICKLE_MMAP=off`, on non-Unix hosts, or after an `mmap`
//! syscall failure) the open file itself. A [`ShardBytes`] is the one owner
//! of a shard's raw bytes between disk and socket. On the mapped path it is
//! a range view sharing the pack's mapping: the kernel's page cache *is*
//! the buffer, the serve path hashes and tensorizes straight out of it,
//! and no user-space copy of the payload ever exists. On the fallback path
//! the shard's range lands in one heap buffer via `read_at` — exactly one
//! copy, still shared by every reader through the `Arc<ShardBytes>` handle.
//!
//! ## Safety argument (the length-check-before-map contract)
//!
//! Mapping a file and reading past its end raises `SIGBUS`, not an error.
//! The store's manifest records the pack's exact byte length, so
//! [`Pack::open`] `fstat`s the file first and refuses to map unless the
//! on-disk length equals the expected length — a truncated or resized pack
//! becomes `InvalidData` before any page is touched. Every view is then
//! bounds-checked against that length ([`Pack::shard`] uses checked
//! arithmetic), so no range a manifest can name reaches past the mapping.
//! The mapping is `PROT_READ`/`MAP_PRIVATE`: nothing writes through it,
//! and packs are content-named temp-file + rename artifacts that the store
//! never rewrites in place, so the pages stay valid for the mapping's
//! lifetime. (An external writer truncating the file *after* the check
//! could still fault — the same torn-read hazard `fs::read` has — which is
//! why the contract is length-check-before-map, not immunity to hostile
//! concurrent writers. The hostile-pack tests cover the supported cases:
//! truncation, zero-length, tamper, and hostile ranges are all clean
//! errors.)
//!
//! The wrapper is deliberately minimal `extern "C"` over the platform's
//! `mmap`/`munmap` (std already links libc on Unix) — the `vendor/` tree
//! stays offline and dependency-free.

use std::io;
use std::path::Path;
use std::sync::Arc;

/// Read-path selection for shard bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MmapMode {
    /// Map on Unix, fall back to `read_at` elsewhere or when `mmap` fails.
    Auto,
    /// Force mapping; an `mmap` failure is an error instead of a fallback.
    On,
    /// Never map: always the portable `read_at` heap path.
    Off,
}

impl MmapMode {
    /// Resolves the mode from `SICKLE_MMAP` (`off`/`0`/`false` disable,
    /// `on`/`1` force, anything else — including unset — is `Auto`).
    pub fn from_env() -> MmapMode {
        std::env::var("SICKLE_MMAP")
            .map(|v| MmapMode::parse(&v))
            .unwrap_or(MmapMode::Auto)
    }

    /// Parses one `SICKLE_MMAP` value.
    pub fn parse(value: &str) -> MmapMode {
        match value.to_ascii_lowercase().as_str() {
            "off" | "0" | "false" => MmapMode::Off,
            "on" | "1" | "true" => MmapMode::On,
            _ => MmapMode::Auto,
        }
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(unix)]
mod sys {
    //! Minimal raw-syscall surface: just enough `mmap`/`munmap` to hold a
    //! read-only private mapping. No `libc` crate — std links it already.
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub fn map_failed(p: *mut c_void) -> bool {
        p as isize == -1
    }
}

/// A read-only `mmap` of a whole file. Unmapped on drop.
#[cfg(unix)]
struct MapRegion {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE — immutable shared bytes,
// like a leaked `&'static [u8]` — so handing the region between threads or
// reading it concurrently is sound.
#[cfg(unix)]
unsafe impl Send for MapRegion {}
#[cfg(unix)]
unsafe impl Sync for MapRegion {}

#[cfg(unix)]
impl MapRegion {
    fn map(file: &std::fs::File, len: usize) -> io::Result<MapRegion> {
        use std::os::unix::io::AsRawFd;
        debug_assert!(len > 0, "zero-length maps are rejected by the kernel");
        // SAFETY: fd is a live open file, len > 0 was length-checked
        // against the file by the caller, and we only ever read through
        // the returned pages while the region is alive.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if sys::map_failed(ptr) {
            return Err(io::Error::last_os_error());
        }
        Ok(MapRegion {
            ptr: ptr as *const u8,
            len,
        })
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: ptr/len came from a successful mmap that lives until
        // Drop; the pages are immutable (PROT_READ, private, file never
        // rewritten in place).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(unix)]
impl Drop for MapRegion {
    fn drop(&mut self) {
        // SAFETY: exactly the pointer/length pair mmap returned.
        unsafe {
            sys::munmap(self.ptr as *mut std::ffi::c_void, self.len);
        }
    }
}

/// A store's pack file, opened once and length-checked: one mapping of the
/// whole file, or the open file for positioned reads. Serves every shard
/// as a [`ShardBytes`] range of itself.
pub struct Pack {
    repr: PackRepr,
    len: usize,
}

enum PackRepr {
    /// One `mmap` of the whole pack (Unix, mode `Auto`/`On`), shared with
    /// every view cut from it.
    #[cfg(unix)]
    Mapped(Arc<MapRegion>),
    /// The open pack; each view is one `read_at` of its range.
    File(std::fs::File),
}

impl Pack {
    /// Opens the pack at `path`, whose length must be exactly
    /// `expected_len`, selecting the mapped or `read_at` path per `mode`.
    ///
    /// # Errors
    /// `InvalidData` when the on-disk length disagrees with `expected_len`
    /// (truncated or resized pack — checked *before* mapping, so it can
    /// never SIGBUS); I/O errors from open/stat/map.
    pub fn open(path: &Path, expected_len: usize, mode: MmapMode) -> io::Result<Pack> {
        let file = std::fs::File::open(path)?;
        let actual = file.metadata()?.len();
        if actual != expected_len as u64 {
            return Err(invalid(format!(
                "pack {} is {actual} bytes on disk, manifest says {expected_len} \
                 (truncated or resized)",
                path.display()
            )));
        }
        // A zero-length mapping is an EINVAL from the kernel; the file
        // path serves the (necessarily empty) ranges of an empty pack.
        #[cfg(unix)]
        if expected_len > 0 {
            let mapped = match mode {
                MmapMode::Off => None,
                MmapMode::On => Some(MapRegion::map(&file, expected_len)?),
                MmapMode::Auto => MapRegion::map(&file, expected_len).ok(),
            };
            if let Some(region) = mapped {
                return Ok(Pack {
                    repr: PackRepr::Mapped(Arc::new(region)),
                    len: expected_len,
                });
            }
        }
        #[cfg(not(unix))]
        let _ = mode;
        Ok(Pack {
            repr: PackRepr::File(file),
            len: expected_len,
        })
    }

    /// The `len` bytes at `offset`: a view sharing the mapping, or one
    /// `read_at` into a heap buffer.
    ///
    /// # Errors
    /// `InvalidData` when the range does not lie inside the pack (checked
    /// arithmetic: an overflowing range is an error, not a panic); I/O
    /// errors from the read.
    pub fn shard(&self, offset: usize, len: usize) -> io::Result<ShardBytes> {
        if offset.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(invalid(format!(
                "shard range {offset}+{len} runs past the {}-byte pack",
                self.len
            )));
        }
        let repr = match &self.repr {
            #[cfg(unix)]
            PackRepr::Mapped(region) => Repr::Mapped {
                region: Arc::clone(region),
                offset,
                len,
            },
            PackRepr::File(file) => Repr::Heap(read_exact_at(file, offset, len)?),
        };
        Ok(ShardBytes { repr })
    }
}

/// The raw bytes of one shard: either a range view of the pack's mapping
/// or a single heap buffer. `Deref`s to `&[u8]`; shared as
/// `Arc<ShardBytes>` between the LRU cache, the decoder, and in-flight
/// requests, so the bytes stay alive for exactly as long as anyone is
/// still using them. A mapped view holds the pack's mapping alive by
/// itself — the lifetime rule that makes serving out of a mapping sound
/// even after the store (or a re-ingest) has let go of the pack.
pub struct ShardBytes {
    repr: Repr,
}

enum Repr {
    /// A range of the pack's `mmap` (Unix, mode `Auto`/`On`).
    #[cfg(unix)]
    Mapped {
        region: Arc<MapRegion>,
        offset: usize,
        len: usize,
    },
    /// One heap buffer filled by `read_at` (fallback / `SICKLE_MMAP=off`).
    Heap(Vec<u8>),
}

impl ShardBytes {
    /// The shard bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            #[cfg(unix)]
            Repr::Mapped {
                region,
                offset,
                len,
            } => &region.as_slice()[*offset..*offset + *len],
            Repr::Heap(bytes) => bytes,
        }
    }

    /// Byte length.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True for an empty shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the bytes are page-cache-backed (no heap residency).
    pub fn is_mapped(&self) -> bool {
        match &self.repr {
            #[cfg(unix)]
            Repr::Mapped { .. } => true,
            Repr::Heap(_) => false,
        }
    }
}

impl std::fmt::Debug for ShardBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardBytes")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl std::ops::Deref for ShardBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for ShardBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Fills one heap buffer with exactly the `len` bytes at `offset` via
/// positioned reads — the portable path. A short read is `InvalidData`
/// (same truncation contract as the map path, discovered at read time
/// only if the pack shrank after it was opened).
fn read_exact_at(file: &std::fs::File, offset: usize, len: usize) -> io::Result<Vec<u8>> {
    let mut buf = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        let at = (offset + filled) as u64;
        #[cfg(unix)]
        let n = {
            use std::os::unix::fs::FileExt;
            file.read_at(&mut buf[filled..], at)?
        };
        #[cfg(not(unix))]
        let n = {
            use std::io::{Read, Seek, SeekFrom};
            let mut f = file;
            f.seek(SeekFrom::Start(at))?;
            f.read(&mut buf[filled..])?
        };
        if n == 0 {
            return Err(invalid(format!(
                "pack shrank mid-read: got {filled} of {len} bytes at offset {offset}"
            )));
        }
        filled += n;
    }
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_file(tag: &str, bytes: &[u8]) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("sickle_shard_bytes_{tag}_{}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn mapped_and_heap_views_agree() {
        let data: Vec<u8> = (0..40_000u32).map(|i| (i * 7) as u8).collect();
        let path = temp_file("agree", &data);
        for mode in [MmapMode::Auto, MmapMode::On, MmapMode::Off] {
            let pack = Pack::open(&path, data.len(), mode).unwrap();
            let mapped = cfg!(unix) && mode != MmapMode::Off;
            for (offset, len) in [(0, data.len()), (0, 1), (4095, 4097), (39_999, 1), (123, 0)] {
                let view = pack.shard(offset, len).unwrap();
                assert_eq!(view.as_slice(), &data[offset..offset + len], "{mode:?}");
                assert_eq!(view.is_mapped(), mapped, "{mode:?}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_view_outlives_its_pack() {
        let data: Vec<u8> = (0..9000u32).map(|i| (i * 13) as u8).collect();
        let path = temp_file("outlive", &data);
        for mode in [MmapMode::On, MmapMode::Off] {
            let pack = Pack::open(&path, data.len(), mode).unwrap();
            let view = pack.shard(100, 5000).unwrap();
            drop(pack);
            assert_eq!(view.as_slice(), &data[100..5100], "{mode:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn length_mismatch_errors_before_mapping() {
        let path = temp_file("short", b"0123456789");
        for mode in [MmapMode::On, MmapMode::Off] {
            let err = Pack::open(&path, 1 << 20, mode).err().unwrap();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{mode:?}");
            let err = Pack::open(&path, 3, mode).err().unwrap();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{mode:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ranges_outside_the_pack_are_invalid_data() {
        let path = temp_file("ranges", b"0123456789");
        for mode in [MmapMode::On, MmapMode::Off] {
            let pack = Pack::open(&path, 10, mode).unwrap();
            for (offset, len) in [(0, 11), (10, 1), (11, 0), (usize::MAX, 2), (5, usize::MAX)] {
                let err = pack.shard(offset, len).unwrap_err();
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::InvalidData,
                    "{mode:?} {offset}+{len}"
                );
            }
            assert!(pack.shard(10, 0).unwrap().is_empty());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_length_file_is_an_empty_heap_view() {
        let path = temp_file("empty", b"");
        for mode in [MmapMode::On, MmapMode::Off] {
            let view = Pack::open(&path, 0, mode).unwrap().shard(0, 0).unwrap();
            assert!(view.is_empty());
            assert!(!view.is_mapped(), "empty files never map");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_not_found() {
        let path = std::env::temp_dir().join("sickle_shard_bytes_nonexistent");
        let err = Pack::open(&path, 4, MmapMode::Auto).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn env_value_parsing() {
        for (v, want) in [
            ("off", MmapMode::Off),
            ("0", MmapMode::Off),
            ("FALSE", MmapMode::Off),
            ("on", MmapMode::On),
            ("1", MmapMode::On),
            ("true", MmapMode::On),
            ("auto", MmapMode::Auto),
            ("", MmapMode::Auto),
        ] {
            assert_eq!(MmapMode::parse(v), want, "{v:?}");
        }
    }
}
