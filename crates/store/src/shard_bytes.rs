//! Zero-copy shard byte handles: `mmap`-backed views of shard files with
//! a portable `read_at` fallback.
//!
//! A [`ShardBytes`] is the one owner of a shard's raw bytes between disk
//! and socket. On the mapped path the kernel's page cache *is* the buffer:
//! the serve path hashes and `writev`s straight out of the mapping and no
//! user-space copy of the payload ever exists. On the fallback path
//! (`SICKLE_MMAP=off`, non-Unix hosts, or an `mmap` syscall failure) the
//! bytes land in one heap buffer via `read_at` — exactly one copy, still
//! shared by every reader through the `Arc<ShardBytes>` handle.
//!
//! ## Safety argument (the length-check-before-map contract)
//!
//! Mapping a file and reading past its end raises `SIGBUS`, not an error.
//! The store's manifest records every shard's exact byte length, so
//! [`ShardBytes::open`] `fstat`s the file first and refuses to map unless
//! the on-disk length equals the expected length — a truncated or resized
//! shard becomes `InvalidData` before any page is touched. The mapping is
//! `PROT_READ`/`MAP_PRIVATE`: nothing writes through it, and shard files
//! are content-addressed temp-file + rename artifacts that the store never
//! rewrites in place, so the pages stay valid for the mapping's lifetime.
//! (An external writer truncating the file *after* the check could still
//! fault — the same torn-read hazard `fs::read` has — which is why the
//! contract is length-check-before-map, not immunity to hostile
//! concurrent writers. The hostile-file tests cover the supported cases:
//! truncation, zero-length, and tamper are all clean errors.)
//!
//! The wrapper is deliberately minimal `extern "C"` over the platform's
//! `mmap`/`munmap` (std already links libc on Unix) — the `vendor/` tree
//! stays offline and dependency-free.

use std::io;
use std::path::Path;

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

/// The raw bytes of one shard file: either a page-cache-backed mapping or
/// a single heap buffer. `Deref`s to `&[u8]`; shared as `Arc<ShardBytes>`
/// between the LRU cache, the decoder, and in-flight socket writes, so
/// the bytes stay alive for exactly as long as anyone is still using them
/// — the lifetime rule that makes shipping a mapping to a socket sound.
pub struct ShardBytes {
    repr: Repr,
}

enum Repr {
    /// `mmap`ed region (Unix, mode `Auto`/`On`).
    #[cfg(unix)]
    Mapped(MapRegion),
    /// One heap buffer filled by `read_at` (fallback / `SICKLE_MMAP=off`).
    Heap(Vec<u8>),
}

impl ShardBytes {
    /// Opens `path` whose length must be exactly `expected_len`, selecting
    /// the mapped or heap path per `mode`.
    ///
    /// # Errors
    /// `InvalidData` when the on-disk length disagrees with
    /// `expected_len` (truncated/resized shard — checked *before* mapping,
    /// so it can never SIGBUS); I/O errors from open/stat/read/map.
    pub fn open(path: &Path, expected_len: usize, mode: MmapMode) -> io::Result<ShardBytes> {
        let file = std::fs::File::open(path)?;
        let actual = file.metadata()?.len();
        if actual != expected_len as u64 {
            return Err(invalid(format!(
                "shard {} is {actual} bytes on disk, manifest says {expected_len} \
                 (truncated or resized)",
                path.display()
            )));
        }
        // A zero-length mapping is an EINVAL from the kernel; an empty
        // heap buffer represents it exactly (and decode will reject it).
        #[cfg(unix)]
        if expected_len > 0 {
            match mode {
                MmapMode::Off => {}
                MmapMode::On => {
                    return Ok(ShardBytes {
                        repr: Repr::Mapped(MapRegion::map(&file, expected_len)?),
                    })
                }
                MmapMode::Auto => {
                    if let Ok(region) = MapRegion::map(&file, expected_len) {
                        return Ok(ShardBytes {
                            repr: Repr::Mapped(region),
                        });
                    }
                }
            }
        }
        #[cfg(not(unix))]
        let _ = mode;
        Ok(ShardBytes {
            repr: Repr::Heap(read_exact_at(&file, expected_len)?),
        })
    }

    /// The shard bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            #[cfg(unix)]
            Repr::Mapped(region) => region.as_slice(),
            Repr::Heap(bytes) => bytes,
        }
    }

    /// Byte length.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True for an empty shard file.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the bytes are page-cache-backed (no heap residency).
    pub fn is_mapped(&self) -> bool {
        match &self.repr {
            #[cfg(unix)]
            Repr::Mapped(_) => true,
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

/// Fills one heap buffer with exactly `len` bytes via positioned reads —
/// the portable path. A short file is `InvalidData` (same truncation
/// contract as the map path, discovered at read time instead of stat
/// time only if the file shrank in between).
fn read_exact_at(file: &std::fs::File, len: usize) -> io::Result<Vec<u8>> {
    let mut buf = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        #[cfg(unix)]
        let n = {
            use std::os::unix::fs::FileExt;
            file.read_at(&mut buf[filled..], filled as u64)?
        };
        #[cfg(not(unix))]
        let n = {
            use std::io::Read;
            (&*file).read(&mut buf[filled..])?
        };
        if n == 0 {
            return Err(invalid(format!(
                "shard shrank mid-read: got {filled} of {len} bytes"
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
            let view = ShardBytes::open(&path, data.len(), mode).unwrap();
            assert_eq!(view.as_slice(), &data[..], "{mode:?}");
            if cfg!(unix) && mode != MmapMode::Off {
                assert!(view.is_mapped(), "{mode:?} should map on unix");
            }
            if mode == MmapMode::Off {
                assert!(!view.is_mapped());
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn length_mismatch_errors_before_mapping() {
        let path = temp_file("short", b"0123456789");
        for mode in [MmapMode::On, MmapMode::Off] {
            let err = ShardBytes::open(&path, 1 << 20, mode).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{mode:?}");
            let err = ShardBytes::open(&path, 3, mode).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{mode:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_length_file_is_an_empty_heap_view() {
        let path = temp_file("empty", b"");
        for mode in [MmapMode::On, MmapMode::Off] {
            let view = ShardBytes::open(&path, 0, mode).unwrap();
            assert!(view.is_empty());
            assert!(!view.is_mapped(), "empty files never map");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_not_found() {
        let path = std::env::temp_dir().join("sickle_shard_bytes_nonexistent");
        let err = ShardBytes::open(&path, 4, MmapMode::Auto).unwrap_err();
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
