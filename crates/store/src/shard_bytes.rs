//! Zero-copy shard byte handles: range views of a store's `mmap`ed pack
//! file.
//!
//! A store keeps every shard in one pack file. [`Pack`] is that file,
//! opened once per store as one read-only mapping of the whole pack. A
//! [`ShardBytes`] is the one owner of a shard's raw bytes between disk and
//! socket: a range view sharing the pack's mapping. The kernel's page
//! cache *is* the buffer, the serve path hashes and tensorizes straight
//! out of it, and no user-space copy of the payload ever exists. A
//! zero-length pack serves empty views without a mapping; an `mmap`
//! failure is the open's error.
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
//! `mmap`/`munmap` (std already links libc) — the `vendor/` tree
//! stays offline and dependency-free.

use std::io;
use std::path::Path;
use std::sync::Arc;

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

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

/// A read-only `mmap` of a whole file, unmapped on drop. A zero-length
/// region maps nothing (the kernel refuses empty mappings) and dangles.
struct MapRegion {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE — immutable shared bytes,
// like a leaked `&'static [u8]` — so handing the region between threads or
// reading it concurrently is sound.
unsafe impl Send for MapRegion {}
unsafe impl Sync for MapRegion {}

impl MapRegion {
    fn map(file: &std::fs::File, len: usize) -> io::Result<MapRegion> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return Ok(MapRegion {
                ptr: std::ptr::NonNull::dangling().as_ptr(),
                len,
            });
        }
        // SAFETY: fd is a live open file, len > 0 (checked above) was
        // length-checked against the file by the caller, and we only ever
        // read through the returned pages while the region is alive.
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
        // Drop (or are a dangling pointer and 0); the pages are immutable
        // (PROT_READ, private, file never rewritten in place).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for MapRegion {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        // SAFETY: exactly the pointer/length pair mmap returned.
        unsafe {
            sys::munmap(self.ptr as *mut std::ffi::c_void, self.len);
        }
    }
}

/// A store's pack file, opened once, length-checked and mapped whole.
/// Serves every shard as a [`ShardBytes`] range of its mapping.
pub struct Pack {
    region: Arc<MapRegion>,
}

impl Pack {
    /// Opens and maps the pack at `path`, whose length must be exactly
    /// `expected_len`.
    ///
    /// # Errors
    /// `InvalidData` when the on-disk length disagrees with `expected_len`
    /// (truncated or resized pack — checked *before* mapping, so it can
    /// never SIGBUS); I/O errors from open/stat/map.
    pub fn open(path: &Path, expected_len: usize) -> io::Result<Pack> {
        let file = std::fs::File::open(path)?;
        let actual = file.metadata()?.len();
        if actual != expected_len as u64 {
            return Err(invalid(format!(
                "pack {} is {actual} bytes on disk, manifest says {expected_len} \
                 (truncated or resized)",
                path.display()
            )));
        }
        Ok(Pack {
            region: Arc::new(MapRegion::map(&file, expected_len)?),
        })
    }

    /// The `len` bytes at `offset`: a view sharing the mapping.
    ///
    /// # Errors
    /// `InvalidData` when the range does not lie inside the pack (checked
    /// arithmetic: an overflowing range is an error, not a panic).
    pub fn shard(&self, offset: usize, len: usize) -> io::Result<ShardBytes> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.region.len)
        {
            return Err(invalid(format!(
                "shard range {offset}+{len} runs past the {}-byte pack",
                self.region.len
            )));
        }
        Ok(ShardBytes {
            region: Arc::clone(&self.region),
            offset,
            len,
        })
    }
}

/// The raw bytes of one shard: a range view of the pack's mapping.
/// `Deref`s to `&[u8]`; shared as `Arc<ShardBytes>` between the LRU cache,
/// the decoder, and in-flight requests, so the bytes stay alive for
/// exactly as long as anyone is still using them. A view holds the pack's
/// mapping alive by itself — the lifetime rule that makes serving out of a
/// mapping sound even after the store (or a re-ingest) has let go of the
/// pack.
pub struct ShardBytes {
    region: Arc<MapRegion>,
    offset: usize,
    len: usize,
}

impl ShardBytes {
    /// The shard bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.region.as_slice()[self.offset..self.offset + self.len]
    }

    /// Byte length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for an empty shard.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::fmt::Debug for ShardBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardBytes")
            .field("offset", &self.offset)
            .field("len", &self.len)
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
    fn views_are_the_file_bytes() {
        let data: Vec<u8> = (0..40_000u32).map(|i| (i * 7) as u8).collect();
        let path = temp_file("agree", &data);
        let pack = Pack::open(&path, data.len()).unwrap();
        for (offset, len) in [(0, data.len()), (0, 1), (4095, 4097), (39_999, 1), (123, 0)] {
            let view = pack.shard(offset, len).unwrap();
            assert_eq!(view.as_slice(), &data[offset..offset + len]);
            assert_eq!(view.len(), len);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_view_outlives_its_pack() {
        let data: Vec<u8> = (0..9000u32).map(|i| (i * 13) as u8).collect();
        let path = temp_file("outlive", &data);
        let pack = Pack::open(&path, data.len()).unwrap();
        let view = pack.shard(100, 5000).unwrap();
        drop(pack);
        assert_eq!(view.as_slice(), &data[100..5100]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn length_mismatch_errors_before_mapping() {
        let path = temp_file("short", b"0123456789");
        let err = Pack::open(&path, 1 << 20).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = Pack::open(&path, 3).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ranges_outside_the_pack_are_invalid_data() {
        let path = temp_file("ranges", b"0123456789");
        let pack = Pack::open(&path, 10).unwrap();
        for (offset, len) in [(0, 11), (10, 1), (11, 0), (usize::MAX, 2), (5, usize::MAX)] {
            let err = pack.shard(offset, len).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{offset}+{len}");
        }
        assert!(pack.shard(10, 0).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_length_file_is_an_empty_view() {
        let path = temp_file("empty", b"");
        let pack = Pack::open(&path, 0).unwrap();
        assert!(pack.shard(0, 0).unwrap().is_empty());
        let err = pack.shard(0, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        drop(pack);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_not_found() {
        let path = std::env::temp_dir().join("sickle_shard_bytes_nonexistent");
        let err = Pack::open(&path, 4).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
