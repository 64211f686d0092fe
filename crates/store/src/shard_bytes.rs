//! The store's pack file as one read-only `mmap`: every shard is a
//! borrowed slice of it.
//!
//! A store keeps every shard in one pack file. [`Pack`] is that file,
//! opened once per store as one read-only mapping of the whole pack, and
//! [`Pack::shard`] returns a shard's bytes as a `&[u8]` borrowed from the
//! `Pack`. The kernel's page cache *is* the buffer: the read path hashes
//! and decodes straight out of it, no user-space copy of the payload ever
//! exists, and the borrow checker proves that no slice outlives the
//! mapping. A zero-length pack serves empty slices without a mapping; an
//! `mmap` failure is the open's error.
//!
//! ## Safety argument (length check before map, checked ranges)
//!
//! Mapping a file and reading past its end raises `SIGBUS`, not an error.
//! The store's manifest records the pack's exact byte length, so
//! [`Pack::open`] `fstat`s the file first and refuses to map unless the
//! on-disk length equals the expected length — a truncated or resized pack
//! becomes `InvalidData` before any page is touched. Every slice is then
//! bounds-checked against that length ([`Pack::shard`] uses checked
//! arithmetic), so no range a manifest can name reaches past the mapping.
//! The mapping is `PROT_READ`/`MAP_PRIVATE`: nothing writes through it,
//! and packs are content-named temp-file + rename artifacts that the store
//! never rewrites in place, so the pages stay valid until the `Pack` drops
//! and unmaps them — after every slice borrowed from it is gone. (An
//! external writer truncating the file *after* the check could still fault
//! — the same torn-read hazard `fs::read` has — which is why the contract
//! is length-check-before-map, not immunity to hostile concurrent writers.
//! The hostile-pack tests cover the supported cases: truncation,
//! zero-length, tamper, and hostile ranges are all clean errors.)
//!
//! The wrapper is deliberately minimal `extern "C"` over the platform's
//! `mmap`/`munmap` (std already links libc) — the `vendor/` tree
//! stays offline and dependency-free.

use std::io;
use std::path::Path;

use sickle_field::io::invalid;

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

/// A store's pack file, opened once, length-checked and mapped whole;
/// unmapped on drop. Serves every shard as a slice of its mapping. A
/// zero-length pack maps nothing (the kernel refuses empty mappings) and
/// its pointer dangles.
pub struct Pack {
    ptr: *const u8,
    len: usize,
}

// SAFETY: `ptr`/`len` name a PROT_READ/MAP_PRIVATE mapping (or a
// dangling pointer and 0) that nothing writes through — immutable shared
// bytes, like a leaked `&'static [u8]` — and only `Drop`, which owns the
// pack, unmaps it. So handing the pack between threads or reading it
// concurrently is sound.
unsafe impl Send for Pack {}
unsafe impl Sync for Pack {}

impl Pack {
    /// Opens and maps the pack at `path`, whose length must be exactly
    /// `expected_len`.
    ///
    /// # Errors
    /// `InvalidData` when the on-disk length disagrees with `expected_len`
    /// (truncated or resized pack — checked *before* mapping, so it can
    /// never SIGBUS); I/O errors from open/stat/map.
    pub fn open(path: &Path, expected_len: usize) -> io::Result<Pack> {
        use std::os::unix::io::AsRawFd;
        let file = std::fs::File::open(path)?;
        let actual = file.metadata()?.len();
        if actual != expected_len as u64 {
            return Err(invalid(format!(
                "pack {} is {actual} bytes on disk, manifest says {expected_len} \
                 (truncated or resized)",
                path.display()
            )));
        }
        if expected_len == 0 {
            return Ok(Pack {
                ptr: std::ptr::NonNull::dangling().as_ptr(),
                len: 0,
            });
        }
        // SAFETY: fd is a live open file, and len > 0 (checked above)
        // equals the file's length (checked above); we only ever read
        // through the returned pages while the pack is alive.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                expected_len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if sys::map_failed(ptr) {
            return Err(io::Error::last_os_error());
        }
        Ok(Pack {
            ptr: ptr as *const u8,
            len: expected_len,
        })
    }

    /// The `len` bytes at `offset`, borrowed from the mapping.
    ///
    /// # Errors
    /// `InvalidData` when the range does not lie inside the pack (checked
    /// arithmetic: an overflowing range is an error, not a panic).
    pub fn shard(&self, offset: usize, len: usize) -> io::Result<&[u8]> {
        match offset.checked_add(len) {
            Some(end) if end <= self.len => Ok(&self.bytes()[offset..end]),
            _ => Err(invalid(format!(
                "shard range {offset}+{len} runs past the {}-byte pack",
                self.len
            ))),
        }
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: ptr/len came from a successful mmap that lives until
        // Drop (or are a dangling pointer and 0); the pages are immutable
        // (PROT_READ, private, file never rewritten in place), and the
        // returned borrow of `self` ends before Drop unmaps them.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Pack {
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
            assert_eq!(
                pack.shard(offset, len).unwrap(),
                &data[offset..offset + len]
            );
        }
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
