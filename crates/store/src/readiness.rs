//! Socket readiness for the server core: a minimal safe wrapper over
//! Linux `epoll` plus an `eventfd` stop latch, declared as raw
//! `extern "C"` (std already links libc) so the `vendor/` tree stays
//! dependency-free — the same pattern `shard_bytes` uses for `mmap`.
//!
//! Every socket is armed **one-shot**: the kernel reports it to exactly
//! one waiter and then mutes it until [`Poller::arm`] is called again, so
//! "one worker per connection at a time" is the kernel's guarantee, not a
//! queue discipline. A closed descriptor leaves the set by itself. The
//! one level-triggered member is the stop latch: once [`Poller::stop`]
//! has run it stays readable, so every waiter wakes, now and later.

use std::ffi::c_int;
use std::fs::File;
use std::io::{self, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[cfg(not(target_os = "linux"))]
compile_error!("sickle-store's server core is readiness-driven through Linux epoll");

mod sys {
    use std::ffi::c_int;

    pub const CLOEXEC: c_int = 0o2000000; // EPOLL_CLOEXEC == EFD_CLOEXEC
    pub const EFD_NONBLOCK: c_int = 0o4000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLONESHOT: u32 = 1 << 30;
    pub const ENOENT: i32 = 2;
    pub const POLLIN: i16 = 0x1;

    /// `struct epoll_event`; the kernel ABI packs it on x86-64 only.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(epfd: c_int, events: *mut EpollEvent, max: c_int, ms: c_int) -> c_int;
        pub fn eventfd(initval: u32, flags: c_int) -> c_int;
        pub fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, ms: c_int) -> c_int;
    }
}

/// Turns a descriptor-returning syscall result into an owned descriptor.
fn owned(fd: c_int) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: the kernel just returned `fd` to this call and nothing else
    // knows its number, so this is its only owner; drop closes it once.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// A wait's timeout argument in milliseconds, rounded up so a wait never
/// ends before its time; `-1` (forever) for `None`.
fn millis(timeout: Option<Duration>) -> c_int {
    timeout.map_or(-1, |d| {
        d.as_micros().div_ceil(1000).min(i32::MAX as u128) as c_int
    })
}

/// Which direction a parked socket is waiting on. Errors and hang-ups are
/// always reported, whichever is armed.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Interest {
    Readable,
    Writable,
}

/// The token [`Poller::wait`] reports for the stop latch; socket tokens
/// must be smaller.
const LATCH: u64 = u64::MAX;

/// One `epoll` instance shared by every worker, with its stop latch.
pub(crate) struct Poller {
    epfd: OwnedFd,
    latch: File,
    stopped: AtomicBool,
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY (both): no pointer arguments; `owned` checks the result.
        let epfd = owned(unsafe { sys::epoll_create1(sys::CLOEXEC) })?;
        let latch = owned(unsafe { sys::eventfd(0, sys::CLOEXEC | sys::EFD_NONBLOCK) })?;
        let poller = Poller {
            epfd,
            latch: latch.into(),
            stopped: AtomicBool::new(false),
        };
        poller.ctl(
            sys::EPOLL_CTL_ADD,
            poller.latch.as_raw_fd(),
            LATCH,
            sys::EPOLLIN,
        )?;
        Ok(poller)
    }

    /// Raises the stop flag and opens the latch: every `wait`, in progress
    /// or future, returns at once. There is no way back.
    pub(crate) fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        // An eventfd write only fails when its counter would overflow,
        // i.e. when it is already (and stays) readable.
        let _ = (&self.latch).write(&1u64.to_ne_bytes());
    }

    pub(crate) fn stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut event = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `event` is a live, correctly laid out `epoll_event` that
        // the kernel copies before returning; `epfd` is owned by `self`,
        // and a stale `fd` is an `EBADF`/`ENOENT` error, not undefined.
        let rc = unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Arms `fd` for one report of `interest` under `token`, registering
    /// it on first use. The caller keeps `fd` open while it is armed.
    pub(crate) fn arm(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        let events = sys::EPOLLONESHOT
            | match interest {
                Interest::Readable => sys::EPOLLIN,
                Interest::Writable => sys::EPOLLOUT,
            };
        match self.ctl(sys::EPOLL_CTL_MOD, fd.as_raw_fd(), token, events) {
            Err(e) if e.raw_os_error() == Some(sys::ENOENT) => {
                self.ctl(sys::EPOLL_CTL_ADD, fd.as_raw_fd(), token, events)
            }
            other => other,
        }
    }

    /// Blocks until [`stop`](Self::stop) has run or `deadline` has passed
    /// and returns whether the stop came. It `poll`s the latch itself — a
    /// waiter beside the workers' `epoll` that neither consumes the latch
    /// nor needs arming — so a stop wakes it at once, and nothing spins.
    pub(crate) fn wait_stopped(&self, deadline: Option<Instant>) -> io::Result<bool> {
        loop {
            if self.stopped() {
                return Ok(true);
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                return Ok(false);
            }
            let mut latch = sys::PollFd {
                fd: self.latch.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            };
            // SAFETY: `latch` is one live, correctly laid out `pollfd`, as
            // `nfds = 1` tells the kernel; its descriptor is owned by `self`.
            if unsafe { sys::poll(&mut latch, 1, millis(left)) } < 0 {
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            }
        }
    }

    /// Blocks until one armed descriptor is ready and returns its token;
    /// `None` when `timeout` (rounded up to a millisecond) ran out first.
    /// After [`stop`](Self::stop) it never blocks; check `stopped` first.
    pub(crate) fn wait(&self, timeout: Option<Duration>) -> io::Result<Option<u64>> {
        let ms = millis(timeout);
        let mut event = sys::EpollEvent { events: 0, data: 0 };
        loop {
            // SAFETY: `event` is writable room for exactly the one event
            // `max = 1` lets the kernel store; `epfd` is owned by `self`.
            match unsafe { sys::epoll_wait(self.epfd.as_raw_fd(), &mut event, 1, ms) } {
                0 => return Ok(None),
                n if n > 0 => return Ok(Some(event.data)),
                _ => {
                    let e = io::Error::last_os_error();
                    if e.kind() != io::ErrorKind::Interrupted {
                        return Err(e);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn one_shot_reports_once_until_rearmed_and_the_latch_wakes_every_wait() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let poller = Poller::new().unwrap();
        let short = Some(Duration::from_millis(20));

        poller.arm(&server, 7, Interest::Readable).unwrap();
        assert_eq!(poller.wait(short).unwrap(), None, "nothing to read yet");
        client.write_all(b"x").unwrap();
        assert_eq!(poller.wait(None).unwrap(), Some(7));
        assert_eq!(poller.wait(short).unwrap(), None, "muted until re-armed");
        poller.arm(&server, 8, Interest::Readable).unwrap();
        assert_eq!(poller.wait(None).unwrap(), Some(8), "byte still unread");
        server.read_exact(&mut [0u8; 1]).unwrap();
        poller.arm(&server, 9, Interest::Writable).unwrap();
        assert_eq!(poller.wait(None).unwrap(), Some(9), "empty send buffer");
        drop(server); // closing leaves the set without an explicit delete

        assert!(!poller.stopped());
        poller.stop();
        for _ in 0..3 {
            assert_eq!(poller.wait(None).unwrap(), Some(LATCH), "stays open");
        }
        assert!(poller.stopped());
    }

    #[test]
    fn wait_stopped_ends_at_the_deadline_or_at_the_stop() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_millis(30);
        assert!(!poller.wait_stopped(Some(deadline)).unwrap(), "no stop yet");
        assert!(Instant::now() >= deadline, "returned before its deadline");

        let stopper = {
            let poller = std::sync::Arc::clone(&poller);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                poller.stop();
            })
        };
        assert!(poller.wait_stopped(None).unwrap(), "the stop ends a wait");
        stopper.join().unwrap();
        assert!(poller.wait_stopped(Some(t0)).unwrap(), "a past stop counts");
    }
}
