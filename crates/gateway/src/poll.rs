//! A thin shim over `poll(2)` — the one place the workspace talks to libc
//! directly.
//!
//! The build environment has no `libc` crate, but `std` already links the
//! platform C library, so declaring the one symbol we need is enough. The
//! reactor deliberately uses `poll` rather than `epoll`: the fd sets here
//! are rebuilt per iteration anyway (interest flips with backpressure),
//! portability is wider, and at the connection counts the bench drives
//! (hundreds, not hundreds of thousands) the O(n) scan is noise next to
//! erasure decoding.
//!
//! Everything above this module is safe code; the `unsafe` below is the
//! single FFI call, sound because the slice pointer/length pair handed to
//! the kernel is exactly a live `&mut [PollFd]` and `PollFd` is
//! `#[repr(C)]`-identical to `struct pollfd`.

use std::io;
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::RawFd;

/// Readable data (or a closed peer, together with [`POLLHUP`]).
pub const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition (always polled, only returned in `revents`).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (always polled, only returned in `revents`).
pub const POLLHUP: i16 = 0x010;
/// The fd is invalid (always polled, only returned in `revents`).
pub const POLLNVAL: i16 = 0x020;

/// Mirror of C `struct pollfd`; layout-compatible by `#[repr(C)]` and the
/// use of the exact C field types.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The file descriptor to watch.
    pub fd: RawFd,
    /// Events of interest ([`POLLIN`] | [`POLLOUT`]).
    pub events: c_short,
    /// Events that occurred, filled by the kernel.
    pub revents: c_short,
}

impl PollFd {
    /// A pollfd watching `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether any of `mask`'s bits came back in `revents`.
    pub fn has(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }

    /// Whether the fd is readable, errored, or hung up — every condition
    /// a read-interested caller must react to (errors surface on the
    /// subsequent `read`, which is how the reactor learns the cause).
    pub fn readable_or_dead(&self) -> bool {
        self.has(POLLIN | POLLERR | POLLHUP | POLLNVAL)
    }
}

// SAFETY: the declaration matches the libc prototype: `PollFd` is
// `#[repr(C)]` with the field layout of `struct pollfd`, and `nfds_t`
// is `unsigned long` on the only targets this builds for (Linux).
unsafe extern "C" {
    /// `poll(2)`.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Waits for readiness on `fds`, at most `timeout_ms` (negative = forever).
/// Returns how many entries have non-zero `revents`. `Interrupted` (EINTR)
/// is swallowed and reported as zero ready fds — callers loop anyway.
///
/// # Errors
///
/// The OS error from `poll(2)` for anything other than EINTR.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: `fds` is a live, exclusively borrowed slice of #[repr(C)]
    // pollfd-identical structs; the kernel writes only within it.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(e);
    }
    Ok(rc as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn poll_reports_readability() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        // Nothing to read yet.
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0);
        assert!(!fds[0].has(POLLIN));
        // One byte makes it readable.
        a.write_all(&[7]).unwrap();
        fds[0].revents = 0;
        assert_eq!(poll_fds(&mut fds, 1000).unwrap(), 1);
        assert!(fds[0].has(POLLIN));
        assert!(fds[0].readable_or_dead());
    }

    #[test]
    fn poll_reports_writability_and_hangup() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLOUT)];
        assert_eq!(poll_fds(&mut fds, 1000).unwrap(), 1);
        assert!(fds[0].has(POLLOUT));
        // Peer gone: POLLHUP (possibly with POLLOUT) comes back.
        drop(b);
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 1000).unwrap(), 1);
        assert!(fds[0].readable_or_dead());
    }
}
