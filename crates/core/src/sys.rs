//! Thin, classified wrappers over the modern event-driven syscall
//! surface the reactor ([`crate::serve`]) is built on: `epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `eventfd2` (via glibc's `eventfd`), and
//! `accept4`, plus the raw `read`/`write`/`close` the connection state
//! machines drive and the `open` that refills the reactor's spare
//! descriptor.
//!
//! A study *of* modern Linux API usage should itself exercise the modern
//! API surface it measures — every call here is in our own catalog
//! (`apistudy serve --self-audit` reports the mapping) — so the bindings
//! are direct `extern "C"` declarations against the system libc, no
//! external crates. This is the **only** module in the crate allowed to
//! contain FFI `unsafe`; everything it exports is a safe function with a
//! classified [`SysError`] on failure, and the unsafety is confined to
//! the few lines that cross the C boundary with invariants stated at
//! each site.
//!
//! Errno handling is explicit: every failing call captures `errno` at
//! the call site and carries the call's name, and [`SysError::kind`]
//! classifies the handful of values control flow depends on
//! (would-block, interrupted, peer-gone, fd-exhausted) so callers never
//! match on raw integers.
//!
//! Every wrapper is also a fault-injection point: it consults the
//! [`crate::sysfault`] shim with its callsite tag before crossing the C
//! boundary, so an armed plan can make any call here fail with a
//! plausible errno (or transfer short) deterministically. Disarmed, the
//! check is a single relaxed atomic load.

#![allow(unsafe_code)]

use crate::sysfault::{self, SysFaultKind};
use std::ffi::CStr;
use std::fs::File;
use std::io::{self, Write as _};
use std::net::{TcpListener, TcpStream};
use std::os::raw::{c_char, c_int, c_uint, c_void};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};
use std::time::Duration;

// The raw C surface. These symbols come from the system libc the binary
// is already linked against; `eventfd` is glibc's wrapper over the
// `eventfd2` syscall (the flags-bearing modern form).
extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(
        epfd: c_int,
        op: c_int,
        fd: c_int,
        event: *mut EpollEvent,
    ) -> c_int;
    fn epoll_wait(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn accept4(
        sockfd: c_int,
        addr: *mut c_void,
        addrlen: *mut u32,
        flags: c_int,
    ) -> c_int;
    fn open(path: *const c_char, flags: c_int, ...) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn __errno_location() -> *mut c_int;
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

const SOCK_NONBLOCK: c_int = 0o4000;
const SOCK_CLOEXEC: c_int = 0o2000000;

const O_RDONLY: c_int = 0;
const O_CLOEXEC: c_int = 0o2000000;

/// Readable readiness (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`); always reported, never requested.
pub const EPOLLERR: u32 = 0x008;
/// Hangup (`EPOLLHUP`); always reported, never requested.
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its writing half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;

const EINTR: i32 = 4;
const EAGAIN: i32 = 11;
const EPIPE: i32 = 32;
const ECONNRESET: i32 = 104;
const ENFILE: i32 = 23;
const EMFILE: i32 = 24;

/// One readiness record, kernel layout. On x86-64 the kernel declares
/// `struct epoll_event` packed (12 bytes); elsewhere it is naturally
/// aligned — the cfg_attr mirrors the kernel headers exactly.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready-event bitmask (`EPOLLIN` | `EPOLLOUT` | ...).
    pub events: u32,
    /// The caller's token, round-tripped verbatim by the kernel.
    pub token: u64,
}

impl EpollEvent {
    /// The event bitmask (a method because the struct may be packed, so
    /// direct field borrows are not always well-aligned).
    pub fn ready(&self) -> u32 {
        self.events
    }

    /// The registration token this readiness belongs to.
    pub fn data(&self) -> u64 {
        self.token
    }
}

/// A failed syscall: which call, and the `errno` it left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SysError {
    /// The libc entry point that failed.
    pub call: &'static str,
    /// The `errno` value captured immediately after the failure.
    pub errno: i32,
}

/// The errno classes control flow branches on. Everything else is
/// [`SysErrorKind::Other`] and treated as fatal for the descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysErrorKind {
    /// `EAGAIN`/`EWOULDBLOCK`: the operation would block; retry on the
    /// next readiness event.
    WouldBlock,
    /// `EINTR`: interrupted by a signal; retry immediately.
    Interrupted,
    /// `EPIPE`/`ECONNRESET`: the peer is gone; close the connection.
    Disconnected,
    /// `EMFILE`/`ENFILE`: the process (or system) descriptor table is
    /// full; stop creating descriptors until one is released.
    FdExhausted,
    /// Anything else (including `EBADF`, which is always a logic bug).
    Other,
}

impl SysError {
    fn capture(call: &'static str) -> Self {
        // SAFETY: __errno_location always returns a valid pointer to the
        // calling thread's errno slot.
        let errno = unsafe { *__errno_location() };
        Self { call, errno }
    }

    /// Classifies the errno into the cases callers branch on.
    pub fn kind(self) -> SysErrorKind {
        match self.errno {
            EAGAIN => SysErrorKind::WouldBlock,
            EINTR => SysErrorKind::Interrupted,
            EPIPE | ECONNRESET => SysErrorKind::Disconnected,
            EMFILE | ENFILE => SysErrorKind::FdExhausted,
            _ => SysErrorKind::Other,
        }
    }
}

/// Materializes an injected fault as the [`SysError`] the real call
/// would have produced. `ShortIo` has no errno; if a plan forces it at
/// a non-stream site it degrades to `EINTR` (a retry), never a bogus
/// errno 0.
fn fault_error(site: &'static str, kind: SysFaultKind) -> SysError {
    let errno = match kind.errno() {
        0 => EINTR,
        e => e,
    };
    SysError { call: site, errno }
}

impl std::fmt::Display for SysError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} failed with errno {}", self.call, self.errno)
    }
}

impl std::error::Error for SysError {}

/// An epoll instance. Owns the descriptor; closed on drop.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn new() -> Result<Self, SysError> {
        // SAFETY: no pointers cross the boundary.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(SysError::capture("epoll_create1"));
        }
        Ok(Self { fd })
    }

    fn ctl(
        &self,
        op: c_int,
        call: &'static str,
        fd: RawFd,
        events: u32,
        token: u64,
    ) -> Result<(), SysError> {
        if let Some(k) = sysfault::check(call) {
            return Err(fault_error(call, k));
        }
        let mut ev = EpollEvent { events, token };
        // SAFETY: `ev` outlives the call; the kernel copies it before
        // returning. A DEL op ignores the event pointer entirely.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(SysError::capture(call));
        }
        Ok(())
    }

    /// Registers `fd` for the given interest mask under `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> Result<(), SysError> {
        self.ctl(EPOLL_CTL_ADD, "epoll_ctl(ADD)", fd, events, token)
    }

    /// Rewrites `fd`'s interest mask (token re-stated, kernel replaces both).
    pub fn modify(
        &self,
        fd: RawFd,
        events: u32,
        token: u64,
    ) -> Result<(), SysError> {
        self.ctl(EPOLL_CTL_MOD, "epoll_ctl(MOD)", fd, events, token)
    }

    /// Deregisters `fd`.
    pub fn del(&self, fd: RawFd) -> Result<(), SysError> {
        self.ctl(EPOLL_CTL_DEL, "epoll_ctl(DEL)", fd, 0, 0)
    }

    /// Blocks until readiness or timeout (`None` = forever), filling
    /// `events`. Returns the ready prefix. `EINTR` retries internally —
    /// callers never see a spurious empty wake from a signal.
    pub fn wait<'e>(
        &self,
        events: &'e mut [EpollEvent],
        timeout: Option<Duration>,
    ) -> Result<&'e [EpollEvent], SysError> {
        let timeout_ms: c_int = match timeout {
            // Round *up* so a 100 µs deadline does not busy-spin at 0 ms.
            Some(t) => t
                .as_millis()
                .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as c_int,
            None => -1,
        };
        loop {
            if let Some(k) = sysfault::check("epoll_wait") {
                let err = fault_error("epoll_wait", k);
                if err.kind() == SysErrorKind::Interrupted {
                    continue; // the same signal-retry path a real EINTR takes
                }
                return Err(err);
            }
            // SAFETY: `events` is a valid, writable slice; maxevents is
            // its exact length, so the kernel cannot write past it.
            let rc = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as c_int,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                return Ok(&events[..rc as usize]);
            }
            let err = SysError::capture("epoll_wait");
            if err.kind() != SysErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the descriptor; double-close is impossible
        // because drop runs once.
        unsafe { close(self.fd) };
    }
}

/// A nonblocking eventfd used as the reactor's cross-thread doorbell:
/// worker completions and drain requests `signal` it, and the event loop
/// `drain`s it when epoll reports it readable.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// `eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)` — the modern `eventfd2`
    /// form (flags require it; the original `eventfd` syscall has none).
    pub fn new() -> Result<Self, SysError> {
        // SAFETY: no pointers cross the boundary.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(SysError::capture("eventfd"));
        }
        Ok(Self { fd })
    }

    /// The raw descriptor, for epoll registration.
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Rings the doorbell. Safe from any thread; a full counter
    /// (`WouldBlock`) already guarantees the reader will wake, so that
    /// case is success, not failure, and `EINTR` retries — a signal
    /// landing mid-ring must never lose a wakeup.
    pub fn signal(&self) -> Result<(), SysError> {
        let one: u64 = 1;
        loop {
            if let Some(k) = sysfault::check("write(eventfd)") {
                let err = fault_error("write(eventfd)", k);
                match err.kind() {
                    SysErrorKind::WouldBlock => return Ok(()),
                    SysErrorKind::Interrupted => continue,
                    _ => return Err(err),
                }
            }
            // SAFETY: 8 valid bytes for the eventfd write protocol.
            let rc = unsafe {
                write(self.fd, (&one as *const u64).cast::<c_void>(), 8)
            };
            if rc >= 0 {
                return Ok(());
            }
            let err = SysError::capture("write(eventfd)");
            match err.kind() {
                SysErrorKind::WouldBlock => return Ok(()),
                SysErrorKind::Interrupted => continue,
                _ => return Err(err),
            }
        }
    }

    /// Clears the counter, returning how many signals had accumulated
    /// (0 if the bell was not rung — a spurious wake). `EINTR` retries;
    /// a swallowed drain would leave the bell permanently ready.
    pub fn drain(&self) -> Result<u64, SysError> {
        let mut count: u64 = 0;
        loop {
            if let Some(k) = sysfault::check("read(eventfd)") {
                let err = fault_error("read(eventfd)", k);
                match err.kind() {
                    SysErrorKind::WouldBlock => return Ok(0),
                    SysErrorKind::Interrupted => continue,
                    _ => return Err(err),
                }
            }
            // SAFETY: 8 writable bytes for the eventfd read protocol.
            let rc = unsafe {
                read(self.fd, (&mut count as *mut u64).cast::<c_void>(), 8)
            };
            if rc >= 0 {
                return Ok(count);
            }
            let err = SysError::capture("read(eventfd)");
            match err.kind() {
                SysErrorKind::WouldBlock => return Ok(0),
                SysErrorKind::Interrupted => continue,
                _ => return Err(err),
            }
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: we own the descriptor.
        unsafe { close(self.fd) };
    }
}

/// `accept4(SOCK_NONBLOCK | SOCK_CLOEXEC)` on a listening socket:
/// `Ok(Some(stream))` for a new connection (already nonblocking, no
/// follow-up fcntl round trip — the point of the modern call),
/// `Ok(None)` when the backlog is empty.
pub fn accept_nonblocking(
    listener: &TcpListener,
) -> Result<Option<TcpStream>, SysError> {
    loop {
        if let Some(k) = sysfault::check("accept4") {
            let err = fault_error("accept4", k);
            match err.kind() {
                SysErrorKind::WouldBlock => return Ok(None),
                SysErrorKind::Interrupted
                | SysErrorKind::Disconnected => continue,
                // FdExhausted (EMFILE/ENFILE) and Other surface to the
                // reactor, which pauses accepting on exhaustion.
                _ => return Err(err),
            }
        }
        // SAFETY: null addr/addrlen is the documented "don't care" form.
        let fd = unsafe {
            accept4(
                listener.as_raw_fd(),
                std::ptr::null_mut(),
                std::ptr::null_mut(),
                SOCK_NONBLOCK | SOCK_CLOEXEC,
            )
        };
        if fd >= 0 {
            // SAFETY: `fd` is a fresh, owned socket descriptor returned
            // by accept4; TcpStream takes sole ownership.
            return Ok(Some(unsafe { TcpStream::from_raw_fd(fd) }));
        }
        let err = SysError::capture("accept4");
        match err.kind() {
            SysErrorKind::WouldBlock => return Ok(None),
            SysErrorKind::Interrupted => continue,
            // A connection that was reset between arrival and accept is
            // not the listener's problem; try the next one.
            SysErrorKind::Disconnected => continue,
            SysErrorKind::FdExhausted | SysErrorKind::Other => {
                return Err(err)
            }
        }
    }
}

/// `open(path, O_RDONLY | O_CLOEXEC)` (glibc issues `openat`). `EINTR`
/// retries; `EMFILE`/`ENFILE` surface as [`SysErrorKind::FdExhausted`].
pub(crate) fn open_read_only(path: &CStr) -> Result<File, SysError> {
    loop {
        if let Some(k) = sysfault::check("open") {
            let err = fault_error("open", k);
            if err.kind() == SysErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
        // SAFETY: `path` is NUL-terminated and outlives the call; without
        // O_CREAT the variadic mode argument is not read.
        let fd = unsafe { open(path.as_ptr(), O_RDONLY | O_CLOEXEC) };
        if fd >= 0 {
            // SAFETY: `fd` is a fresh descriptor returned by open; File
            // takes sole ownership.
            return Ok(unsafe { File::from_raw_fd(fd) });
        }
        let err = SysError::capture("open");
        if err.kind() != SysErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Raw nonblocking read. `Ok(0)` is end-of-stream (peer closed). An
/// injected `ShortIo` clamps the transfer to one byte — a real read,
/// just maximally short — so accumulation logic is exercised, not faked.
pub fn read_fd(fd: RawFd, buf: &mut [u8]) -> Result<usize, SysError> {
    let mut len = buf.len();
    if let Some(k) = sysfault::check("read") {
        if k == SysFaultKind::ShortIo {
            len = len.min(1);
        } else {
            return Err(fault_error("read", k));
        }
    }
    // SAFETY: `buf` is a valid writable slice; count never exceeds it.
    let rc = unsafe { read(fd, buf.as_mut_ptr().cast::<c_void>(), len) };
    if rc < 0 {
        return Err(SysError::capture("read"));
    }
    Ok(rc as usize)
}

/// Raw nonblocking write. Short writes are normal under backpressure;
/// an injected `ShortIo` forces the shortest one possible (1 byte).
pub fn write_fd(fd: RawFd, buf: &[u8]) -> Result<usize, SysError> {
    let mut len = buf.len();
    if let Some(k) = sysfault::check("write") {
        if k == SysFaultKind::ShortIo {
            len = len.min(1);
        } else {
            return Err(fault_error("write", k));
        }
    }
    // SAFETY: `buf` is a valid readable slice; count never exceeds it.
    let rc = unsafe { write(fd, buf.as_ptr().cast::<c_void>(), len) };
    if rc < 0 {
        return Err(SysError::capture("write"));
    }
    Ok(rc as usize)
}

/// Fault-aware `write_all` for the durable append paths (journal and
/// store), tagged with their callsite (`"journal.write"` /
/// `"store.write"`). Injected `EINTR` retries in place, `ShortIo`
/// continues from the short position, and `ENOSPC` first lands a torn
/// prefix of the remaining bytes — a real full disk tears writes — then
/// surfaces as a classified `io::Error`; `EIO` (and any other errno a
/// plan forces) surfaces directly. Disarmed, this is `write_all`.
pub fn file_write_all(
    mut file: &File,
    buf: &[u8],
    site: &'static str,
) -> io::Result<()> {
    let mut off = 0usize;
    while off < buf.len() {
        match sysfault::check(site) {
            None => {
                file.write_all(&buf[off..])?;
                off = buf.len();
            }
            Some(SysFaultKind::Eintr) | Some(SysFaultKind::Eagain) => {
                continue; // retried; the ledger still records the fault
            }
            Some(SysFaultKind::ShortIo) => {
                file.write_all(&buf[off..=off])?;
                off += 1;
            }
            Some(SysFaultKind::Enospc) => {
                let torn = (buf.len() - off) / 2;
                file.write_all(&buf[off..off + torn])?;
                return Err(io::Error::from_raw_os_error(
                    SysFaultKind::Enospc.errno(),
                ));
            }
            Some(k) => {
                return Err(io::Error::from_raw_os_error(fault_error(
                    site, k,
                )
                .errno));
            }
        }
    }
    Ok(())
}

/// Fault-aware `sync_data` for the durable append paths, tagged
/// (`"journal.fsync"` / `"store.fsync"`). Injected `EINTR` retries;
/// `EIO`/`ENOSPC` surface classified — the "fsyncgate" trigger: after a
/// failed fsync the page-cache state is unknowable, so callers must
/// fail stop, not retry. Disarmed, this is `sync_data`.
pub fn file_sync_data(file: &File, site: &'static str) -> io::Result<()> {
    loop {
        match sysfault::check(site) {
            None => return file.sync_data(),
            Some(SysFaultKind::Eintr)
            | Some(SysFaultKind::Eagain)
            | Some(SysFaultKind::ShortIo) => continue,
            Some(k) => {
                return Err(io::Error::from_raw_os_error(
                    fault_error(site, k).errno,
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EBADF: i32 = 9;

    #[test]
    fn epoll_event_layout_matches_the_kernel() {
        // x86-64 packs the struct to 12 bytes; the kernel reads/writes
        // exactly that layout, so a mismatch here corrupts every token.
        if cfg!(target_arch = "x86_64") {
            assert_eq!(std::mem::size_of::<EpollEvent>(), 12);
        } else {
            assert_eq!(std::mem::size_of::<EpollEvent>(), 16);
        }
    }

    #[test]
    fn eventfd_signal_wakes_epoll_and_drains() {
        let ep = Epoll::new().expect("epoll_create1");
        let bell = EventFd::new().expect("eventfd");
        ep.add(bell.raw(), EPOLLIN, 7).expect("register eventfd");

        // Nothing signalled: a short wait times out empty.
        let mut events = [EpollEvent { events: 0, token: 0 }; 8];
        let ready = ep
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(ready.is_empty(), "spurious readiness before signal");

        // Two signals coalesce into one readiness with count 2.
        bell.signal().expect("signal");
        bell.signal().expect("signal");
        let ready = ep
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].data(), 7);
        assert!(ready[0].ready() & EPOLLIN != 0);
        assert_eq!(bell.drain().expect("drain"), 2);
        // Drained: the bell is quiet again.
        assert_eq!(bell.drain().expect("drain empty"), 0);
        let ready = ep
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(ready.is_empty(), "readiness must clear after drain");
    }

    #[test]
    fn accept4_returns_nonblocking_streams_and_empty_backlog_is_none() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking listener");
        // Empty backlog: None, not an error and not a hang.
        assert!(accept_nonblocking(&listener)
            .expect("accept on empty backlog")
            .is_none());

        let addr = listener.local_addr().expect("addr");
        let mut peer = TcpStream::connect(addr).expect("connect");
        // The connect is local, but give the kernel a beat to queue it.
        let ep = Epoll::new().expect("epoll");
        ep.add(listener.as_raw_fd(), EPOLLIN, 1).expect("add");
        let mut events = [EpollEvent { events: 0, token: 0 }; 4];
        let ready = ep
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait for backlog");
        assert_eq!(ready.len(), 1);
        let stream = accept_nonblocking(&listener)
            .expect("accept")
            .expect("one queued connection");
        // The accepted socket must already be nonblocking: a read with
        // nothing pending is WouldBlock, not a hang.
        let mut buf = [0u8; 4];
        let err = read_fd(stream.as_raw_fd(), &mut buf)
            .expect_err("empty socket must not block");
        assert_eq!(err.kind(), SysErrorKind::WouldBlock);
        // Data pushed by the peer arrives through the raw read.
        peer.write_all(b"ping").expect("peer write");
        peer.flush().expect("peer flush");
        ep.add(stream.as_raw_fd(), EPOLLIN, 2).expect("add conn");
        let ready = ep
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait for data");
        assert!(ready.iter().any(|e| e.data() == 2));
        assert_eq!(read_fd(stream.as_raw_fd(), &mut buf).expect("read"), 4);
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn open_read_only_opens_and_classifies_failures() {
        let mut file = open_read_only(c"/dev/null").expect("open /dev/null");
        assert_eq!(io::Read::read(&mut file, &mut [0u8; 4]).expect("read"), 0);
        let err = open_read_only(c"/nonexistent/apistudy")
            .expect_err("a missing path must fail");
        assert_eq!(err.call, "open");
        assert_eq!(err.kind(), SysErrorKind::Other);
    }

    #[test]
    fn errors_are_classified_with_call_and_errno() {
        let ep = Epoll::new().expect("epoll");
        // Registering an invalid fd: EBADF, classified Other, with the
        // failing call named for the log line.
        let err = ep.add(-1, EPOLLIN, 0).expect_err("bad fd must fail");
        assert_eq!(err.call, "epoll_ctl(ADD)");
        assert_eq!(err.errno, EBADF);
        assert_eq!(err.kind(), SysErrorKind::Other);
        assert!(err.to_string().contains("epoll_ctl"));
    }

    #[test]
    fn interest_modification_switches_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = TcpStream::connect(addr).expect("connect");
        let (conn, _) = listener.accept().expect("accept");
        conn.set_nonblocking(true).expect("nonblocking");

        let ep = Epoll::new().expect("epoll");
        // Interest: writable — an idle socket with buffer space reports
        // EPOLLOUT immediately.
        ep.add(conn.as_raw_fd(), EPOLLOUT, 9).expect("add");
        let mut events = [EpollEvent { events: 0, token: 0 }; 4];
        let ready = ep
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(ready.iter().any(|e| e.data() == 9 && e.ready() & EPOLLOUT != 0));
        // Switch to read-only interest: no data pending, so no readiness.
        ep.modify(conn.as_raw_fd(), EPOLLIN, 9).expect("modify");
        let ready = ep
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(ready.is_empty(), "EPOLLOUT must be gone after MOD");
        // Deregister entirely; readiness can never be reported again.
        ep.del(conn.as_raw_fd()).expect("del");
        drop(peer);
        let ready = ep
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(ready.is_empty(), "deregistered fd must stay silent");
    }
}
