//! Readiness syscalls, declared by hand.
//!
//! The workspace's no-dependency rule means no `libc`, `mio`, or
//! `polling` crates; like the vendored shims under `vendor/`, this
//! module declares just enough of the platform C ABI for one readiness
//! loop: `epoll` on Linux, portable `poll(2)` as the fallback backend,
//! and a nonblocking self-pipe so dispatcher threads can wake the loop
//! from outside.
//!
//! This is the only module in the crate allowed to use `unsafe`
//! (`lib.rs` denies it everywhere else); everything exported from here
//! is a safe wrapper over one syscall.

use std::collections::HashMap;
use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_short, c_ulong, c_void};
use std::time::Duration;

/// Interest bit: readiness to read.
pub(crate) const READABLE: u8 = 0b01;
/// Interest bit: readiness to write.
pub(crate) const WRITABLE: u8 = 0b10;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub(crate) fd: RawFd,
    pub(crate) readable: bool,
    pub(crate) writable: bool,
    /// `EPOLLERR`/`EPOLLHUP` (or their `poll` equivalents): the peer is
    /// gone or the socket is in error; reading/writing will tell.
    pub(crate) hangup: bool,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: c_int = 0x800;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: c_int = 0x4;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    fn pipe(fds: *mut c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
}

#[cfg(target_os = "linux")]
mod epoll_abi {
    use super::c_int;

    pub(super) const EPOLL_CLOEXEC: c_int = 0x80000;
    pub(super) const EPOLL_CTL_ADD: c_int = 1;
    pub(super) const EPOLL_CTL_DEL: c_int = 2;
    pub(super) const EPOLL_CTL_MOD: c_int = 3;
    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    pub(super) const EPOLLERR: u32 = 0x008;
    pub(super) const EPOLLHUP: u32 = 0x010;
    pub(super) const EPOLLRDHUP: u32 = 0x2000;

    /// The kernel packs this struct on x86 so the 64-bit payload sits
    /// directly after the event mask; other architectures align it.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        pub(super) events: u32,
        pub(super) data: u64,
    }

    extern "C" {
        pub(super) fn epoll_create1(flags: c_int) -> c_int;
        pub(super) fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent)
            -> c_int;
        pub(super) fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }
}

/// Widen the accept backlog of an already-listening socket. `bind`'s
/// default backlog (128) drops connection bursts long before the event
/// loop's capacity does; failure is harmless (the old backlog stands).
pub(crate) fn widen_backlog(fd: RawFd, backlog: i32) {
    // SAFETY: `listen` on an arbitrary fd either succeeds or sets errno;
    // it never touches memory we own.
    unsafe {
        let _ = listen(fd, backlog);
    }
}

fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: F_GETFL/F_SETFL take and return plain integers.
    unsafe {
        let flags = fcntl(fd, F_GETFL, 0);
        if flags < 0 {
            return Err(io::Error::last_os_error());
        }
        if fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

/// Clamp an optional timeout to the millisecond resolution the wait
/// syscalls take: `None` means block forever, sub-millisecond remainders
/// round up so a deadline is never polled before it can have expired.
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis();
            let ms = if d.subsec_nanos() % 1_000_000 != 0 {
                ms + 1
            } else {
                ms
            };
            ms.min(c_int::MAX as u128) as c_int
        }
    }
}

/// The self-pipe: dispatcher threads `wake()` it from anywhere, the
/// event loop registers the read end and `drain()`s on wakeup. Both ends
/// are nonblocking, so a full pipe (wakeup already pending) is success,
/// not a stall.
pub(crate) struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl WakePipe {
    pub(crate) fn new() -> io::Result<WakePipe> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: `pipe` writes exactly two fds into the array.
        if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        let pipe = WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
        };
        set_nonblocking(pipe.read_fd)?;
        set_nonblocking(pipe.write_fd)?;
        Ok(pipe)
    }

    pub(crate) fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Make the next (or current) wait return. Any thread may call this.
    pub(crate) fn wake(&self) {
        let byte = 1u8;
        // SAFETY: writes one byte from a live stack buffer; EAGAIN on a
        // full pipe means a wakeup is already pending — exactly as good.
        unsafe {
            let _ = write(self.write_fd, (&raw const byte).cast::<c_void>(), 1);
        }
    }

    /// Swallow every pending wakeup byte.
    pub(crate) fn drain(&self) {
        let mut sink = [0u8; 64];
        loop {
            // SAFETY: reads into a live stack buffer of the stated size.
            let n = unsafe { read(self.read_fd, sink.as_mut_ptr().cast::<c_void>(), sink.len()) };
            if n <= 0 || (n as usize) < sink.len() {
                return;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: closing fds this struct owns exclusively.
        unsafe {
            let _ = close(self.read_fd);
            let _ = close(self.write_fd);
        }
    }
}

/// The readiness facility: `epoll` where available, `poll` elsewhere.
/// Level-triggered in both backends — a fd stays ready until its
/// condition is consumed, so the loop can never lose an edge.
pub(crate) enum Poller {
    #[cfg(target_os = "linux")]
    Epoll(Epoll),
    Poll(PollSet),
}

impl Poller {
    /// Prefer `epoll`; fall back to `poll` if it cannot be created. The
    /// `poll(2)` backend needs no kernel object, so this cannot fail.
    pub(crate) fn new() -> Poller {
        #[cfg(target_os = "linux")]
        if let Ok(epoll) = Epoll::new() {
            return Poller::Epoll(epoll);
        }
        Poller::Poll(PollSet::new())
    }

    /// Which backend ended up selected (exercised by the backend-matrix
    /// tests; production code treats both identically).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn backend(&self) -> &'static str {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => "epoll",
            Poller::Poll(_) => "poll",
        }
    }

    pub(crate) fn register(&mut self, fd: RawFd, interest: u8) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.ctl(epoll_abi::EPOLL_CTL_ADD, fd, interest),
            Poller::Poll(p) => {
                p.register(fd, interest);
                Ok(())
            }
        }
    }

    pub(crate) fn modify(&mut self, fd: RawFd, interest: u8) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.ctl(epoll_abi::EPOLL_CTL_MOD, fd, interest),
            Poller::Poll(p) => {
                p.register(fd, interest);
                Ok(())
            }
        }
    }

    pub(crate) fn deregister(&mut self, fd: RawFd) {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => {
                let _ = e.ctl(epoll_abi::EPOLL_CTL_DEL, fd, 0);
            }
            Poller::Poll(p) => p.deregister(fd),
        }
    }

    /// Wait for readiness, appending reports to `out` (cleared first).
    /// `None` blocks until an event; `EINTR` is retried internally.
    pub(crate) fn wait(
        &mut self,
        timeout: Option<Duration>,
        out: &mut Vec<Event>,
    ) -> io::Result<()> {
        out.clear();
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.wait(timeout, out),
            Poller::Poll(p) => p.wait(timeout, out),
        }
    }
}

/// The Linux backend: one epoll instance, fd-keyed event payloads.
#[cfg(target_os = "linux")]
pub(crate) struct Epoll {
    epfd: RawFd,
    buf: Vec<epoll_abi::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl Epoll {
    fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 returns a new fd or -1.
        let epfd = unsafe { epoll_abi::epoll_create1(epoll_abi::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll {
            epfd,
            buf: vec![epoll_abi::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&mut self, op: c_int, fd: RawFd, interest: u8) -> io::Result<()> {
        let mut events = epoll_abi::EPOLLRDHUP;
        if interest & READABLE != 0 {
            events |= epoll_abi::EPOLLIN;
        }
        if interest & WRITABLE != 0 {
            events |= epoll_abi::EPOLLOUT;
        }
        let mut ev = epoll_abi::EpollEvent {
            events,
            data: fd as u64,
        };
        // SAFETY: the event struct outlives the call; DEL ignores it.
        let rc = unsafe { epoll_abi::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<Event>) -> io::Result<()> {
        loop {
            // SAFETY: the kernel fills at most `buf.len()` entries.
            let n = unsafe {
                epoll_abi::epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            for slot in &self.buf[..n as usize] {
                let events = slot.events;
                let data = slot.data;
                out.push(Event {
                    fd: data as RawFd,
                    readable: events & (epoll_abi::EPOLLIN | epoll_abi::EPOLLRDHUP) != 0,
                    writable: events & epoll_abi::EPOLLOUT != 0,
                    hangup: events & (epoll_abi::EPOLLERR | epoll_abi::EPOLLHUP) != 0,
                });
            }
            return Ok(());
        }
    }
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: closing the epoll fd this struct owns exclusively.
        unsafe {
            let _ = close(self.epfd);
        }
    }
}

/// The portable backend: a re-submitted `pollfd` array. O(fds) per wait
/// where epoll is O(ready) — fine as a fallback and for tests of the
/// abstraction, not the C10k path.
pub(crate) struct PollSet {
    fds: Vec<PollFd>,
    index: HashMap<RawFd, usize>,
}

impl PollSet {
    pub(crate) fn new() -> PollSet {
        PollSet {
            fds: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn register(&mut self, fd: RawFd, interest: u8) {
        let mut events = 0;
        if interest & READABLE != 0 {
            events |= POLLIN;
        }
        if interest & WRITABLE != 0 {
            events |= POLLOUT;
        }
        match self.index.get(&fd) {
            Some(&at) => self.fds[at].events = events,
            None => {
                self.index.insert(fd, self.fds.len());
                self.fds.push(PollFd {
                    fd,
                    events,
                    revents: 0,
                });
            }
        }
    }

    fn deregister(&mut self, fd: RawFd) {
        if let Some(at) = self.index.remove(&fd) {
            self.fds.swap_remove(at);
            if at < self.fds.len() {
                self.index.insert(self.fds[at].fd, at);
            }
        }
    }

    fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<Event>) -> io::Result<()> {
        loop {
            for slot in &mut self.fds {
                slot.revents = 0;
            }
            // SAFETY: the array is live for the call; the kernel only
            // writes each entry's `revents`.
            let n = unsafe {
                poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as c_ulong,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            for slot in &self.fds {
                if slot.revents != 0 {
                    out.push(Event {
                        fd: slot.fd,
                        readable: slot.revents & (POLLIN | POLLHUP) != 0,
                        writable: slot.revents & POLLOUT != 0,
                        hangup: slot.revents & (POLLERR | POLLHUP) != 0,
                    });
                }
            }
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn backends() -> Vec<Poller> {
        let mut all = vec![Poller::Poll(PollSet::new())];
        let preferred = Poller::new();
        if preferred.backend() == "epoll" {
            all.push(preferred);
        }
        all
    }

    #[test]
    fn wake_pipe_reports_readable_and_drains() {
        for mut poller in backends() {
            let pipe = WakePipe::new().unwrap();
            poller.register(pipe.read_fd(), READABLE).unwrap();
            let mut events = Vec::new();

            // Nothing pending: a short wait times out empty.
            poller
                .wait(Some(Duration::from_millis(5)), &mut events)
                .unwrap();
            assert!(events.is_empty(), "{}", poller.backend());

            // A wake (idempotent — three in a row) makes it readable.
            pipe.wake();
            pipe.wake();
            pipe.wake();
            poller
                .wait(Some(Duration::from_millis(1000)), &mut events)
                .unwrap();
            assert_eq!(events.len(), 1, "{}", poller.backend());
            assert_eq!(events[0].fd, pipe.read_fd());
            assert!(events[0].readable);

            // Drained, it goes quiet again.
            pipe.drain();
            poller
                .wait(Some(Duration::from_millis(5)), &mut events)
                .unwrap();
            assert!(events.is_empty(), "{}", poller.backend());

            // Deregistered, even a pending wake is invisible.
            pipe.wake();
            poller.deregister(pipe.read_fd());
            poller
                .wait(Some(Duration::from_millis(5)), &mut events)
                .unwrap();
            assert!(events.is_empty(), "{}", poller.backend());
        }
    }

    #[test]
    fn timeout_is_honored() {
        for mut poller in backends() {
            let pipe = WakePipe::new().unwrap();
            poller.register(pipe.read_fd(), READABLE).unwrap();
            let mut events = Vec::new();
            let start = Instant::now();
            poller
                .wait(Some(Duration::from_millis(30)), &mut events)
                .unwrap();
            assert!(
                start.elapsed() >= Duration::from_millis(25),
                "{} returned early",
                poller.backend()
            );
            assert!(events.is_empty());
        }
    }

    #[test]
    fn timeout_ms_rounds_up() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_millis(7))), 7);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_micros(2500))), 3);
    }
}
