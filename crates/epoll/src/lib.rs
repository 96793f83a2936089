//! Minimal epoll shim for the dspd reactor front end (DESIGN.md §10.6).
//!
//! The repo's idiom is "no external dependencies", so instead of pulling
//! in `libc`/`mio` this crate declares the three syscall wrappers the
//! reactor needs — `epoll_create1`, `epoll_ctl`, `epoll_wait` — as raw
//! `extern "C"` bindings and confines every `unsafe` block here, behind
//! a safe [`Poller`] API. The cross-thread [`Waker`] needs no FFI at
//! all: it is a nonblocking `UnixStream` pair whose read end the owner
//! registers like any other connection.
//!
//! On non-linux targets every [`Poller`] call returns
//! [`std::io::ErrorKind::Unsupported`], so the crate still builds there
//! and `dspd` (whose only front end is the reactor) refuses to boot.

/// What a registration wants to hear about.
///
/// `edge` selects edge-triggered delivery (`EPOLLET`): the fd is
/// reported once per readiness *transition*, so the owner must drain it
/// to `WouldBlock` before the next report. Level-triggered (the
/// default) re-reports while the condition holds — the reactor uses it
/// for the listener so accept backpressure (pausing on `EMFILE`) cannot
/// lose a wakeup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub read: bool,
    pub write: bool,
    pub edge: bool,
}

impl Interest {
    /// Level-triggered read interest (listener, waker).
    pub const READ: Interest = Interest { read: true, write: false, edge: false };

    /// Edge-triggered read interest (idle connection).
    pub const EDGE_READ: Interest = Interest { read: true, write: false, edge: true };

    /// Edge-triggered read+write interest (connection with queued output).
    pub const EDGE_READ_WRITE: Interest = Interest { read: true, write: true, edge: true };
}

/// One readiness report from [`Poller::wait`].
///
/// `token` is the caller-chosen u64 from `add`/`modify` (the reactor
/// uses slab slot indices). `hangup` folds `EPOLLHUP | EPOLLRDHUP`;
/// `error` is `EPOLLERR`. Both are delivered even when not requested.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    pub error: bool,
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::os::raw::c_int;
    use std::time::Duration;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLET: u32 = 1 << 31;

    /// Mirror of `struct epoll_event`. The kernel ABI packs this struct
    /// on x86_64 (64-bit `data` at offset 4); other architectures use
    /// natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.read {
            m |= EPOLLIN;
        }
        if interest.write {
            m |= EPOLLOUT;
        }
        if interest.edge {
            m |= EPOLLET;
        }
        m
    }

    /// A safe epoll instance. Registrations borrow the caller's fd only
    /// for the duration of the `epoll_ctl` call; the caller is
    /// responsible for `delete`-ing an fd before closing it (the
    /// reactor's connection slab does exactly that).
    pub struct Poller {
        epfd: OwnedFd,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        /// Create an epoll instance (`EPOLL_CLOEXEC`) with room for
        /// `capacity` events per `wait` call.
        pub fn with_capacity(capacity: usize) -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes a flags word and touches no
            // caller memory; a negative return is reported via errno.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `fd` is a freshly created descriptor the kernel
            // just handed us; nothing else owns it.
            let epfd = unsafe { OwnedFd::from_raw_fd(fd) };
            let cap = capacity.max(1);
            Ok(Poller { epfd, buf: vec![EpollEvent { events: 0, data: 0 }; cap] })
        }

        pub fn new() -> io::Result<Poller> {
            Poller::with_capacity(1024)
        }

        fn ctl(&self, op: c_int, fd: RawFd, ev: Option<(u64, Interest)>) -> io::Result<()> {
            let mut event;
            let ptr = match ev {
                Some((token, interest)) => {
                    event = EpollEvent { events: mask(interest), data: token };
                    &mut event as *mut EpollEvent
                }
                // EPOLL_CTL_DEL ignores the event argument.
                None => std::ptr::null_mut(),
            };
            // SAFETY: `ptr` is either null (DEL) or points at `event`,
            // a live stack local that outlives the call; `fd` validity
            // is checked by the kernel (EBADF on a stale fd).
            let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, ptr) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Register `fd` under `token`.
        pub fn add(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd.as_raw_fd(), Some((token, interest)))
        }

        /// Re-arm an existing registration with a new interest set.
        pub fn modify(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd.as_raw_fd(), Some((token, interest)))
        }

        /// Remove a registration. Must happen before the fd is closed.
        pub fn delete(&self, fd: &impl AsRawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd.as_raw_fd(), None)
        }

        /// Block until readiness or `timeout` (None = forever), then
        /// append decoded events to `out`. Returns how many arrived.
        /// `EINTR` is retried internally.
        pub fn wait(
            &mut self,
            timeout: Option<Duration>,
            out: &mut Vec<Event>,
        ) -> io::Result<usize> {
            let millis: c_int = match timeout {
                None => -1,
                Some(d) => {
                    let ms = d.as_millis().min(c_int::MAX as u128) as c_int;
                    // Round zero-but-nonempty timeouts up so a 100µs
                    // request doesn't busy-poll.
                    if ms == 0 && !d.is_zero() {
                        1
                    } else {
                        ms
                    }
                }
            };
            loop {
                let cap = self.buf.len() as c_int;
                // SAFETY: `self.buf` is a live Vec of `cap` initialized
                // EpollEvent slots, exclusively borrowed for this call;
                // the kernel writes at most `cap` entries.
                let n = unsafe {
                    epoll_wait(self.epfd.as_raw_fd(), self.buf.as_mut_ptr(), cap, millis)
                };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(err);
                }
                let n = n as usize;
                for slot in self.buf.iter().take(n) {
                    // By-value copies: the struct may be packed, so no
                    // references into it.
                    let bits = { *slot }.events;
                    let token = { *slot }.data;
                    out.push(Event {
                        token,
                        readable: bits & EPOLLIN != 0,
                        writable: bits & EPOLLOUT != 0,
                        error: bits & EPOLLERR != 0,
                        hangup: bits & (EPOLLHUP | EPOLLRDHUP) != 0,
                    });
                }
                return Ok(n);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::time::Duration;

    /// Stub poller for non-linux targets: every constructor fails with
    /// `Unsupported`, so the service fails at boot.
    pub struct Poller {
        _private: (),
    }

    impl Poller {
        pub fn with_capacity(_capacity: usize) -> io::Result<Poller> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "epoll is linux-only"))
        }

        pub fn new() -> io::Result<Poller> {
            Poller::with_capacity(0)
        }

        pub fn add(
            &self,
            _fd: &impl std::os::fd::AsRawFd,
            _token: u64,
            _interest: Interest,
        ) -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "epoll is linux-only"))
        }

        pub fn modify(
            &self,
            _fd: &impl std::os::fd::AsRawFd,
            _token: u64,
            _interest: Interest,
        ) -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "epoll is linux-only"))
        }

        pub fn delete(&self, _fd: &impl std::os::fd::AsRawFd) -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "epoll is linux-only"))
        }

        pub fn wait(
            &mut self,
            _timeout: Option<Duration>,
            _out: &mut Vec<Event>,
        ) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "epoll is linux-only"))
        }
    }
}

pub use sys::Poller;

#[cfg(unix)]
mod wake {
    use std::io::{self, Read, Write};
    use std::os::unix::net::UnixStream;

    /// Cross-thread wakeup for a `Poller`: the sending half of a
    /// nonblocking socketpair. The receiving half registers in the
    /// poller (level-triggered read) like any connection; `wake` makes
    /// it readable. No FFI, no eventfd — a full pipe just means a wake
    /// is already pending, so `WouldBlock` on write is success.
    pub struct Waker {
        tx: UnixStream,
    }

    /// The pollable end of a [`Waker`]. Register with
    /// [`super::Interest::READ`] and call [`WakeReceiver::drain`] when
    /// it reports readable.
    pub struct WakeReceiver {
        rx: UnixStream,
    }

    /// Build a connected waker pair.
    pub fn waker() -> io::Result<(Waker, WakeReceiver)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx }, WakeReceiver { rx }))
    }

    impl Waker {
        /// Make the receiver readable. Infallible by design: the only
        /// failure modes are a full buffer (wake already pending) or a
        /// dropped receiver (poller shutting down), both benign.
        pub fn wake(&self) {
            let _ = (&self.tx).write(&[1u8]);
        }

        pub fn try_clone(&self) -> io::Result<Waker> {
            Ok(Waker { tx: self.tx.try_clone()? })
        }
    }

    impl WakeReceiver {
        /// Consume all pending wake bytes so level-triggered polling
        /// stops reporting until the next `wake`.
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            loop {
                match (&self.rx).read(&mut buf) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    Err(_) => break,
                }
            }
        }
    }

    impl std::os::fd::AsRawFd for WakeReceiver {
        fn as_raw_fd(&self) -> std::os::fd::RawFd {
            self.rx.as_raw_fd()
        }
    }
}

#[cfg(unix)]
pub use wake::{waker, WakeReceiver, Waker};

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    const TICK: Duration = Duration::from_millis(500);

    #[test]
    fn level_triggered_reports_until_drained() {
        let mut poller = Poller::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.add(&b, 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        assert_eq!(poller.wait(Some(Duration::ZERO), &mut events).unwrap(), 0);

        a.write_all(b"x").unwrap();
        events.clear();
        assert_eq!(poller.wait(Some(TICK), &mut events).unwrap(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: still readable, still reported.
        events.clear();
        assert_eq!(poller.wait(Some(TICK), &mut events).unwrap(), 1);

        poller.delete(&b).unwrap();
        events.clear();
        assert_eq!(poller.wait(Some(Duration::ZERO), &mut events).unwrap(), 0);
    }

    #[test]
    fn edge_triggered_reports_once_per_arrival() {
        let mut poller = Poller::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.add(&b, 3, Interest::EDGE_READ).unwrap();

        a.write_all(b"x").unwrap();
        let mut events = Vec::new();
        assert_eq!(poller.wait(Some(TICK), &mut events).unwrap(), 1);

        // Data still unread, but no new edge: nothing reported.
        events.clear();
        assert_eq!(poller.wait(Some(Duration::from_millis(20)), &mut events).unwrap(), 0);

        // A fresh byte is a fresh edge.
        a.write_all(b"y").unwrap();
        events.clear();
        assert_eq!(poller.wait(Some(TICK), &mut events).unwrap(), 1);
        assert_eq!(events[0].token, 3);
    }

    #[test]
    fn modify_enables_write_interest() {
        let mut poller = Poller::new().unwrap();
        let (_a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.add(&b, 1, Interest::EDGE_READ).unwrap();

        let mut events = Vec::new();
        assert_eq!(poller.wait(Some(Duration::ZERO), &mut events).unwrap(), 0);

        // An idle socket with buffer space reports writable as soon as
        // we ask for it.
        poller.modify(&b, 1, Interest::EDGE_READ_WRITE).unwrap();
        events.clear();
        assert_eq!(poller.wait(Some(TICK), &mut events).unwrap(), 1);
        assert!(events[0].writable);
    }

    #[test]
    fn hangup_is_reported_without_being_requested() {
        let mut poller = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.add(&b, 9, Interest::EDGE_READ).unwrap();
        drop(a);
        let mut events = Vec::new();
        assert_eq!(poller.wait(Some(TICK), &mut events).unwrap(), 1);
        assert!(events[0].hangup);
    }

    #[test]
    fn waker_wakes_and_drains() {
        let mut poller = Poller::new().unwrap();
        let (waker, receiver) = waker().unwrap();
        poller.add(&receiver, 0, Interest::READ).unwrap();

        let mut events = Vec::new();
        assert_eq!(poller.wait(Some(Duration::ZERO), &mut events).unwrap(), 0);

        // Coalesced wakes: many wakes, one readable report, one drain.
        let clone = waker.try_clone().unwrap();
        waker.wake();
        clone.wake();
        events.clear();
        assert_eq!(poller.wait(Some(TICK), &mut events).unwrap(), 1);
        assert_eq!(events[0].token, 0);

        receiver.drain();
        events.clear();
        assert_eq!(poller.wait(Some(Duration::ZERO), &mut events).unwrap(), 0);

        // Wake-after-drain still works (socketpair not poisoned).
        waker.wake();
        events.clear();
        assert_eq!(poller.wait(Some(TICK), &mut events).unwrap(), 1);
    }
}
