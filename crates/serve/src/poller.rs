//! Readiness notification for the serve core: a thin `epoll` wrapper.
//!
//! The server's event loop owns the listener plus every parked
//! keep-alive socket, and must learn *which* of them became readable
//! without touching each one per tick — the PR 5 parker's per-socket
//! `peek` sweep cost one syscall per parked connection every 5 ms, which
//! is exactly the O(idle) tax `epoll` exists to remove. std has no
//! readiness API, and the workspace takes no external crates, so the
//! Linux implementation declares the four syscalls it needs via
//! `extern "C"` — the same no-new-deps discipline as the server's
//! `signal` handler (std already links libc on unix).
//!
//! # Model
//!
//! One [`Poller`] holds an epoll instance plus an `eventfd` used as a
//! wake channel. Sockets are registered level-triggered for readability
//! (`EPOLLIN | EPOLLRDHUP`) under a caller-chosen `u64` token;
//! [`Poller::wait`] blocks up to a timeout and returns the tokens that
//! are ready. Level-triggering keeps the contract simple: a ready
//! socket is re-reported until the caller consumes its bytes or
//! deregisters it, so a spurious or stale token is never a lost event.
//! [`Poller::wake`] is safe to call from any thread; the wake event is
//! consumed inside `wait` and never surfaces as a token.
//!
//! # Portability
//!
//! Linux only: the serve layer has no other readiness path, and a
//! non-Linux build stops here with a `compile_error!` naming the reason.

#[cfg(not(target_os = "linux"))]
compile_error!("diffy-serve builds on Linux only: its event loop is an epoll poller");

/// Token reserved by the server's event loop for its listener.
pub const LISTENER_TOKEN: u64 = 0;

/// First token available for parked connections (tokens below are
/// reserved for the listener and future fixed sources).
pub const FIRST_CONN_TOKEN: u64 = 2;

/// Internal token for the wake eventfd; never returned from `wait`.
const WAKE_TOKEN: u64 = u64::MAX;

mod sys {
    use super::WAKE_TOKEN;
    use std::io;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    // Values from the Linux UAPI headers; stable ABI, identical across
    // architectures the workspace targets.
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLLIN: u32 = 0x001;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;
    const EINTR: i32 = 4;

    /// `struct epoll_event`. Packed on x86 (the kernel ABI there),
    /// naturally aligned elsewhere (e.g. aarch64) — matching libc.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// `struct pollfd` for the one-shot readability wait.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN_FLAG: i16 = 0x001;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    fn last_error() -> io::Error {
        io::Error::last_os_error()
    }

    /// Waits up to `timeout` for `stream` to become readable (data, EOF
    /// or error — anything a read would not block on). Returns `false`
    /// on a clean timeout.
    ///
    /// This exists for the worker-side park grace: a blocking `peek`
    /// under `SO_RCVTIMEO` pays kernel timer-tick rounding (a 2 ms
    /// timeout really blocks ~8 ms at HZ=250), which rate-limits how
    /// fast one worker can park idle connections. `poll(2)` timeouts use
    /// high-resolution timers and honor the grace as written.
    pub fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
        let mut pfd = PollFd { fd: stream.as_raw_fd(), events: POLLIN_FLAG, revents: 0 };
        let ms = timeout.as_millis().clamp(1, i32::MAX as u128) as i32;
        loop {
            let n = unsafe { poll(&mut pfd, 1, ms) };
            if n < 0 {
                let e = last_error();
                if e.raw_os_error() == Some(EINTR) {
                    continue;
                }
                return Err(e);
            }
            // Any revents bit (POLLIN, POLLHUP, POLLERR, ...) means a
            // read will not block; the caller's peek disambiguates.
            return Ok(n > 0);
        }
    }

    /// The Linux poller: an epoll fd plus an eventfd wake channel.
    pub struct Poller {
        epfd: i32,
        wakefd: i32,
        /// Registered-socket gauge (diagnostic; also sizes event batches).
        registered: AtomicU64,
    }

    // The fds are plain ints used through &self with thread-safe
    // syscalls (epoll is explicitly multi-thread safe).
    unsafe impl Send for Poller {}
    unsafe impl Sync for Poller {}

    impl Poller {
        /// A fresh epoll instance with its wake channel registered.
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(last_error());
            }
            let wakefd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if wakefd < 0 {
                let e = last_error();
                unsafe { close(epfd) };
                return Err(e);
            }
            let poller = Poller { epfd, wakefd, registered: AtomicU64::new(0) };
            poller.add_fd(wakefd, WAKE_TOKEN)?;
            Ok(poller)
        }

        fn add_fd(&self, fd: i32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent { events: EPOLLIN | EPOLLRDHUP, data: token };
            if unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) } < 0 {
                return Err(last_error());
            }
            Ok(())
        }

        fn del_fd(&self, fd: i32) -> io::Result<()> {
            // Pre-2.6.9 kernels required a non-null event for DEL; pass
            // one unconditionally.
            let mut ev = EpollEvent { events: 0, data: 0 };
            if unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) } < 0 {
                return Err(last_error());
            }
            Ok(())
        }

        /// Watches a listener for pending accepts under `token`.
        /// Listeners don't count toward the registered-socket gauge.
        pub fn register_listener(&self, listener: &TcpListener, token: u64) -> io::Result<()> {
            self.add_fd(listener.as_raw_fd(), token)
        }

        /// Watches a connection for readability (data or peer close)
        /// under `token`.
        pub fn register(&self, stream: &TcpStream, token: u64) -> io::Result<()> {
            self.add_fd(stream.as_raw_fd(), token)?;
            self.registered.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }

        /// Stops watching a connection registered with [`Poller::register`].
        pub fn deregister(&self, stream: &TcpStream) -> io::Result<()> {
            self.del_fd(stream.as_raw_fd())?;
            self.registered.fetch_sub(1, Ordering::Relaxed);
            Ok(())
        }

        /// Currently watched connection count (diagnostic gauge).
        pub fn registered(&self) -> u64 {
            self.registered.load(Ordering::Relaxed)
        }

        /// Wakes a concurrent [`Poller::wait`]. Any-thread safe; a full
        /// eventfd counter (wake already pending) is success, not error.
        pub fn wake(&self) {
            let one = 1u64.to_ne_bytes();
            unsafe { write(self.wakefd, one.as_ptr(), one.len()) };
        }

        fn drain_wake(&self) {
            let mut buf = [0u8; 8];
            // One read resets a (non-semaphore) eventfd counter to zero.
            unsafe { read(self.wakefd, buf.as_mut_ptr(), buf.len()) };
        }

        /// Blocks until at least one registered source is readable, a
        /// wake arrives, or `timeout` passes; appends ready tokens to
        /// `out` (cleared first). Wake events are drained internally.
        pub fn wait(&self, out: &mut Vec<u64>, timeout: Duration) -> io::Result<()> {
            out.clear();
            let mut events = [EpollEvent { events: 0, data: 0 }; 128];
            // Round up so a sub-millisecond timeout still sleeps instead
            // of spinning; epoll takes i32 milliseconds.
            let ms = timeout
                .as_millis()
                .max(u128::from(!timeout.is_zero() as u8))
                .min(i32::MAX as u128) as i32;
            let n = unsafe { epoll_wait(self.epfd, events.as_mut_ptr(), 128, ms) };
            if n < 0 {
                let e = last_error();
                if e.raw_os_error() == Some(EINTR) {
                    return Ok(());
                }
                return Err(e);
            }
            for ev in &events[..n as usize] {
                let token = ev.data; // copy out of the packed struct
                if token == WAKE_TOKEN {
                    self.drain_wake();
                } else {
                    out.push(token);
                }
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.wakefd);
                close(self.epfd);
            }
        }
    }
}

pub use sys::{wait_readable, Poller};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        (client, server_side)
    }

    #[test]
    fn reports_readable_sockets_by_token_and_times_out_otherwise() {
        let poller = Poller::new().unwrap();
        let (mut client, server_side) = pair();
        server_side.set_nonblocking(true).unwrap();
        poller.register(&server_side, 7).unwrap();

        // Silent socket: wait must time out with no tokens.
        let mut ready = Vec::new();
        let t0 = Instant::now();
        poller.wait(&mut ready, Duration::from_millis(30)).unwrap();
        assert!(ready.is_empty(), "no bytes, no tokens: {ready:?}");
        assert!(t0.elapsed() >= Duration::from_millis(20), "wait must block to its timeout");

        // Bytes arrive: the socket's token is reported promptly.
        client.write_all(b"x").unwrap();
        let t0 = Instant::now();
        let mut seen = false;
        while t0.elapsed() < Duration::from_secs(2) {
            poller.wait(&mut ready, Duration::from_millis(100)).unwrap();
            if ready.contains(&7) {
                seen = true;
                break;
            }
        }
        assert!(seen, "readable socket must surface its token");
        assert_eq!(poller.registered(), 1);

        // Deregistered sockets are never reported again.
        poller.deregister(&server_side).unwrap();
        assert_eq!(poller.registered(), 0);
        client.write_all(b"y").unwrap();
        poller.wait(&mut ready, Duration::from_millis(30)).unwrap();
        assert!(!ready.contains(&7), "deregistered token must not reappear");
    }

    #[test]
    fn peer_close_is_readable() {
        // EOF must wake the poller: parked connections whose peer hung
        // up are retired by readiness, not by timeout.
        let poller = Poller::new().unwrap();
        let (client, server_side) = pair();
        server_side.set_nonblocking(true).unwrap();
        poller.register(&server_side, 3).unwrap();
        drop(client);
        let mut ready = Vec::new();
        let t0 = Instant::now();
        let mut seen = false;
        while t0.elapsed() < Duration::from_secs(2) {
            poller.wait(&mut ready, Duration::from_millis(100)).unwrap();
            if ready.contains(&3) {
                seen = true;
                break;
            }
        }
        assert!(seen, "peer close must be reported as readiness");
    }

    #[test]
    fn wait_readable_reports_pending_bytes_and_a_closed_peer() {
        let (mut client, server_side) = pair();
        client.write_all(b"x").unwrap();
        assert!(wait_readable(&server_side, Duration::from_secs(2)).unwrap(), "pending bytes");

        let (client, server_side) = pair();
        drop(client);
        assert!(wait_readable(&server_side, Duration::from_secs(2)).unwrap(), "closed peer");
    }

    #[test]
    fn wait_readable_times_out_on_a_quiet_socket_at_the_grace_as_written() {
        // The park grace is 2 ms. A blocking peek under SO_RCVTIMEO
        // rounded it up to the timer tick (about 8 ms at HZ=250); poll(2)
        // must not.
        let (_client, server_side) = pair();
        let mut waits: Vec<Duration> = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                let ready = wait_readable(&server_side, Duration::from_millis(2)).unwrap();
                assert!(!ready, "a quiet socket is not readable");
                t0.elapsed()
            })
            .collect();
        waits.sort();
        let median = waits[waits.len() / 2];
        assert!(median < Duration::from_millis(5), "median 2 ms wait took {median:?}");
    }

    #[test]
    fn wake_interrupts_a_long_wait_and_is_not_a_token() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let waker = std::sync::Arc::clone(&poller);
        let waker_thread = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut ready = Vec::new();
        let t0 = Instant::now();
        poller.wait(&mut ready, Duration::from_secs(10)).unwrap();
        let waited = t0.elapsed();
        waker_thread.join().unwrap();
        assert!(waited < Duration::from_secs(5), "wake must interrupt the wait, took {waited:?}");
        assert!(ready.is_empty(), "the wake channel is not a caller token: {ready:?}");

        // A wake with no waiter is consumed by the next wait, which then
        // returns immediately once and blocks again after.
        poller.wake();
        let t0 = Instant::now();
        poller.wait(&mut ready, Duration::from_secs(10)).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5), "pending wake returns immediately");
    }

    #[test]
    fn listener_registration_surfaces_pending_accepts() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.register_listener(&listener, LISTENER_TOKEN).unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let mut ready = Vec::new();
        let t0 = Instant::now();
        let mut seen = false;
        while t0.elapsed() < Duration::from_secs(2) {
            poller.wait(&mut ready, Duration::from_millis(100)).unwrap();
            if ready.contains(&LISTENER_TOKEN) {
                seen = true;
                break;
            }
        }
        assert!(seen, "pending accept must surface the listener token");
        assert!(listener.accept().is_ok());
    }
}
