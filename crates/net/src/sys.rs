//! Thin, libc-free syscall layer for the event loop.
//!
//! The workspace's vendored-deps policy rules out `libc`, `mio`, and
//! `tokio`, and `std` exposes no readiness API — so the calls the
//! server needs (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `accept4`,
//! `setsockopt`, plus `read`/`write`/`writev`) are issued directly via
//! inline assembly. Socket *setup* (bind/listen/connect) stays on
//! `std::net`; only the hot readiness/IO path goes through here.
//!
//! Fds are owned by their types, never by convention: the two calls that
//! create one (`epoll_create1`, `accept4`) return an [`OwnedFd`], whose
//! drop is the only `close` (std's, so no shim call and no
//! `net_syscalls_total{op="close"}` series), and every other call
//! borrows its fd as a [`BorrowedFd`]. An fd therefore cannot leak on an
//! error path, be closed twice, or be used after its owner drops.
//!
//! Every wrapper retries `EINTR` internally and maps failures to the
//! typed [`NetError`], with `EAGAIN`/`EWOULDBLOCK` surfaced as
//! [`NetError::WouldBlock`] so callers can distinguish "socket drained"
//! from real faults without reading errno themselves.

use std::fmt;
use std::io::IoSlice;
use std::os::fd::{AsRawFd, BorrowedFd, FromRawFd, OwnedFd, RawFd};
use std::sync::OnceLock;
use tasq_obs::metrics::{Counter, Registry};
use tasq_obs::sync::blocking;

/// Typed failure of a network syscall or protocol layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A syscall failed; `errno` is the raw (positive) error number.
    Sys {
        /// Which call failed (`"epoll_wait"`, `"accept4"`, …).
        call: &'static str,
        /// Positive errno value.
        errno: i32,
    },
    /// The operation would block (`EAGAIN`); retry after readiness.
    WouldBlock,
    /// The peer closed the connection (EOF on read or `EPIPE`/`ECONNRESET`).
    PeerClosed,
    /// The platform has no raw-syscall backend (non-Linux or an
    /// unsupported architecture); the networked server cannot start.
    Unsupported,
    /// Protocol-level failure (malformed HTTP or binary frame).
    Protocol(String),
    /// Address parse/bind failure when setting up the listener.
    Bind(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Sys { call, errno } => write!(f, "{call} failed: errno {errno}"),
            NetError::WouldBlock => write!(f, "operation would block"),
            NetError::PeerClosed => write!(f, "peer closed the connection"),
            NetError::Unsupported => {
                write!(f, "no raw-syscall backend for this platform (need Linux x86_64/aarch64)")
            }
            NetError::Protocol(what) => write!(f, "protocol error: {what}"),
            NetError::Bind(what) => write!(f, "bind error: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

/// `EINTR`: interrupted, retry.
pub const EINTR: i32 = 4;
/// `EAGAIN` / `EWOULDBLOCK`: nonblocking op has nothing to do.
pub const EAGAIN: i32 = 11;
/// `EPIPE`: peer went away mid-write.
pub const EPIPE: i32 = 32;
/// `ECONNRESET`: peer reset the connection.
pub const ECONNRESET: i32 = 104;

/// Readable event.
pub const EPOLLIN: u32 = 0x001;
/// Writable event.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, no need to register).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write side.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery.
pub const EPOLLET: u32 = 1 << 31;
/// Wake at most one waiter per event (kernel ≥ 4.5); used on the shared
/// listener fd so a connection burst does not thundering-herd every shard.
pub const EPOLLEXCLUSIVE: u32 = 1 << 28;

/// `epoll_ctl` op: register a new fd.
pub const EPOLL_CTL_ADD: i32 = 1;
/// `epoll_ctl` op: unregister an fd.
pub const EPOLL_CTL_DEL: i32 = 2;
/// `epoll_ctl` op: change the registered interest set.
pub const EPOLL_CTL_MOD: i32 = 3;

/// `accept4` flag: the accepted socket starts nonblocking.
pub const SOCK_NONBLOCK: i32 = 0o4000;
/// `accept4` flag: the accepted socket is close-on-exec.
pub const SOCK_CLOEXEC: i32 = 0o2000000;

/// `setsockopt` level: TCP options.
pub const IPPROTO_TCP: i32 = 6;
/// `setsockopt` TCP option: send segments as soon as they are written
/// (no Nagle coalescing).
pub const TCP_NODELAY: i32 = 1;

/// One `struct epoll_event`. The kernel ABI packs this to 12 bytes on
/// x86_64 (and only there); `data` carries the registered fd.
#[derive(Clone, Copy)]
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
pub struct EpollEvent {
    /// Ready/interest mask (`EPOLLIN` | …).
    pub events: u32,
    /// Caller-chosen tag; this crate stores the fd.
    pub data: u64,
}

impl EpollEvent {
    /// Zeroed event (for `epoll_wait` output buffers).
    pub fn zeroed() -> Self {
        EpollEvent { events: 0, data: 0 }
    }

    /// The ready-event mask (safe accessor around the packed field).
    pub fn ready(&self) -> u32 {
        self.events
    }

    /// The registered fd carried in `data`: a slot key, not an owner.
    pub fn fd(&self) -> RawFd {
        let data = self.data;
        data as RawFd
    }
}

// ---------------------------------------------------------------------------
// Raw syscall shims (Linux x86_64 / aarch64).
// ---------------------------------------------------------------------------

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod raw {
    pub const SYS_READ: usize = 0;
    pub const SYS_WRITE: usize = 1;
    pub const SYS_WRITEV: usize = 20;
    pub const SYS_EPOLL_WAIT: usize = 232;
    pub const SYS_EPOLL_CTL: usize = 233;
    pub const SYS_ACCEPT4: usize = 288;
    pub const SYS_EPOLL_CREATE1: usize = 291;
    pub const SYS_SETSOCKOPT: usize = 54;
    /// x86_64 has a real `epoll_wait`; no pwait fallback needed.
    pub const HAS_EPOLL_WAIT: bool = true;
    pub const SYS_EPOLL_PWAIT: usize = 281;

    /// Issue a 6-argument syscall; returns the raw kernel result
    /// (negative errno on failure).
    ///
    /// # Safety
    /// Caller must uphold the kernel contract for syscall `n`: pointers
    /// must be valid for the access the call performs.
    pub unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod raw {
    pub const SYS_READ: usize = 63;
    pub const SYS_WRITE: usize = 64;
    pub const SYS_WRITEV: usize = 66;
    /// aarch64 never had plain `epoll_wait`; `epoll_pwait` with a null
    /// sigmask is the equivalent.
    pub const SYS_EPOLL_WAIT: usize = 22;
    pub const SYS_EPOLL_CTL: usize = 21;
    pub const SYS_ACCEPT4: usize = 242;
    pub const SYS_EPOLL_CREATE1: usize = 20;
    pub const SYS_SETSOCKOPT: usize = 208;
    pub const HAS_EPOLL_WAIT: bool = false;
    pub const SYS_EPOLL_PWAIT: usize = 22;

    /// See the x86_64 twin.
    ///
    /// # Safety
    /// Caller must uphold the kernel contract for syscall `n`.
    pub unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a as isize => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
        ret
    }
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod raw {
    //! Stub backend: every call reports [`super::NetError::Unsupported`]
    //! via errno 38 (`ENOSYS`), keeping the crate compiling on platforms
    //! the server cannot run on.
    pub const SYS_READ: usize = 0;
    pub const SYS_WRITE: usize = 0;
    pub const SYS_WRITEV: usize = 0;
    pub const SYS_EPOLL_WAIT: usize = 0;
    pub const SYS_EPOLL_CTL: usize = 0;
    pub const SYS_ACCEPT4: usize = 0;
    pub const SYS_EPOLL_CREATE1: usize = 0;
    pub const SYS_SETSOCKOPT: usize = 0;
    pub const HAS_EPOLL_WAIT: bool = true;
    pub const SYS_EPOLL_PWAIT: usize = 0;

    /// Always `-ENOSYS`.
    ///
    /// # Safety
    /// Trivially safe; present only to satisfy the shared signature.
    pub unsafe fn syscall6(
        _n: usize,
        _a: usize,
        _b: usize,
        _c: usize,
        _d: usize,
        _e: usize,
        _f: usize,
    ) -> isize {
        -38 // ENOSYS
    }
}

/// Whether this build has a real syscall backend.
pub fn supported() -> bool {
    cfg!(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))
}

/// Per-op syscall counters, exposed in the global metrics registry as
/// `net_syscalls_total{op="…"}` so syscall reduction (writev coalescing,
/// pooled buffers) is directly visible at `/metrics`.
///
/// Every attempt is counted, including `EINTR` retries — the point is to
/// measure kernel crossings, and a retried call crosses twice.
pub struct SyscallCounters {
    /// `read(2)` attempts.
    pub read: Counter,
    /// `write(2)` attempts.
    pub write: Counter,
    /// `writev(2)` attempts.
    pub writev: Counter,
    /// `accept4(2)` attempts.
    pub accept4: Counter,
    /// `epoll_wait(2)` / `epoll_pwait(2)` attempts.
    pub epoll_wait: Counter,
    /// `epoll_ctl(2)` attempts.
    pub epoll_ctl: Counter,
    /// `epoll_create1(2)` attempts.
    pub epoll_create1: Counter,
    /// `setsockopt(2)` attempts.
    pub setsockopt: Counter,
}

impl SyscallCounters {
    /// Sum over every op — the denominator for syscalls-per-request.
    pub fn total(&self) -> u64 {
        self.read.get()
            + self.write.get()
            + self.writev.get()
            + self.accept4.get()
            + self.epoll_wait.get()
            + self.epoll_ctl.get()
            + self.epoll_create1.get()
            + self.setsockopt.get()
    }
}

/// Process-global [`SyscallCounters`], registered on first use.
pub fn syscall_counters() -> &'static SyscallCounters {
    static COUNTERS: OnceLock<SyscallCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let registry = Registry::global();
        let op = |name: &str| {
            registry.counter(
                &format!("net_syscalls_total{{op=\"{name}\"}}"),
                "Raw syscalls issued by the tasq-net event loop, by op.",
            )
        };
        SyscallCounters {
            read: op("read"),
            write: op("write"),
            writev: op("writev"),
            accept4: op("accept4"),
            epoll_wait: op("epoll_wait"),
            epoll_ctl: op("epoll_ctl"),
            epoll_create1: op("epoll_create1"),
            setsockopt: op("setsockopt"),
        }
    })
}

/// Count one attempt of `call` (called from [`retrying`] per iteration).
fn count_syscall(call: &'static str) {
    let counters = syscall_counters();
    match call {
        "read" => counters.read.inc(),
        "write" => counters.write.inc(),
        "writev" => counters.writev.inc(),
        "accept4" => counters.accept4.inc(),
        "epoll_wait" | "epoll_pwait" => counters.epoll_wait.inc(),
        "epoll_ctl" => counters.epoll_ctl.inc(),
        "epoll_create1" => counters.epoll_create1.inc(),
        "setsockopt" => counters.setsockopt.inc(),
        _ => {}
    }
}

/// Run a syscall, retrying `EINTR`, and map the result.
///
/// # Safety
/// Same contract as [`raw::syscall6`] for the given call.
#[allow(clippy::too_many_arguments)] // mirrors the six-register syscall ABI
unsafe fn retrying(
    call: &'static str,
    n: usize,
    a: usize,
    b: usize,
    c: usize,
    d: usize,
    e: usize,
    f: usize,
) -> Result<isize, NetError> {
    loop {
        count_syscall(call);
        let ret = raw::syscall6(n, a, b, c, d, e, f);
        if ret >= 0 {
            return Ok(ret);
        }
        let errno = (-ret) as i32;
        match errno {
            EINTR => continue,
            EAGAIN => return Err(NetError::WouldBlock),
            38 if !supported() => return Err(NetError::Unsupported),
            _ => return Err(NetError::Sys { call, errno }),
        }
    }
}

/// `epoll_create1(0)` → epoll fd, closed when dropped.
pub fn epoll_create1() -> Result<OwnedFd, NetError> {
    // SAFETY: no pointers involved.
    let fd = unsafe { retrying("epoll_create1", raw::SYS_EPOLL_CREATE1, 0, 0, 0, 0, 0, 0) }?;
    // SAFETY: the kernel has just returned this fd and nothing else owns it.
    Ok(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
}

/// `epoll_ctl(epfd, op, fd, &event)`; `event` is ignored for
/// [`EPOLL_CTL_DEL`].
pub fn epoll_ctl(
    epfd: BorrowedFd<'_>,
    op: i32,
    fd: BorrowedFd<'_>,
    events: u32,
) -> Result<(), NetError> {
    let fd = fd.as_raw_fd();
    let event = EpollEvent { events, data: fd as u32 as u64 };
    // SAFETY: `event` lives across the call; the kernel only reads it.
    unsafe {
        retrying(
            "epoll_ctl",
            raw::SYS_EPOLL_CTL,
            epfd.as_raw_fd() as usize,
            op as usize,
            fd as usize,
            &raw const event as usize,
            0,
            0,
        )
    }
    .map(|_| ())
}

/// `epoll_wait(epfd, events, timeout_ms)` → number of ready events
/// written into `events`. Zero on timeout.
pub fn epoll_wait(
    epfd: BorrowedFd<'_>,
    events: &mut [EpollEvent],
    timeout_ms: i32,
) -> Result<usize, NetError> {
    let (call, nr): (&'static str, usize) = if raw::HAS_EPOLL_WAIT {
        ("epoll_wait", raw::SYS_EPOLL_WAIT)
    } else {
        ("epoll_pwait", raw::SYS_EPOLL_PWAIT)
    };
    blocking();
    // SAFETY: `events` is a valid writable buffer of `len` entries; the
    // null sigmask arm of epoll_pwait is explicitly allowed by the kernel.
    let n = unsafe {
        retrying(
            call,
            nr,
            epfd.as_raw_fd() as usize,
            events.as_mut_ptr() as usize,
            events.len(),
            timeout_ms as usize,
            0, // sigmask: NULL
            8, // sigsetsize (ignored with a null mask)
        )
    }?;
    Ok(n as usize)
}

/// `accept4(listener, NULL, NULL, SOCK_NONBLOCK | SOCK_CLOEXEC)` → new
/// connection fd, already nonblocking, closed when dropped.
pub fn accept4(listener: BorrowedFd<'_>) -> Result<OwnedFd, NetError> {
    blocking();
    // SAFETY: null addr/addrlen is the documented "don't care" form.
    let fd = unsafe {
        retrying(
            "accept4",
            raw::SYS_ACCEPT4,
            listener.as_raw_fd() as usize,
            0,
            0,
            (SOCK_NONBLOCK | SOCK_CLOEXEC) as usize,
            0,
            0,
        )
    }?;
    // SAFETY: the kernel has just returned this fd and nothing else owns it.
    Ok(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
}

/// `setsockopt(fd, level, name, &value, 4)` for integer-valued options
/// (e.g. [`IPPROTO_TCP`] / [`TCP_NODELAY`]).
pub fn setsockopt(fd: BorrowedFd<'_>, level: i32, name: i32, value: i32) -> Result<(), NetError> {
    // SAFETY: `value` lives across the call and the declared length is
    // exactly its size; the kernel only reads it.
    unsafe {
        retrying(
            "setsockopt",
            raw::SYS_SETSOCKOPT,
            fd.as_raw_fd() as usize,
            level as usize,
            name as usize,
            &raw const value as usize,
            std::mem::size_of::<i32>(),
            0,
        )
    }
    .map(|_| ())
}

/// Nonblocking `read`; `Ok(0)` means EOF.
pub fn read(fd: BorrowedFd<'_>, buf: &mut [u8]) -> Result<usize, NetError> {
    blocking();
    // SAFETY: `buf` is valid for writes of its full length.
    unsafe {
        retrying(
            "read",
            raw::SYS_READ,
            fd.as_raw_fd() as usize,
            buf.as_mut_ptr() as usize,
            buf.len(),
            0,
            0,
            0,
        )
    }
    .map(|n| n as usize)
}

/// Nonblocking `write`; maps `EPIPE`/`ECONNRESET` to
/// [`NetError::PeerClosed`].
pub fn write(fd: BorrowedFd<'_>, buf: &[u8]) -> Result<usize, NetError> {
    blocking();
    // SAFETY: `buf` is valid for reads of its full length.
    let result = unsafe {
        retrying(
            "write",
            raw::SYS_WRITE,
            fd.as_raw_fd() as usize,
            buf.as_ptr() as usize,
            buf.len(),
            0,
            0,
            0,
        )
    };
    match result {
        Err(NetError::Sys { errno, .. }) if errno == EPIPE || errno == ECONNRESET => {
            Err(NetError::PeerClosed)
        }
        other => other.map(|n| n as usize),
    }
}

/// Nonblocking `writev`: write the gathered `iovs` in one kernel
/// crossing; maps `EPIPE`/`ECONNRESET` to [`NetError::PeerClosed`].
///
/// Returns the number of bytes accepted, which may land mid-iovec; the
/// caller resumes from that byte offset (see `Conn::advance_write`).
///
/// An [`IoSlice`] borrows its buffer, so a buffer cannot be freed while
/// an iovec still describes it — borrowck rejects it:
///
/// ```compile_fail,E0505
/// use std::io::IoSlice;
/// use std::os::fd::AsFd;
///
/// let buf = vec![0u8; 16];
/// let iov = IoSlice::new(&buf);
/// drop(buf);
/// let _ = tasq_net::sys::writev(std::io::stdout().as_fd(), &[iov]);
/// ```
pub fn writev(fd: BorrowedFd<'_>, iovs: &[IoSlice<'_>]) -> Result<usize, NetError> {
    blocking();
    // SAFETY: `IoSlice` is ABI-compatible with the kernel's `struct
    // iovec` on Unix, and each one borrows a slice that outlives this
    // call; the kernel only reads the described buffers.
    let result = unsafe {
        retrying(
            "writev",
            raw::SYS_WRITEV,
            fd.as_raw_fd() as usize,
            iovs.as_ptr() as usize,
            iovs.len(),
            0,
            0,
            0,
        )
    };
    match result {
        Err(NetError::Sys { errno, .. }) if errno == EPIPE || errno == ECONNRESET => {
            Err(NetError::PeerClosed)
        }
        other => other.map(|n| n as usize),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::fd::AsFd;

    #[test]
    fn epoll_round_trip_on_a_real_pipe() {
        if !supported() {
            return;
        }
        let epoll = epoll_create1().expect("epoll_create1");
        let epfd = epoll.as_fd();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        epoll_ctl(epfd, EPOLL_CTL_ADD, listener.as_fd(), EPOLLIN).expect("ctl add");

        // Nothing pending: a short wait times out with zero events.
        let mut events = [EpollEvent::zeroed(); 8];
        let n = epoll_wait(epfd, &mut events, 10).expect("wait");
        assert_eq!(n, 0);

        // A connecting client makes the listener readable.
        let addr = listener.local_addr().expect("addr");
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        let n = epoll_wait(epfd, &mut events, 2000).expect("wait");
        assert!(n >= 1);
        assert_eq!(events[0].fd(), listener.as_raw_fd());
        assert!(events[0].ready() & EPOLLIN != 0);

        // accept4 hands back a nonblocking fd; a fresh read would block.
        let conn = accept4(listener.as_fd()).expect("accept4");
        let mut buf = [0u8; 16];
        assert_eq!(read(conn.as_fd(), &mut buf), Err(NetError::WouldBlock));

        // Data pumped by the client arrives through the raw read.
        client.write_all(b"ping").expect("client write");
        epoll_ctl(epfd, EPOLL_CTL_ADD, conn.as_fd(), EPOLLIN | EPOLLET).expect("ctl add conn");
        let n = epoll_wait(epfd, &mut events, 2000).expect("wait");
        assert!(n >= 1);
        let got = read(conn.as_fd(), &mut buf).expect("read");
        assert_eq!(&buf[..got], b"ping");

        // Raw write reaches the client through the std stream.
        let wrote = write(conn.as_fd(), b"pong").expect("write");
        assert_eq!(wrote, 4);
        let mut reply = [0u8; 4];
        std::io::Read::read_exact(&mut client, &mut reply).expect("client read");
        assert_eq!(&reply, b"pong");

        epoll_ctl(epfd, EPOLL_CTL_DEL, conn.as_fd(), 0).expect("ctl del");
    }

    #[test]
    fn writev_gathers_scattered_buffers_in_one_call() {
        if !supported() {
            return;
        }
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::net::TcpStream::connect(addr).expect("connect");
        let (mut server_side, _) = listener.accept().expect("accept");

        let parts: [&[u8]; 3] = [b"alpha-", b"beta-", b"gamma"];
        let iovs = parts.map(IoSlice::new);
        let before = syscall_counters().writev.get();
        let wrote = writev(client.as_fd(), &iovs).expect("writev");
        assert_eq!(wrote, 16);
        assert_eq!(syscall_counters().writev.get(), before + 1);

        let mut got = [0u8; 16];
        std::io::Read::read_exact(&mut server_side, &mut got).expect("read back");
        assert_eq!(&got, b"alpha-beta-gamma");
    }

    #[test]
    fn writev_to_a_closed_peer_reports_peer_closed() {
        if !supported() {
            return;
        }
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::net::TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        drop(server_side);

        // The first writev may be accepted into the socket buffer before
        // the kernel notices the reset; keep pushing until the error
        // surfaces as the typed PeerClosed (EPIPE or ECONNRESET).
        let chunk = vec![0u8; 64 * 1024];
        let iovs = [IoSlice::new(&chunk), IoSlice::new(&chunk)];
        let mut saw_peer_closed = false;
        for _ in 0..64 {
            match writev(client.as_fd(), &iovs) {
                Err(NetError::PeerClosed) => {
                    saw_peer_closed = true;
                    break;
                }
                Err(NetError::WouldBlock) | Ok(_) => continue,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(saw_peer_closed);
    }

    #[test]
    fn accept_on_idle_listener_would_block() {
        if !supported() {
            return;
        }
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        assert_eq!(accept4(listener.as_fd()).err(), Some(NetError::WouldBlock));
    }

    #[test]
    fn setsockopt_sets_nodelay_on_a_socket_and_rejects_a_pipe() {
        if !supported() {
            let stdin = std::io::stdin();
            assert_eq!(
                setsockopt(stdin.as_fd(), IPPROTO_TCP, TCP_NODELAY, 1),
                Err(NetError::Unsupported)
            );
            return;
        }
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let client =
            std::net::TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let conn = accept4(listener.as_fd()).expect("accept4");
        let before = syscall_counters().setsockopt.get();
        assert_eq!(setsockopt(conn.as_fd(), IPPROTO_TCP, TCP_NODELAY, 1), Ok(()));
        assert!(syscall_counters().setsockopt.get() > before);
        drop(conn);
        drop(client);

        // A pipe is a valid fd but not a socket: ENOTSOCK, typed.
        let (pipe_rx, _pipe_tx) = std::io::pipe().expect("pipe");
        assert_eq!(
            setsockopt(pipe_rx.as_fd(), IPPROTO_TCP, TCP_NODELAY, 1),
            Err(NetError::Sys { call: "setsockopt", errno: 88 })
        );
    }

    #[test]
    fn errors_render_meaningfully() {
        let e = NetError::Sys { call: "epoll_wait", errno: 9 };
        assert!(e.to_string().contains("epoll_wait"));
        assert!(e.to_string().contains('9'));
        assert!(NetError::WouldBlock.to_string().contains("block"));
        assert!(NetError::Protocol("bad frame".into()).to_string().contains("bad frame"));
    }
}
