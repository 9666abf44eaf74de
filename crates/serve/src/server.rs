//! The daemon: accept loop, thread-per-core IO workers, graceful drain,
//! and the Prometheus scrape side port.
//!
//! Threading model: the server builds a *dedicated* [`mbp_par::ThreadPool`]
//! (sized from [`mbp_par::max_threads`], so `MBP_THREADS` / `--threads`
//! govern it) and feeds each worker one long-lived IO loop via
//! [`mbp_par::ThreadPool::run`]. The shared compute pool is deliberately
//! *not* used: a blocked IO loop would pin its workers and starve fork-join
//! regions elsewhere in the process. Pool workers are marked, so any
//! parallel region reached from a dispatch (e.g. a publish retraining)
//! degrades to sequential instead of oversubscribing.
//!
//! Connections are assigned to IO workers round-robin at accept time and
//! never migrate, which keeps every connection's cycle single-threaded —
//! the property the per-connection RNG determinism rests on.
//!
//! Waiting: an IO worker cycles all of its connections and, while any
//! cycle makes progress, goes round again at once, so a saturated worker
//! never waits. After a pass with no progress it blocks in `poll(2)` on
//! each connection's socket — for reading only when the next cycle would
//! read, for writing only while a response is unsent (`Conn::interest`)
//! — and on the read half of its own wake socket, until the earliest idle
//! deadline (indefinitely without connections). The accept thread blocks
//! in `poll(2)` on the listener and its own wake socket, and writes one
//! byte to a worker's wake socket after handing that worker a stream. The
//! metrics thread likewise blocks in `poll(2)` on its listener and its
//! own wake socket.
//!
//! Shutdown: SIGTERM (when [`ServerConfig::handle_sigterm`] is set), a
//! client shutdown control frame, or [`ServerHandle::shutdown`] all flip
//! one drain flag and wake every IO worker, the accept thread and the
//! metrics thread (`Control::drain`). A signal handler can take no lock,
//! so SIGTERM writes one byte to a process-wide self-pipe that every
//! SIGTERM-handling accept thread polls. The accept loop closes, every
//! connection stops reading, serves what it already buffered, flushes,
//! closes — then the IO loops exit and [`ServerHandle::wait`] returns the
//! run's stats.
//!
//! Unix only: the waits are `poll(2)` on raw fds.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::raw::{c_int, c_short, c_void};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use mbp_core::market::concurrent::SharedBroker;

use crate::conn::{Conn, ConnConfig, CycleResult};

/// Tuning for one [`start`]ed daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Bind address for the `GET /metrics` side port; `None` disables it.
    pub metrics_addr: Option<String>,
    /// IO worker threads; `0` means [`mbp_par::max_threads`].
    pub io_threads: usize,
    /// `false` disables batch admission (the loadgen baseline mode).
    pub batch_admission: bool,
    /// Max decoded-but-undispatched requests per connection before an
    /// unsolicited backpressure frame is sent and decoding pauses.
    pub queue_limit: usize,
    /// Close a connection after this long without any progress.
    pub idle_timeout: Duration,
    /// Install a SIGTERM handler that triggers the graceful drain.
    pub handle_sigterm: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            metrics_addr: None,
            io_threads: 0,
            batch_admission: true,
            queue_limit: 1024,
            idle_timeout: Duration::from_secs(30),
            handle_sigterm: false,
        }
    }
}

/// Counters accumulated over one server run.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted over the run.
    pub connections: u64,
    /// Requests decoded off the wire.
    pub requests: u64,
}

struct Control {
    draining: AtomicBool,
    accepted: AtomicU64,
    live_conns: AtomicU64,
    /// One per IO worker, indexed like the pool's IO loops.
    inboxes: Vec<Inbox>,
    accept_wake: Waker,
    /// Present when the metrics side port is enabled.
    metrics_wake: Option<Waker>,
}

/// Freshly accepted sockets for one IO worker, and the wake socket that
/// tells it to look.
struct Inbox {
    streams: Mutex<Vec<TcpStream>>,
    wake: Waker,
}

impl Control {
    /// Sets the drain flag and wakes every IO worker, the accept thread
    /// and the metrics thread, so none of them sleeps through the drain.
    /// Every drain path goes through here; waking a thread twice is
    /// harmless.
    fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        for inbox in &self.inboxes {
            inbox.wake.wake();
        }
        self.accept_wake.wake();
        if let Some(wake) = &self.metrics_wake {
            wake.wake();
        }
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// The write half of a wake socket: one byte makes its owner's `poll`
/// return.
struct Waker(UnixStream);

impl Waker {
    fn wake(&self) {
        // WouldBlock means the socket is full of wake-ups already pending.
        let _ = (&self.0).write(&[1]);
    }
}

/// A non-blocking wake socket: the read half its owner polls, and the
/// [`Waker`] other threads write to.
fn wake_pair() -> std::io::Result<(UnixStream, Waker)> {
    let (rx, tx) = UnixStream::pair()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    Ok((rx, Waker(tx)))
}

/// Empties a wake socket's read half so the next `poll` blocks again.
fn clear_wakes(rx: &UnixStream) {
    let mut buf = [0u8; 64];
    while matches!((&*rx).read(&mut buf), Ok(n) if n > 0) {}
}

/// One `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

impl PollFd {
    /// `poll(2)` skips a negative fd, so `-1` holds a slot with no wait.
    fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

/// Blocks in `poll(2)` until one of `fds` is ready or `timeout` has
/// passed (`None` waits until woken). A wait cut short by a signal or an
/// error just returns: every caller re-checks its state and waits again.
fn wait_ready(fds: &mut [PollFd], timeout: Option<Duration>) {
    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;
    extern "C" {
        // libc::poll, which std already links; declared here to keep the
        // crate dependency-free.
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }
    let timeout_ms = match timeout {
        // Round up: waking before the deadline would only wait again.
        Some(t) => c_int::try_from(t.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX),
        None => -1,
    };
    // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)` pollfd
    // structs and `nfds` is its length, so the kernel reads and writes
    // only inside it, and only for the duration of the call.
    unsafe {
        poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms);
    }
}

/// A running server; dropping it (or calling [`ServerHandle::wait`])
/// drains and joins everything.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    control: Arc<Control>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    metrics_thread: Option<std::thread::JoinHandle<()>>,
    pool: Option<mbp_par::ThreadPool>,
}

impl ServerHandle {
    /// The bound serving address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics address, when the side port is enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Flips the drain flag: stop accepting, serve buffered requests,
    /// flush, close. Returns immediately; pair with [`ServerHandle::wait`].
    pub fn shutdown(&self) {
        self.control.drain();
    }

    /// Blocks until the drain completes and every thread has exited,
    /// returning the run's stats.
    pub fn wait(mut self) -> ServerStats {
        self.join_all();
        ServerStats {
            connections: self.control.accepted.load(Ordering::Relaxed),
            // Counters are recorded only while `mbp_obs` is enabled; the
            // CLI and loadgen both enable it before starting the server.
            requests: mbp_obs::snapshot()
                .counters
                .iter()
                .find(|(name, _)| name == "mbp.serve.requests")
                .map_or(0, |(_, value)| *value),
        }
    }

    /// `true` once the drain flag is set (by SIGTERM, a control frame, or
    /// [`ServerHandle::shutdown`]).
    pub fn is_draining(&self) -> bool {
        self.control.is_draining()
    }

    fn join_all(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Dropping the pool joins the IO loops (they exit once draining
        // completes and their connection lists empty).
        self.pool.take();
        if let Some(t) = self.metrics_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.control.drain();
        self.join_all();
    }
}

/// SIGTERM flag shared by every server in the process (signal handlers
/// are process-global anyway).
static SIGTERM_SEEN: AtomicBool = AtomicBool::new(false);

/// The SIGTERM self-pipe: (read half, write half). It is never closed, so
/// the handler can never write into a recycled fd, and never read, so
/// once signalled it stays readable for every SIGTERM-handling accept
/// thread in the process, present or future.
static SIGTERM_PIPE: OnceLock<(UnixStream, UnixStream)> = OnceLock::new();

/// The self-pipe's write half, as the handler reads it.
static SIGTERM_WAKE_FD: AtomicI32 = AtomicI32::new(-1);

/// Installs the SIGTERM handler and returns the self-pipe's read half,
/// for the accept thread to poll.
fn install_sigterm_handler() -> std::io::Result<RawFd> {
    const SIGTERM: c_int = 15;
    extern "C" {
        // libc::signal and libc::write, which std already links; declared
        // here to keep the crate dependency-free.
        fn signal(signum: c_int, handler: *const c_void) -> *const c_void;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }
    extern "C" fn on_sigterm(_sig: c_int) {
        if SIGTERM_SEEN.swap(true, Ordering::SeqCst) {
            return; // the pipe is readable already
        }
        let byte = 1u8;
        // SAFETY: write(2) is async-signal-safe; the fd is the self-pipe's
        // write half, stored before the handler was installed and never
        // closed; `byte` outlives the call. Only the first SIGTERM writes,
        // so the one byte always fits and errno is left untouched.
        unsafe {
            write(
                SIGTERM_WAKE_FD.load(Ordering::SeqCst),
                (&byte as *const u8).cast(),
                1,
            );
        }
    }
    let pipe = match SIGTERM_PIPE.get() {
        Some(pipe) => pipe,
        None => {
            let (rx, tx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            SIGTERM_PIPE.get_or_init(|| (rx, tx))
        }
    };
    SIGTERM_WAKE_FD.store(pipe.1.as_raw_fd(), Ordering::SeqCst);
    // SAFETY: `on_sigterm` is async-signal-safe (atomics and one write(2),
    // no allocation, no locks), and `signal` only swaps the process's
    // SIGTERM disposition to it.
    unsafe {
        signal(SIGTERM, on_sigterm as *const c_void);
    }
    Ok(pipe.0.as_raw_fd())
}

/// Starts the daemon over `broker` and returns its handle.
pub fn start(broker: SharedBroker, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let metrics_listener = match &cfg.metrics_addr {
        Some(maddr) => {
            let mlistener = TcpListener::bind(maddr)?;
            mlistener.set_nonblocking(true)?;
            Some(mlistener)
        }
        None => None,
    };
    let metrics_addr = match &metrics_listener {
        Some(l) => Some(l.local_addr()?),
        None => None,
    };
    let sigterm_rx = if cfg.handle_sigterm {
        Some(install_sigterm_handler()?)
    } else {
        None
    };

    let conn_cfg = ConnConfig {
        queue_limit: cfg.queue_limit.max(1),
        read_buf_limit: 256 * 1024,
        per_request: !cfg.batch_admission,
    };
    let io_threads = if cfg.io_threads == 0 {
        mbp_par::max_threads()
    } else {
        cfg.io_threads
    }
    .max(1);

    let mut inboxes = Vec::with_capacity(io_threads);
    let mut worker_wakes = Vec::with_capacity(io_threads);
    for _ in 0..io_threads {
        let (rx, wake) = wake_pair()?;
        inboxes.push(Inbox {
            streams: Mutex::new(Vec::new()),
            wake,
        });
        worker_wakes.push(rx);
    }
    let (accept_rx, accept_wake) = wake_pair()?;
    let (metrics_rx, metrics_wake) = metrics_listener
        .as_ref()
        .map(|_| wake_pair())
        .transpose()?
        .unzip();
    let control = Arc::new(Control {
        draining: AtomicBool::new(false),
        accepted: AtomicU64::new(0),
        live_conns: AtomicU64::new(0),
        inboxes,
        accept_wake,
        metrics_wake,
    });

    let pool = mbp_par::ThreadPool::new(io_threads);
    for (index, wake_rx) in worker_wakes.into_iter().enumerate() {
        let broker = broker.clone();
        let control = Arc::clone(&control);
        let conn_cfg = conn_cfg.clone();
        let idle_timeout = cfg.idle_timeout;
        pool.run(move || io_loop(index, &wake_rx, &broker, &control, &conn_cfg, idle_timeout));
    }
    // From here an early return drops the handle, which drains and joins
    // the IO loops already running.
    let mut handle = ServerHandle {
        addr,
        metrics_addr,
        control: Arc::clone(&control),
        accept_thread: None,
        metrics_thread: None,
        pool: Some(pool),
    };

    let accept_control = Arc::clone(&control);
    handle.accept_thread = Some(
        std::thread::Builder::new()
            .name("mbp-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_control, &accept_rx, sigterm_rx))?,
    );
    if let (Some(mlistener), Some(wake_rx)) = (metrics_listener, metrics_rx) {
        handle.metrics_thread = Some(
            std::thread::Builder::new()
                .name("mbp-serve-metrics".to_string())
                .spawn(move || metrics_loop(&mlistener, &control, &wake_rx))?,
        );
    }
    Ok(handle)
}

/// Back-off after a failed `accept` other than WouldBlock (say EMFILE,
/// which can leave the listener readable): a wait on the wake sockets
/// alone, so a drain still ends it at once.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(1);

fn accept_loop(
    listener: &TcpListener,
    control: &Control,
    wake_rx: &UnixStream,
    sigterm_rx: Option<RawFd>,
) {
    let mut next = 0usize;
    loop {
        if sigterm_rx.is_some() && SIGTERM_SEEN.load(Ordering::SeqCst) {
            control.drain();
        }
        if control.is_draining() {
            return; // closing the listener refuses new connections
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                control.accepted.fetch_add(1, Ordering::Relaxed);
                control.live_conns.fetch_add(1, Ordering::Relaxed);
                mbp_obs::inc("mbp.serve.accepted");
                mbp_obs::gauge_add("mbp.serve.connections", 1.0);
                if let Some(inbox) = control.inboxes.get(next % control.inboxes.len()) {
                    if let Ok(mut q) = inbox.streams.lock() {
                        q.push(stream);
                    }
                    inbox.wake.wake();
                }
                next = next.wrapping_add(1);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => wait_to_accept(listener, wake_rx, sigterm_rx, &e),
        }
    }
}

/// Blocks after a failed `accept`: on WouldBlock until the listener is
/// readable, on any other error for [`ACCEPT_ERROR_BACKOFF`]; either way
/// the wake socket (and the SIGTERM self-pipe, if given) ends the wait.
fn wait_to_accept(
    listener: &TcpListener,
    wake_rx: &UnixStream,
    sigterm_rx: Option<RawFd>,
    error: &std::io::Error,
) {
    let would_block = error.kind() == std::io::ErrorKind::WouldBlock;
    let mut fds = [
        PollFd::new(wake_rx.as_raw_fd(), POLLIN),
        PollFd::new(sigterm_rx.unwrap_or(-1), POLLIN),
        PollFd::new(
            if would_block {
                listener.as_raw_fd()
            } else {
                -1
            },
            POLLIN,
        ),
    ];
    wait_ready(&mut fds, (!would_block).then_some(ACCEPT_ERROR_BACKOFF));
    clear_wakes(wake_rx);
}

struct Tracked {
    conn: Conn,
    last_progress: Instant,
}

fn io_loop(
    index: usize,
    wake_rx: &UnixStream,
    broker: &SharedBroker,
    control: &Control,
    cfg: &ConnConfig,
    idle_timeout: Duration,
) {
    let Some(inbox) = control.inboxes.get(index) else {
        return;
    };
    let mut conns: Vec<Tracked> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut woken = false;
    loop {
        // Adopt newly accepted sockets.
        if let Ok(mut q) = inbox.streams.lock() {
            for stream in q.drain(..) {
                conns.push(Tracked {
                    conn: Conn::new(stream),
                    last_progress: Instant::now(),
                });
            }
        }
        let draining = control.is_draining();
        if draining && conns.is_empty() {
            return;
        }
        // A closed connection counts as progress: the next pass re-checks
        // whether a drain has emptied the list.
        let mut any_progress = false;
        let now = Instant::now();
        conns.retain_mut(|t| match t.conn.cycle(broker, cfg, &control.draining) {
            CycleResult::Progress => {
                t.last_progress = now;
                any_progress = true;
                true
            }
            CycleResult::Idle if now.duration_since(t.last_progress) <= idle_timeout => true,
            CycleResult::Idle => {
                mbp_obs::inc("mbp.serve.idle_closed");
                close_conn(control);
                any_progress = true;
                false
            }
            CycleResult::Closed => {
                close_conn(control);
                any_progress = true;
                false
            }
        });
        if !draining && control.is_draining() {
            // A Shutdown frame in this pass set the flag: wake the rest.
            control.drain();
        }
        if any_progress {
            woken = false;
            continue;
        }
        if woken {
            mbp_obs::inc("mbp.serve.io.empty_wakeups");
        }
        wait_for_work(&mut fds, wake_rx, &conns, cfg, control, idle_timeout);
        woken = true;
    }
}

/// Blocks until a connection is ready for what its next cycle would do,
/// the worker's wake socket is written, or the earliest idle deadline.
fn wait_for_work(
    fds: &mut Vec<PollFd>,
    wake_rx: &UnixStream,
    conns: &[Tracked],
    cfg: &ConnConfig,
    control: &Control,
    idle_timeout: Duration,
) {
    let draining = control.is_draining();
    let mut deadline: Option<Instant> = None;
    fds.clear();
    fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
    for t in conns {
        let interest = t.conn.interest(cfg, draining);
        let events =
            if interest.read { POLLIN } else { 0 } | if interest.write { POLLOUT } else { 0 };
        fds.push(PollFd::new(t.conn.stream().as_raw_fd(), events));
        if let Some(d) = t.last_progress.checked_add(idle_timeout) {
            deadline = Some(deadline.map_or(d, |e| e.min(d)));
        }
    }
    mbp_obs::inc("mbp.serve.io.waits");
    wait_ready(
        fds,
        deadline.map(|d| d.saturating_duration_since(Instant::now())),
    );
    if fds.first().is_some_and(|w| w.revents != 0) {
        clear_wakes(wake_rx);
    }
}

fn close_conn(control: &Control) {
    control.live_conns.fetch_sub(1, Ordering::Relaxed);
    mbp_obs::gauge_add("mbp.serve.connections", -1.0);
}

/// Minimal HTTP responder for `GET /metrics`: one request per connection,
/// Prometheus text exposition of the live `mbp-obs` snapshot. Between
/// connections it blocks in `poll(2)` on the listener and `wake_rx`, which
/// `Control::drain` writes.
fn metrics_loop(listener: &TcpListener, control: &Control, wake_rx: &UnixStream) {
    loop {
        if control.is_draining() {
            return;
        }
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                let _ = stream.set_nonblocking(false);
                let mut buf = [0u8; 2048];
                let mut head = Vec::new();
                while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8192 {
                    match stream.read(&mut buf) {
                        Ok(0) => break,
                        Ok(n) => head.extend_from_slice(buf.get(..n).unwrap_or(&[])),
                        Err(_) => break,
                    }
                }
                let request_line = head.split(|&b| b == b'\r').next().unwrap_or(&[]);
                let body = if request_line.starts_with(b"GET /metrics") {
                    mbp_obs::to_prometheus(&mbp_obs::snapshot())
                } else {
                    String::new()
                };
                let response = if body.is_empty() {
                    "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n".to_string()
                } else {
                    format!(
                        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{}",
                        body.len(),
                        body
                    )
                };
                let _ = stream.write_all(response.as_bytes());
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => wait_to_accept(listener, wake_rx, None, &e),
        }
    }
}
