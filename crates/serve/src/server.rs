//! The `rempd` HTTP server: a readiness-driven keep-alive engine
//! feeding a fixed handler pool (sized by [`Parallelism`]), routing
//! onto the campaign [`Registry`] through the declarative
//! [`crate::router`] table.
//!
//! Connections are HTTP/1.1 keep-alive by default and live in three
//! places, never more than one at a time:
//!
//! * **parked** — idle sockets wait in the readiness backend: on Linux
//!   a shared level-triggered `EPOLLONESHOT` set the handler threads
//!   `epoll_wait` on directly (a readable socket wakes exactly one
//!   handler, with no dispatch thread on the hot path); on other Unixes
//!   a `poll(2)` loop that feeds a handler queue. Either way a silent
//!   client costs one fd, never a handler thread, and sockets idle
//!   beyond [`ServerConfig::keepalive_timeout`] are reaped.
//! * **a handler** — reads exactly one request (bounded by
//!   [`ServerConfig::read_timeout`]), answers it, drains any pipelined
//!   requests already buffered, and re-parks the socket.
//! * **the long-poll dispatcher** — `GET /campaigns/{id}/next` with
//!   `wait_ms` parks here when no question is assignable; while any
//!   waiter is parked, the campaign actors bump a
//!   [`crate::registry::CampaignNotifier`] epoch on every accepted
//!   answer, pause and resume, and the dispatcher re-polls the parked
//!   workers until a question frees up or the wait expires.
//!
//! The thread that called [`Server::run`] owns the listener: it
//! accepts, tunes and parks new sockets (into the idle set, not a
//! handler — only a *readable* socket may cost a handler thread) and
//! runs the idle reaper.
//!
//! Every handler is panic-isolated per connection by construction: all
//! wire input flows through the typed parsers in [`crate::http`] and
//! [`crate::wire`], so a malformed request becomes a 4xx response, and
//! campaign work happens on actor threads that only ever see typed
//! requests. Shutdown is cooperative — flip the stop flag (SIGTERM does
//! this in `rempd`), and [`Server::run`] drains the pool, answers the
//! parked long-polls, checkpoints every campaign to the state directory
//! and joins the actors before returning.
//!
//! Off Unix there is no readiness binding; a fallback accept loop
//! serves keep-alive connections directly on the handler threads (an
//! idle client then holds a handler for up to the read timeout).

#[cfg(not(target_os = "linux"))]
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
#[cfg(not(target_os = "linux"))]
use std::sync::Condvar;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use remp_json::Json;
use remp_par::Parallelism;

use crate::clock::{Clock, SystemClock};
use crate::http::{read_request, write_response, write_response_typed, HttpError};
use crate::registry::{CampaignNotifier, CampaignRequest, Registry, WakeReason};
use crate::router::{self, Action, Ctx, Resolution};
use crate::wire::ServeError;

/// Server construction options.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8787` (`:0` picks a free port).
    pub addr: String,
    /// Durable campaign state directory; `None` disables durability.
    pub state_dir: Option<PathBuf>,
    /// Handler-pool sizing policy.
    pub parallelism: Parallelism,
    /// Lease clock; the default [`SystemClock`] is right for production,
    /// a [`crate::clock::ManualClock`] lets tests and the simulator
    /// drive lease expiry on virtual time.
    pub clock: Arc<dyn Clock>,
    /// How long an idle keep-alive connection may sit in the readiness
    /// loop before it is closed.
    pub keepalive_timeout: Duration,
    /// How long a handler will wait on a socket mid-request before
    /// giving up on the client.
    pub read_timeout: Duration,
    /// Most sockets held open at once; the listener stops accepting
    /// (backpressure, not errors) while at the cap.
    pub max_connections: usize,
    /// Upper bound on the `wait_ms` a long-poll may request.
    pub max_wait_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:8787".into(),
            state_dir: None,
            parallelism: Parallelism::Auto,
            clock: Arc::new(SystemClock),
            keepalive_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(10),
            max_connections: 4096,
            max_wait_ms: 30_000,
        }
    }
}

/// A bound (but not yet running) server.
pub struct Server {
    listener: TcpListener,
    registry: Arc<Registry>,
    pool_size: usize,
    stats: ServeStats,
    keepalive_timeout: Duration,
    read_timeout: Duration,
    max_connections: usize,
    max_wait_ms: u64,
}

impl Server {
    /// Binds the listener and opens the registry (resuming any
    /// campaigns checkpointed in the state directory).
    pub fn bind(config: &ServerConfig) -> Result<Server, ServeError> {
        let registry = Arc::new(Registry::open_with_clock(
            config.state_dir.clone(),
            Arc::clone(&config.clock),
        )?);
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::internal("bind", format!("{}: {e}", config.addr)))?;
        // std listens with a backlog of 128; a connection storm (a
        // worker fleet arriving at once, or one-shot clients) overflows
        // that and every dropped SYN costs the client a ~1 s
        // retransmit. Re-listen with a queue sized to the connection
        // cap — legal on an already-listening socket; the kernel still
        // clamps to net.core.somaxconn.
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            extern "C" {
                fn listen(fd: i32, backlog: i32) -> i32;
            }
            let backlog = i32::try_from(config.max_connections).unwrap_or(i32::MAX).max(128);
            let _ = unsafe { listen(listener.as_raw_fd(), backlog) };
        }
        // At least two handlers so one slow campaign request can never
        // starve /healthz.
        let pool_size = config.parallelism.threads().max(2);
        Ok(Server {
            listener,
            registry,
            pool_size,
            // Registered at bind so a scrape sees every serving family
            // before the first request arrives.
            stats: ServeStats::new(),
            keepalive_timeout: config.keepalive_timeout,
            read_timeout: config.read_timeout,
            max_connections: config.max_connections.max(8),
            max_wait_ms: config.max_wait_ms,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// The campaign registry (for in-process setup in tests/examples).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Serves until `stop` becomes true, then drains the pool, answers
    /// the parked long-polls, checkpoints every campaign and joins the
    /// actors. Returns the number of campaigns checkpointed.
    pub fn run(self, stop: &AtomicBool) -> Result<usize, ServeError> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::internal("bind", e.to_string()))?;
        #[cfg(not(target_os = "linux"))]
        let queue: JobQueue = Arc::new((Mutex::new(VecDeque::new()), Condvar::new()));
        let done = Arc::new(AtomicBool::new(false));
        let dispatcher = Arc::new(Dispatcher::new(self.registry.notifier()));

        // Where handlers and the dispatcher put a keep-alive socket once
        // they are finished with it. On Linux the socket re-arms itself
        // in the shared epoll set with one `epoll_ctl` — no readiness-
        // loop round-trip on the hot path.
        #[cfg(target_os = "linux")]
        let (sink, table): (ConnSink, Arc<IdleTable>) = {
            let table = Arc::new(
                IdleTable::new()
                    .map_err(|e| ServeError::internal("spawn", format!("epoll: {e}")))?,
            );
            let give_back = Arc::clone(&table);
            let stats = self.stats.clone();
            let sink: ConnSink = Arc::new(move |conn| {
                if !give_back.park(conn) {
                    stats.conn_closed();
                }
            });
            (sink, table)
        };
        #[cfg(all(unix, not(target_os = "linux")))]
        let (sink, returned, wake_rx): (ConnSink, Arc<Mutex<Vec<Conn>>>, _) = {
            let (wake_rx, wake_tx) = std::os::unix::net::UnixStream::pair()
                .map_err(|e| ServeError::internal("spawn", format!("wake pipe: {e}")))?;
            wake_rx
                .set_nonblocking(true)
                .map_err(|e| ServeError::internal("spawn", format!("wake pipe: {e}")))?;
            wake_tx
                .set_nonblocking(true)
                .map_err(|e| ServeError::internal("spawn", format!("wake pipe: {e}")))?;
            let returned: Arc<Mutex<Vec<Conn>>> = Arc::new(Mutex::new(Vec::new()));
            let give_back = Arc::clone(&returned);
            let sink: ConnSink = Arc::new(move |conn| {
                give_back.lock().expect("returned connections poisoned").push(conn);
                // A full pipe already means a wake-up is pending.
                use std::io::Write;
                let _ = (&wake_tx).write(&[1]);
            });
            (sink, returned, wake_rx)
        };
        #[cfg(not(unix))]
        let sink: ConnSink = {
            let queue = Arc::clone(&queue);
            Arc::new(move |conn| {
                let (lock, cvar) = &*queue;
                lock.lock().expect("queue poisoned").push_back(conn);
                cvar.notify_one();
            })
        };

        let mut workers = Vec::with_capacity(self.pool_size);
        for i in 0..self.pool_size {
            #[cfg(target_os = "linux")]
            let source = Arc::clone(&table);
            #[cfg(not(target_os = "linux"))]
            let source = Arc::clone(&queue);
            let done = Arc::clone(&done);
            let registry = Arc::clone(&self.registry);
            let dispatcher = Arc::clone(&dispatcher);
            let stats = self.stats.clone();
            let sink = Arc::clone(&sink);
            let max_wait_ms = self.max_wait_ms;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("rempd-handler-{i}"))
                    .spawn(move || {
                        handler_worker(
                            &source,
                            &done,
                            &registry,
                            &dispatcher,
                            &stats,
                            &sink,
                            max_wait_ms,
                        )
                    })
                    .map_err(|e| ServeError::internal("spawn", e.to_string()))?,
            );
        }
        let dispatcher_join = {
            let dispatcher = Arc::clone(&dispatcher);
            let registry = Arc::clone(&self.registry);
            let stats = self.stats.clone();
            let sink = Arc::clone(&sink);
            std::thread::Builder::new()
                .name("rempd-longpoll".into())
                .spawn(move || dispatcher_loop(&dispatcher, &registry, &stats, &sink))
                .map_err(|e| ServeError::internal("spawn", e.to_string()))?
        };

        #[cfg(target_os = "linux")]
        let loop_result = self.readiness_loop_epoll(stop, &table);
        #[cfg(all(unix, not(target_os = "linux")))]
        let loop_result = self.readiness_loop(stop, &queue, &returned, &wake_rx);
        #[cfg(not(unix))]
        let loop_result = self.accept_loop_basic(stop, &queue);

        // Graceful drain: no new connections, finish the queued ones,
        // answer the parked long-polls, then persist and stop every
        // campaign.
        done.store(true, Ordering::SeqCst);
        #[cfg(not(target_os = "linux"))]
        queue.1.notify_all();
        for worker in workers {
            let _ = worker.join();
        }
        dispatcher.stop.store(true, Ordering::SeqCst);
        self.registry.notifier().notify(WakeReason::Shutdown);
        let _ = dispatcher_join.join();
        // Handlers may have parked sockets after the loop exited; close
        // the stragglers with the books balanced.
        #[cfg(target_os = "linux")]
        for _ in 0..table.drain() {
            self.stats.conn_closed();
        }
        loop_result?;
        self.registry.shutdown()
    }

    /// The Linux accept-and-reap loop. The hot path does not pass
    /// through here at all: handlers `epoll_wait` on the shared
    /// [`IdleTable`] oneshot set directly, so a readable socket wakes
    /// exactly one handler, and a finished handler re-arms the socket
    /// with one `epoll_ctl`. This thread only accepts new connections
    /// (parking them into the idle set — only a *readable* socket may
    /// cost a handler thread) and reaps sockets idle past the
    /// keep-alive timeout.
    #[cfg(target_os = "linux")]
    fn readiness_loop_epoll(&self, stop: &AtomicBool, table: &IdleTable) -> Result<(), ServeError> {
        use std::os::fd::AsRawFd;
        let epoll_err = |e: std::io::Error| ServeError::internal("accept", format!("epoll: {e}"));
        // A private epoll set for the listener: the shared one would
        // wake handler threads for it.
        let accept_ep = epoll_ffi::Epoll::new().map_err(epoll_err)?;
        let listener_fd = self.listener.as_raw_fd();
        accept_ep.add(listener_fd).map_err(epoll_err)?;
        let mut listener_armed = true;
        let mut events = [epoll_ffi::Event::zeroed(); 4];
        // Reap on a timer: scanning the idle table is O(connections).
        let reap_tick =
            (self.keepalive_timeout / 4).clamp(Duration::from_millis(25), Duration::from_secs(1));
        let mut next_reap = Instant::now() + reap_tick;
        while !stop.load(Ordering::SeqCst) {
            let accepting = self.stats.open_count() < self.max_connections;
            if accepting != listener_armed {
                if accepting { accept_ep.add(listener_fd) } else { accept_ep.del(listener_fd) }
                    .map_err(epoll_err)?;
                listener_armed = accepting;
            }
            // 50 ms bounds both stop-flag latency and reap granularity;
            // a pending connection returns immediately.
            accept_ep.wait(&mut events, 50).map_err(epoll_err)?;
            if listener_armed {
                loop {
                    match self.listener.accept() {
                        Ok((stream, _peer)) => {
                            self.setup_stream(&stream);
                            self.stats.conn_opened();
                            if !table.park(Conn { stream, served: 0 }) {
                                self.stats.conn_closed();
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(ServeError::internal("accept", e.to_string())),
                    }
                }
            }
            let now = Instant::now();
            if now >= next_reap {
                for _ in 0..table.reap(self.keepalive_timeout) {
                    self.stats.conn_closed();
                }
                next_reap = now + reap_tick;
            }
        }
        Ok(())
    }

    /// The portable Unix serving loop: `poll` over the listener, the
    /// wake pipe and every idle keep-alive socket; readable sockets
    /// move to the handler queue, idle ones past the keep-alive
    /// timeout are reaped. Linux uses [`Self::readiness_loop_epoll`]
    /// instead, which scales past a few hundred parked sockets.
    #[cfg(all(unix, not(target_os = "linux")))]
    fn readiness_loop(
        &self,
        stop: &AtomicBool,
        queue: &JobQueue,
        returned: &Mutex<Vec<Conn>>,
        wake_rx: &std::os::unix::net::UnixStream,
    ) -> Result<(), ServeError> {
        use std::os::fd::AsRawFd;
        let mut idle: Vec<IdleConn> = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            let now = Instant::now();
            idle.retain(|conn| {
                if now.duration_since(conn.last) > self.keepalive_timeout {
                    self.stats.conn_closed();
                    false
                } else {
                    true
                }
            });

            let accepting = self.stats.open_count() < self.max_connections;
            let mut fds = Vec::with_capacity(2 + idle.len());
            fds.push(poll_ffi::PollFd::readable(wake_rx.as_raw_fd()));
            if accepting {
                fds.push(poll_ffi::PollFd::readable(self.listener.as_raw_fd()));
            }
            let base = fds.len();
            for conn in &idle {
                fds.push(poll_ffi::PollFd::readable(conn.stream.as_raw_fd()));
            }
            // 50 ms bounds both stop-flag latency and idle-reap
            // granularity; readable sockets return immediately.
            poll_ffi::wait(&mut fds, 50)
                .map_err(|e| ServeError::internal("accept", format!("poll: {e}")))?;

            // Ready idle sockets first, while indices still line up with
            // the fd array.
            let mut kept = Vec::with_capacity(idle.len());
            for (i, conn) in idle.drain(..).enumerate() {
                if fds[base + i].revents != 0 {
                    let (lock, cvar) = &**queue;
                    lock.lock().expect("queue poisoned").push_back(conn.into_job());
                    cvar.notify_one();
                } else {
                    kept.push(conn);
                }
            }
            idle = kept;

            if fds[0].revents != 0 {
                use std::io::Read;
                let mut sponge = [0u8; 64];
                while matches!((&*wake_rx).read(&mut sponge), Ok(n) if n > 0) {}
                let mut back = returned.lock().expect("returned connections poisoned");
                for conn in back.drain(..) {
                    idle.push(IdleConn {
                        stream: conn.stream,
                        served: conn.served,
                        last: Instant::now(),
                    });
                }
            }

            if accepting && fds[1].revents != 0 {
                loop {
                    match self.listener.accept() {
                        Ok((stream, _peer)) => {
                            self.setup_stream(&stream);
                            self.stats.conn_opened();
                            // Into the idle set, not straight to a
                            // handler: only a *readable* socket may cost
                            // a handler thread.
                            idle.push(IdleConn { stream, served: 0, last: Instant::now() });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(ServeError::internal("accept", e.to_string())),
                    }
                }
            }
        }
        for _ in &idle {
            self.stats.conn_closed();
        }
        Ok(())
    }

    /// The non-Unix fallback: a plain accept loop; keep-alive sockets
    /// cycle through the handler queue and block a handler while idle
    /// (bounded by the read timeout).
    #[cfg(not(unix))]
    fn accept_loop_basic(&self, stop: &AtomicBool, queue: &JobQueue) -> Result<(), ServeError> {
        while !stop.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.setup_stream(&stream);
                    self.stats.conn_opened();
                    let (lock, cvar) = &**queue;
                    lock.lock().expect("queue poisoned").push_back(Conn { stream, served: 0 });
                    cvar.notify_one();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ServeError::internal("accept", e.to_string())),
            }
        }
        Ok(())
    }

    fn setup_stream(&self, stream: &TcpStream) {
        // Accepted sockets may inherit the listener's non-blocking flag;
        // handlers read with a timeout instead.
        let _ = stream.set_nonblocking(false);
        // A peer that stalls mid-request should not pin a handler
        // forever.
        let _ = stream.set_read_timeout(Some(self.read_timeout));
        // Each response leaves in one write; nodelay keeps Nagle from
        // ever holding one back for a delayed ACK.
        let _ = stream.set_nodelay(true);
    }
}

/// The raw `poll(2)` binding — libc is already linked by `std`, the
/// same trick `install_signal_handlers` uses for `signal`.
#[cfg(all(unix, not(target_os = "linux")))]
mod poll_ffi {
    use std::io;

    type NfdsT = std::os::raw::c_uint;

    /// `struct pollfd` — identical layout on every supported Unix.
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    /// `POLLIN` — 0x001 on Linux, the BSDs and macOS alike.
    pub const POLLIN: i16 = 0x001;

    impl PollFd {
        pub fn readable(fd: i32) -> PollFd {
            PollFd { fd, events: POLLIN, revents: 0 }
        }
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }

    /// Waits for readiness on `fds`, retrying on `EINTR`. `revents` is
    /// filled in place; any non-zero value (readable, hung up, error)
    /// means the fd deserves attention.
    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// Minimal `epoll` FFI — libc is already linked by `std`, the same
/// trick `poll_ffi` and `install_signal_handlers` use.
#[cfg(target_os = "linux")]
mod epoll_ffi {
    use std::io;

    /// `struct epoll_event`; packed on x86-64 (kernel ABI quirk),
    /// naturally aligned everywhere else.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct Event {
        events: u32,
        data: u64,
    }

    impl Event {
        pub fn zeroed() -> Event {
            Event { events: 0, data: 0 }
        }

        /// The fd this event fired for (we store fds in `data`).
        pub fn fd(&self) -> i32 {
            self.data as i32
        }
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLLIN: u32 = 0x001;
    const EPOLLONESHOT: u32 = 1 << 30;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
        fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// An owned epoll instance: level-triggered, readable-interest
    /// only. `epoll_ctl` is thread-safe, which is the whole point —
    /// handler threads re-arm finished sockets without waking the
    /// readiness loop.
    pub struct Epoll {
        epfd: i32,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { epfd })
        }

        pub fn add(&self, fd: i32) -> io::Result<()> {
            let mut event = Event { events: EPOLLIN, data: fd as u32 as u64 };
            self.ctl(EPOLL_CTL_ADD, fd, &mut event)
        }

        /// Registers `fd` for one readable wakeup delivered to exactly
        /// one waiter — how parked keep-alive sockets are shared by the
        /// whole handler pool without double dispatch.
        pub fn add_oneshot(&self, fd: i32) -> io::Result<()> {
            let mut event = Event { events: EPOLLIN | EPOLLONESHOT, data: fd as u32 as u64 };
            self.ctl(EPOLL_CTL_ADD, fd, &mut event)
        }

        pub fn del(&self, fd: i32) -> io::Result<()> {
            // DEL ignores the event argument but pre-2.6.9 kernels
            // required it non-null.
            let mut event = Event::zeroed();
            self.ctl(EPOLL_CTL_DEL, fd, &mut event)
        }

        fn ctl(&self, op: i32, fd: i32, event: *mut Event) -> io::Result<()> {
            if unsafe { epoll_ctl(self.epfd, op, fd, event) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Waits for ready fds, retrying on `EINTR`.
        pub fn wait(&self, events: &mut [Event], timeout_ms: i32) -> io::Result<usize> {
            loop {
                let rc = unsafe {
                    epoll_wait(self.epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
                };
                if rc >= 0 {
                    return Ok(rc as usize);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }
}

/// The parked-socket table at the heart of the Linux serving path: a
/// shared oneshot epoll set plus the owned sockets it watches. The
/// accept loop parks fresh connections, handlers wait on the set and
/// claim what turns readable, and a finished handler re-parks the
/// socket — one `epoll_ctl` each way, no dispatch thread in between.
#[cfg(target_os = "linux")]
struct IdleTable {
    ep: epoll_ffi::Epoll,
    idle: Mutex<std::collections::HashMap<i32, IdleConn>>,
}

#[cfg(target_os = "linux")]
impl IdleTable {
    fn new() -> std::io::Result<IdleTable> {
        Ok(IdleTable {
            ep: epoll_ffi::Epoll::new()?,
            idle: Mutex::new(std::collections::HashMap::new()),
        })
    }

    /// Parks a socket: the table owns it and the epoll set watches it.
    /// Returns false — dropping the socket — if the kernel refuses.
    fn park(&self, conn: Conn) -> bool {
        use std::os::fd::AsRawFd;
        let fd = conn.stream.as_raw_fd();
        let mut idle = self.idle.lock().expect("idle table poisoned");
        idle.insert(
            fd,
            IdleConn { stream: conn.stream, served: conn.served, last: Instant::now() },
        );
        if self.ep.add_oneshot(fd).is_err() {
            idle.remove(&fd);
            return false;
        }
        true
    }

    /// Claims a readable socket for a handler. `None` when a stale
    /// event races a socket the reaper already closed.
    fn take(&self, fd: i32) -> Option<Conn> {
        let conn = self.idle.lock().expect("idle table poisoned").remove(&fd)?;
        let _ = self.ep.del(fd);
        Some(conn.into_job())
    }

    /// Closes every socket parked longer than `timeout`; returns how
    /// many were reaped.
    fn reap(&self, timeout: Duration) -> usize {
        let now = Instant::now();
        let mut idle = self.idle.lock().expect("idle table poisoned");
        let before = idle.len();
        idle.retain(|fd, conn| {
            if now.duration_since(conn.last) > timeout {
                let _ = self.ep.del(*fd);
                false
            } else {
                true
            }
        });
        before - idle.len()
    }

    /// Closes everything still parked; returns how many there were.
    fn drain(&self) -> usize {
        let mut idle = self.idle.lock().expect("idle table poisoned");
        let drained = idle.len();
        for (fd, _conn) in idle.drain() {
            let _ = self.ep.del(fd);
        }
        drained
    }
}

/// Process-wide stop flag used by [`install_signal_handlers`].
static SIGNAL_STOP: AtomicBool = AtomicBool::new(false);

/// The stop flag [`install_signal_handlers`] trips — pass it to
/// [`Server::run`] for a daemon that shuts down cleanly on SIGTERM.
pub fn signal_stop_flag() -> &'static AtomicBool {
    &SIGNAL_STOP
}

/// Installs SIGTERM/SIGINT handlers that trip [`signal_stop_flag`]
/// (no-op off Unix). Both `rempd` and `rempctl serve` use this.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn request_stop(_signum: i32) {
        SIGNAL_STOP.store(true, Ordering::SeqCst);
    }
    // libc is already linked by std; SIGTERM = 15, SIGINT = 2 on every
    // Unix this builds for.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(15, request_stop);
        signal(2, request_stop);
    }
}

/// No-op off Unix.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

/// `Content-Type` of the Prometheus text exposition format `/metrics`
/// answers with.
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// The serving-layer instruments, registered once at bind.
#[derive(Clone)]
struct ServeStats {
    open: Arc<AtomicI64>,
    connections_open: remp_obs::Gauge,
    keepalive_reuse: remp_obs::Counter,
    longpoll_waiters: remp_obs::Gauge,
    /// Dispatcher wake-ups, one counter per [`WAKE_REASONS`] label.
    dispatcher_wakeups: [remp_obs::Counter; 4],
}

/// The `reason` labels of `remp_longpoll_dispatcher_wakeups_total`: one
/// per [`WakeReason`], in declaration order, then `timeout` for a wait
/// that ended on its deadline or the tick.
const WAKE_REASONS: [&str; 4] = ["park", "event", "shutdown", "timeout"];

impl ServeStats {
    fn new() -> ServeStats {
        let reg = remp_obs::global();
        ServeStats {
            open: Arc::new(AtomicI64::new(0)),
            connections_open: reg.gauge(
                remp_obs::names::HTTP_CONNECTIONS_OPEN,
                "Open HTTP connections (accepted and not yet closed).",
                &[],
            ),
            keepalive_reuse: reg.counter(
                remp_obs::names::HTTP_KEEPALIVE_REUSE_TOTAL,
                "Requests served on an already-used keep-alive connection.",
                &[],
            ),
            longpoll_waiters: reg.gauge(
                remp_obs::names::LONGPOLL_WAITERS,
                "Long-poll /next requests currently parked server-side.",
                &[],
            ),
            dispatcher_wakeups: WAKE_REASONS.map(|reason| {
                reg.counter(
                    remp_obs::names::LONGPOLL_DISPATCHER_WAKEUPS_TOTAL,
                    "Long-poll dispatcher wake-ups, by reason.",
                    &[("reason", reason)],
                )
            }),
        }
    }

    fn conn_opened(&self) {
        let n = self.open.fetch_add(1, Ordering::SeqCst) + 1;
        self.connections_open.set(n as f64);
    }

    fn conn_closed(&self) {
        let n = self.open.fetch_sub(1, Ordering::SeqCst) - 1;
        self.connections_open.set(n.max(0) as f64);
    }

    fn open_count(&self) -> usize {
        self.open.load(Ordering::SeqCst).max(0) as usize
    }

    fn waiters_set(&self, n: usize) {
        self.longpoll_waiters.set(n as f64);
    }

    fn dispatcher_woke(&self, reason: Option<WakeReason>) {
        self.dispatcher_wakeups[reason.map_or(3, |r| r as usize)].inc();
    }
}

/// A socket plus how many requests it has served (for the keep-alive
/// reuse counter).
struct Conn {
    stream: TcpStream,
    served: u64,
}

/// An idle keep-alive socket owned by the readiness loop.
#[cfg(unix)]
struct IdleConn {
    stream: TcpStream,
    served: u64,
    last: Instant,
}

#[cfg(unix)]
impl IdleConn {
    fn into_job(self) -> Conn {
        Conn { stream: self.stream, served: self.served }
    }
}

#[cfg(not(target_os = "linux"))]
type JobQueue = Arc<(Mutex<VecDeque<Conn>>, Condvar)>;
type ConnSink = Arc<dyn Fn(Conn) + Send + Sync>;

/// What a handler decided to do with the socket when it finished.
enum Disposition {
    /// Closed (by request, error, or protocol).
    Close,
    /// Healthy keep-alive socket, ready for the next request.
    KeepAlive(Conn),
    /// Handed to the long-poll dispatcher; the response is still owed.
    Parked,
}

/// The Linux handler loop: wait on the shared oneshot epoll set — a
/// readable parked socket wakes exactly one handler, which claims it
/// from the table, serves it, and re-arms it via the sink. No dispatch
/// thread, no queue: the hot path is epoll_wait → read → respond →
/// epoll_ctl.
#[cfg(target_os = "linux")]
fn handler_worker(
    table: &IdleTable,
    done: &AtomicBool,
    registry: &Registry,
    dispatcher: &Dispatcher,
    stats: &ServeStats,
    sink: &ConnSink,
    max_wait_ms: u64,
) {
    let mut events = [epoll_ffi::Event::zeroed(); 16];
    while !done.load(Ordering::SeqCst) {
        // 50 ms bounds stop-flag latency; ready sockets return at once.
        let Ok(ready) = table.ep.wait(&mut events, 50) else {
            return;
        };
        for event in &events[..ready] {
            // A stale event can race a socket the reaper already took.
            let Some(conn) = table.take(event.fd()) else {
                continue;
            };
            match service_conn(conn, registry, dispatcher, stats, max_wait_ms) {
                Disposition::Close => stats.conn_closed(),
                Disposition::KeepAlive(conn) => sink(conn),
                Disposition::Parked => {}
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn handler_worker(
    queue: &JobQueue,
    done: &AtomicBool,
    registry: &Registry,
    dispatcher: &Dispatcher,
    stats: &ServeStats,
    sink: &ConnSink,
    max_wait_ms: u64,
) {
    let (lock, cvar) = &**queue;
    loop {
        let conn = {
            let mut q = lock.lock().expect("queue poisoned");
            loop {
                if let Some(conn) = q.pop_front() {
                    break Some(conn);
                }
                if done.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _timeout) =
                    cvar.wait_timeout(q, Duration::from_millis(100)).expect("queue poisoned");
                q = guard;
            }
        };
        let Some(conn) = conn else {
            return;
        };
        match service_conn(conn, registry, dispatcher, stats, max_wait_ms) {
            Disposition::Close => stats.conn_closed(),
            Disposition::KeepAlive(conn) => sink(conn),
            Disposition::Parked => {}
        }
    }
}

/// Serves requests from one readable socket: at least one, plus any
/// already pipelined behind it, then yields the socket back.
fn service_conn(
    conn: Conn,
    registry: &Registry,
    dispatcher: &Dispatcher,
    stats: &ServeStats,
    max_wait_ms: u64,
) -> Disposition {
    let Conn { stream, mut served } = conn;
    // Both halves borrow the one socket: no per-request `dup`.
    let mut reader = BufReader::new(&stream);
    let mut writer = &stream;
    loop {
        let started = Instant::now();
        let request = match read_request(&mut reader) {
            Ok(None) => return Disposition::Close, // peer left between requests
            Ok(Some(request)) => request,
            Err(e) => {
                let status = match e {
                    HttpError::TooLarge(_) => 413,
                    _ => 400,
                };
                let err = ServeError { status, code: "bad_request", message: e.to_string() };
                let _ = write_response(&mut writer, status, &err.to_json().to_string(), false);
                record_request("", "malformed", status, None, started);
                return Disposition::Close;
            }
        };
        if served > 0 {
            stats.keepalive_reuse.inc();
        }
        served += 1;
        let keep = !request.close;
        let method = request.method.clone();
        let label = router::route_label(&request.path);
        let campaign = router::campaign_in_path(&request.path).map(str::to_owned);
        let pretty = request.wants_pretty();

        let written = match router::resolve(&request.method, &request.path) {
            Resolution::Matched { route, params } => match route.action {
                Action::Metrics => {
                    // Text, not JSON — rendered here so the JSON writer
                    // never touches it. Scrape time is the natural
                    // checkpoint for process-level gauges.
                    remp_obs::sample_peak_rss();
                    let text = remp_obs::global().render();
                    let ok =
                        write_response_typed(&mut writer, 200, METRICS_CONTENT_TYPE, &text, keep)
                            .is_ok();
                    record_request(&method, label, 200, None, started);
                    ok
                }
                Action::Json(handler) | Action::LongPoll(handler) => {
                    let campaign_id = params.first().map(|&p| p.to_owned());
                    let wait_ms = request
                        .query_value("wait_ms")
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(0)
                        .min(max_wait_ms);
                    let worker =
                        request.query_value("worker").map(str::to_owned).unwrap_or_default();
                    let ctx = Ctx {
                        request: &request,
                        params,
                        registry,
                        connections_open: stats.open_count(),
                    };
                    let result = handler(&ctx);
                    // Nothing assignable and the caller offered to wait:
                    // park the socket on the dispatcher instead of
                    // answering (never with pipelined bytes pending —
                    // responses must stay in request order).
                    if matches!(route.action, Action::LongPoll(_))
                        && wait_ms > 0
                        && reader.buffer().is_empty()
                    {
                        if let Ok((200, doc)) = &result {
                            if assignment_is_pending(doc) {
                                dispatcher.park(
                                    Waiter {
                                        stream,
                                        served,
                                        campaign: campaign_id.unwrap_or_default(),
                                        worker,
                                        pretty,
                                        keep,
                                        deadline: started + Duration::from_millis(wait_ms),
                                        started,
                                    },
                                    stats,
                                );
                                return Disposition::Parked;
                            }
                        }
                    }
                    let (status, doc) = match result {
                        Ok((status, doc)) => (status, doc),
                        Err(e) => (e.status, e.to_json()),
                    };
                    let body = if pretty { doc.to_pretty_string() } else { doc.to_string() };
                    let ok = write_response(&mut writer, status, &body, keep).is_ok();
                    record_request(&method, label, status, campaign.as_deref(), started);
                    ok
                }
            },
            Resolution::NotFound => {
                let err = ServeError::not_found(
                    "unknown_route",
                    format!("no route for {}", request.path),
                );
                let doc = err.to_json();
                let body = if pretty { doc.to_pretty_string() } else { doc.to_string() };
                let ok = write_response(&mut writer, err.status, &body, keep).is_ok();
                record_request(&method, label, err.status, campaign.as_deref(), started);
                ok
            }
            Resolution::MethodNotAllowed => {
                let err = ServeError {
                    status: 405,
                    code: "method_not_allowed",
                    message: format!("method {method} is not supported"),
                };
                let doc = err.to_json();
                let body = if pretty { doc.to_pretty_string() } else { doc.to_string() };
                let ok = write_response(&mut writer, err.status, &body, keep).is_ok();
                record_request(&method, label, err.status, campaign.as_deref(), started);
                ok
            }
        };
        if !written || !keep {
            return Disposition::Close;
        }
        if reader.buffer().is_empty() {
            return Disposition::KeepAlive(Conn { stream, served });
        }
        // Pipelined request already buffered: serve it now, in order.
    }
}

/// `assignment` is null and the campaign is not complete — the long-poll
/// "keep waiting" shape of a `/next` response.
fn assignment_is_pending(doc: &Json) -> bool {
    matches!(doc.get("assignment"), Some(Json::Null))
        && doc.get("complete").and_then(Json::as_bool) == Some(false)
}

/// A parked long-poll: the socket still owes its `/next` response.
struct Waiter {
    stream: TcpStream,
    served: u64,
    campaign: String,
    worker: String,
    pretty: bool,
    keep: bool,
    deadline: Instant,
    started: Instant,
}

/// The long-poll dispatcher state: parked waiters plus the stop flag
/// the server trips during shutdown.
struct Dispatcher {
    queue: Mutex<Vec<Waiter>>,
    notifier: Arc<CampaignNotifier>,
    stop: AtomicBool,
}

impl Dispatcher {
    fn new(notifier: Arc<CampaignNotifier>) -> Dispatcher {
        Dispatcher { queue: Mutex::new(Vec::new()), notifier, stop: AtomicBool::new(false) }
    }

    fn park(&self, waiter: Waiter, stats: &ServeStats) {
        // Counted before the waiter is visible, and uncounted only once
        // it is answered: campaign events wake the dispatcher while any
        // waiter is anywhere between the two.
        self.notifier.waiter_parked();
        let count = {
            let mut q = self.queue.lock().expect("longpoll queue poisoned");
            q.push(waiter);
            q.len()
        };
        stats.waiters_set(count);
        // Always wake the dispatcher: it re-polls the new waiter (an
        // answer may have landed after the handler's `/next` but before
        // the waiter was counted) and its deadline bounds the next wait.
        self.notifier.notify(WakeReason::Park);
    }
}

/// The dispatcher thread: wakes when a waiter parks, on campaign events
/// while waiters are parked (accepted answers, pause/resume — the
/// actors bump the notifier), at shutdown, or on a ≤100 ms tick (lease
/// expiry is lazy, someone must ask). It re-polls every parked worker
/// and answers those with an assignment, a terminal condition or an
/// expired wait.
fn dispatcher_loop(
    dispatcher: &Dispatcher,
    registry: &Registry,
    stats: &ServeStats,
    sink: &ConnSink,
) {
    let mut seen = dispatcher.notifier.epoch();
    loop {
        let stopping = dispatcher.stop.load(Ordering::SeqCst);
        let waiters: Vec<Waiter> = {
            let mut q = dispatcher.queue.lock().expect("longpoll queue poisoned");
            q.drain(..).collect()
        };
        let mut still = Vec::new();
        for waiter in waiters {
            let now_ms = registry.now_ms();
            let result = registry.call(
                &waiter.campaign,
                CampaignRequest::Next { worker: waiter.worker.clone(), now_ms },
            );
            let resolved = match &result {
                Ok(doc) => !assignment_is_pending(doc),
                Err(_) => true, // paused, finished campaign, &c: the client should see it
            };
            if resolved || stopping || Instant::now() >= waiter.deadline {
                respond_waiter(waiter, result, stats, sink);
                dispatcher.notifier.waiter_released();
            } else {
                still.push(waiter);
            }
        }
        let (count, earliest) = {
            let mut q = dispatcher.queue.lock().expect("longpoll queue poisoned");
            // New arrivals may have parked during the pass; keep order.
            still.append(&mut q);
            *q = still;
            (q.len(), q.iter().map(|w| w.deadline).min())
        };
        stats.waiters_set(count);
        if stopping {
            if count == 0 {
                return;
            }
            continue; // answer the late arrivals on the next pass
        }
        let tick = Duration::from_millis(100);
        let timeout = match earliest {
            Some(deadline) => deadline
                .saturating_duration_since(Instant::now())
                .min(tick)
                .max(Duration::from_millis(1)),
            None => tick,
        };
        let wake = dispatcher.notifier.wait_past(seen, timeout);
        stats.dispatcher_woke(wake.reason);
        seen = wake.epoch;
    }
}

/// Writes the response a parked long-poll was owed and routes the
/// socket onward (back to the readiness loop, or closed).
fn respond_waiter(
    waiter: Waiter,
    result: Result<Json, ServeError>,
    stats: &ServeStats,
    sink: &ConnSink,
) {
    let Waiter { mut stream, served, campaign, pretty, keep, started, .. } = waiter;
    let (status, doc) = match result {
        Ok(doc) => (200, doc),
        Err(e) => (e.status, e.to_json()),
    };
    let body = if pretty { doc.to_pretty_string() } else { doc.to_string() };
    let written = write_response(&mut stream, status, &body, keep).is_ok();
    record_request("GET", "/campaigns/{id}/next", status, Some(&campaign), started);
    if written && keep {
        sink(Conn { stream, served });
    } else {
        stats.conn_closed();
    }
}

/// Feeds one finished request into the metrics registry and the access
/// log: `remp_http_requests_total{method,route,status}`, the
/// `remp_http_request_seconds{route}` latency histogram, and a
/// debug-level event per request (visible on stderr with
/// `REMP_LOG=debug`, never crowding the event ring).
fn record_request(
    method: &str,
    route: &'static str,
    status: u16,
    campaign: Option<&str>,
    started: Instant,
) {
    if !remp_obs::enabled() {
        return;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let reg = remp_obs::global();
    let status_str = status.to_string();
    reg.counter(
        remp_obs::names::HTTP_REQUESTS_TOTAL,
        "HTTP requests served, by method, route template and status.",
        &[("method", method), ("route", route), ("status", &status_str)],
    )
    .inc();
    reg.histogram(
        remp_obs::names::HTTP_REQUEST_SECONDS,
        "HTTP request latency in seconds, by route template.",
        &[("route", route)],
        remp_obs::SECONDS_BUCKETS,
    )
    .observe(elapsed);
    remp_obs::event(remp_obs::Level::Debug, "http", campaign, || {
        (
            format!("{method} {route} -> {status}"),
            vec![
                ("method", Json::from(method)),
                ("route", Json::from(route)),
                ("status", Json::from(u64::from(status))),
                ("seconds", Json::from(elapsed)),
            ],
        )
    });
}
