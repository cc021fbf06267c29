//! The `rempd` HTTP server: an epoll-driven keep-alive engine feeding
//! a fixed handler pool (sized by [`Parallelism`]), routing onto the
//! campaign [`Registry`] through the declarative [`crate::router`]
//! table.
//!
//! Connections are HTTP/1.1 keep-alive by default and live in three
//! places, never more than one at a time:
//!
//! * **parked** — idle sockets wait in a shared level-triggered
//!   `EPOLLONESHOT` set that the handler threads `epoll_wait` on
//!   directly: a readable socket wakes exactly one handler, with no
//!   dispatch thread on the hot path. A silent client costs one fd,
//!   never a handler thread, and sockets idle beyond
//!   [`ServerConfig::keepalive_timeout`] are reaped.
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

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
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
        extern "C" {
            fn listen(fd: i32, backlog: i32) -> i32;
        }
        let backlog = i32::try_from(config.max_connections).unwrap_or(i32::MAX).max(128);
        // SAFETY: `listen` takes no pointers; the fd is the live listener
        // socket this function owns.
        let _ = unsafe { listen(listener.as_raw_fd(), backlog) };
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
        let done = Arc::new(AtomicBool::new(false));
        let dispatcher = Arc::new(Dispatcher::new(self.registry.notifier()));
        let table = Arc::new(
            IdleTable::new(self.stats.clone())
                .map_err(|e| ServeError::internal("spawn", format!("epoll: {e}")))?,
        );

        let mut workers = Vec::with_capacity(self.pool_size);
        for i in 0..self.pool_size {
            let table = Arc::clone(&table);
            let done = Arc::clone(&done);
            let registry = Arc::clone(&self.registry);
            let dispatcher = Arc::clone(&dispatcher);
            let max_wait_ms = self.max_wait_ms;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("rempd-handler-{i}"))
                    .spawn(move || {
                        handler_worker(&table, &done, &registry, &dispatcher, max_wait_ms)
                    })
                    .map_err(|e| ServeError::internal("spawn", e.to_string()))?,
            );
        }
        let dispatcher_join = {
            let dispatcher = Arc::clone(&dispatcher);
            let registry = Arc::clone(&self.registry);
            let table = Arc::clone(&table);
            std::thread::Builder::new()
                .name("rempd-longpoll".into())
                .spawn(move || dispatcher_loop(&dispatcher, &registry, &table))
                .map_err(|e| ServeError::internal("spawn", e.to_string()))?
        };

        let loop_result = self.accept_loop(stop, &table);

        // Graceful drain: no new connections, finish the in-flight ones,
        // answer the parked long-polls, then persist and stop every
        // campaign.
        done.store(true, Ordering::SeqCst);
        for worker in workers {
            let _ = worker.join();
        }
        dispatcher.stop.store(true, Ordering::SeqCst);
        self.registry.notifier().notify(WakeReason::Shutdown);
        let _ = dispatcher_join.join();
        // Handlers may have parked sockets after the loop exited; close
        // the stragglers with the books balanced.
        table.drain();
        loop_result?;
        self.registry.shutdown()
    }

    /// The accept-and-reap loop. The hot path does not pass through
    /// here at all: handlers `epoll_wait` on the shared [`IdleTable`]
    /// oneshot set directly, so a readable socket wakes exactly one
    /// handler, and a finished handler re-arms the socket with one
    /// `epoll_ctl`. This thread only accepts new connections (parking
    /// them into the idle set — only a *readable* socket may cost a
    /// handler thread) and reaps sockets idle past the keep-alive
    /// timeout.
    fn accept_loop(&self, stop: &AtomicBool, table: &IdleTable) -> Result<(), ServeError> {
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
                            table.park(Conn { stream, served: 0 });
                            // The rest of a burst waits in the backlog
                            // until a socket closes.
                            if self.stats.open_count() >= self.max_connections {
                                break;
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
                table.reap(self.keepalive_timeout);
                next_reap = now + reap_tick;
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

/// Minimal `epoll` FFI — libc is already linked by `std`, the same
/// trick [`Server::bind`] uses for `listen`.
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

/// The parked-socket table at the heart of the serving path: a shared
/// oneshot epoll set plus the owned sockets it watches, each with the
/// instant it was parked. The accept loop parks fresh connections,
/// handlers wait on the set and claim what turns readable, and a
/// finished handler re-parks the socket — one `epoll_ctl` each way, no
/// dispatch thread in between. Every socket the table drops is counted
/// closed.
struct IdleTable {
    ep: epoll_ffi::Epoll,
    idle: Mutex<HashMap<i32, (Conn, Instant)>>,
    stats: ServeStats,
}

impl IdleTable {
    fn new(stats: ServeStats) -> std::io::Result<IdleTable> {
        Ok(IdleTable { ep: epoll_ffi::Epoll::new()?, idle: Mutex::new(HashMap::new()), stats })
    }

    /// Parks a socket: the table owns it and the epoll set watches it.
    /// If the kernel refuses, the socket is dropped and counted closed.
    fn park(&self, conn: Conn) {
        let fd = conn.stream.as_raw_fd();
        let mut idle = self.idle.lock().expect("idle table poisoned");
        idle.insert(fd, (conn, Instant::now()));
        if self.ep.add_oneshot(fd).is_err() {
            idle.remove(&fd);
            self.stats.conn_closed();
        }
    }

    /// Claims a readable socket for a handler. `None` when a stale
    /// event races a socket the reaper already closed.
    fn take(&self, fd: i32) -> Option<Conn> {
        let (conn, _parked) = self.idle.lock().expect("idle table poisoned").remove(&fd)?;
        let _ = self.ep.del(fd);
        Some(conn)
    }

    /// Closes every socket parked longer than `timeout`.
    fn reap(&self, timeout: Duration) {
        let now = Instant::now();
        self.idle.lock().expect("idle table poisoned").retain(|fd, (_conn, parked)| {
            if now.duration_since(*parked) > timeout {
                let _ = self.ep.del(*fd);
                self.stats.conn_closed();
                false
            } else {
                true
            }
        });
    }

    /// Closes everything still parked.
    fn drain(&self) {
        for (fd, _conn) in self.idle.lock().expect("idle table poisoned").drain() {
            let _ = self.ep.del(fd);
            self.stats.conn_closed();
        }
    }
}

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

/// What a handler decided to do with the socket when it finished.
enum Disposition {
    /// Closed (by request, error, or protocol).
    Close,
    /// Healthy keep-alive socket, ready for the next request.
    KeepAlive(Conn),
    /// Handed to the long-poll dispatcher; the response is still owed.
    Parked,
}

/// A handler thread: wait on the shared oneshot epoll set — a readable
/// parked socket wakes exactly one handler, which claims it from the
/// table, serves it, and re-parks it. No dispatch thread, no queue: the
/// hot path is epoll_wait → read → respond → epoll_ctl.
fn handler_worker(
    table: &IdleTable,
    done: &AtomicBool,
    registry: &Registry,
    dispatcher: &Dispatcher,
    max_wait_ms: u64,
) {
    // One socket per wake-up: a ready socket this handler has not yet
    // claimed stays in the set for the next free handler, so a client
    // that stalls mid-request holds only its own socket.
    let mut events = [epoll_ffi::Event::zeroed(); 1];
    while !done.load(Ordering::SeqCst) {
        // 50 ms bounds stop-flag latency; ready sockets return at once.
        let Ok(ready) = table.ep.wait(&mut events, 50) else {
            return;
        };
        if ready == 0 {
            continue;
        }
        // A stale event can race a socket the reaper already took.
        let Some(conn) = table.take(events[0].fd()) else {
            continue;
        };
        match service_conn(conn, registry, dispatcher, &table.stats, max_wait_ms) {
            Disposition::Close => table.stats.conn_closed(),
            Disposition::KeepAlive(conn) => table.park(conn),
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
                write_json(&mut writer, Err(err), false, false);
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

        let (status, written) = match router::resolve(&request.method, &request.path) {
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
                    (200, ok)
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
                    write_json(&mut writer, result, pretty, keep)
                }
            },
            Resolution::NotFound => {
                let err = ServeError::not_found(
                    "unknown_route",
                    format!("no route for {}", request.path),
                );
                write_json(&mut writer, Err(err), pretty, keep)
            }
            Resolution::MethodNotAllowed => {
                let message = format!("method {method} is not supported");
                let err = ServeError { status: 405, code: "method_not_allowed", message };
                write_json(&mut writer, Err(err), pretty, keep)
            }
        };
        record_request(&method, label, status, campaign.as_deref(), started);
        if !written || !keep {
            return Disposition::Close;
        }
        if reader.buffer().is_empty() {
            return Disposition::KeepAlive(Conn { stream, served });
        }
        // Pipelined request already buffered: serve it now, in order.
    }
}

/// Encodes a handler's result (or its error) as a JSON response and
/// writes it in one message. Returns the status sent and whether the
/// write succeeded.
fn write_json(
    writer: &mut impl std::io::Write,
    result: Result<(u16, Json), ServeError>,
    pretty: bool,
    keep: bool,
) -> (u16, bool) {
    let (status, doc) = result.unwrap_or_else(|e| (e.status, e.to_json()));
    let body = if pretty { doc.to_pretty_string() } else { doc.to_string() };
    (status, write_response(writer, status, &body, keep).is_ok())
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
fn dispatcher_loop(dispatcher: &Dispatcher, registry: &Registry, table: &IdleTable) {
    let stats = &table.stats;
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
                respond_waiter(waiter, result, table);
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
/// socket onward (re-parked in the idle table, or closed).
fn respond_waiter(waiter: Waiter, result: Result<Json, ServeError>, table: &IdleTable) {
    let Waiter { mut stream, served, campaign, pretty, keep, started, .. } = waiter;
    let (status, written) = write_json(&mut stream, result.map(|doc| (200, doc)), pretty, keep);
    record_request("GET", "/campaigns/{id}/next", status, Some(&campaign), started);
    if written && keep {
        table.park(Conn { stream, served });
    } else {
        table.stats.conn_closed();
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
