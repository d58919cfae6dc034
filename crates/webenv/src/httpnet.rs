//! A real-socket [`Transport`] backend: loopback TCP + HTTP/1.1.
//!
//! `HttpTransport` serves the same [`WebApp`] handlers that run on
//! [`SimNet`](crate::net::SimNet), but over actual sockets. The wire
//! format is owned by the canonical [`codec`](crate::codec) module
//! (DESIGN.md §14); this module is the fast path that moves those bytes
//! (DESIGN.md §15):
//!
//! * **Server**: every registered authority gets its own `127.0.0.1:0`
//!   listener with one blocking accept thread, and every accepted
//!   connection gets one blocking thread of its own. The connection
//!   thread reads, serves every complete request already in its buffer
//!   back-to-back, and sends all of their responses in one write, so a
//!   pipelining client is woken once per batch instead of once per
//!   response. An idle connection's thread waits in the kernel on its
//!   `read`, so the next request wakes exactly the thread that serves it.
//! * **Client**: one persistent connection per `(thread, transport,
//!   authority)`, found by a linear scan of a thread-local vector (no
//!   locks, no hashing, no allocation on the warm path), with the read
//!   timeout applied only when it changes. Requests serialize into a
//!   reused thread-local buffer; responses parse out of a reused read
//!   buffer via the codec's borrowed-slice head parser.
//! * **Pipelining**: [`Transport::dispatch_pipelined`] groups a batch by
//!   authority and writes each group's requests as one buffered block on
//!   the persistent connection, then reads the N responses back. Message
//!   accounting and trace events are committed per request, in input
//!   order, exactly as N sequential dispatches would have — batching is
//!   invisible to everything but the wall clock.
//!
//! No external HTTP stack, no async runtime, no new dependencies.
//!
//! # Failure classification
//!
//! The transport maps socket-level failures onto the same
//! `x-error-kind` taxonomy the simulated fabric uses:
//!
//! * connection refused, connection reset, malformed frames, or any
//!   other immediate I/O failure → `503` + [`TransportError::Unreachable`];
//! * a read timeout waiting for the response (hung server) → `503` +
//!   [`TransportError::Timeout`].
//!
//! The server side fails closed: a connection that sends an oversized,
//! malformed, or unparseable message is dropped on the floor, which the
//! client observes (and classifies) as a reset. A connection thread
//! never panics, and a peer that goes quiet mid-message or stops
//! reading is dropped after five seconds.
//!
//! [`kill_listener`](HttpTransport::kill_listener) and
//! [`set_stall`](HttpTransport::set_stall) exist so tests can produce
//! the two failure kinds deliberately (a dead authority and a hung one)
//! and prove the resilience layer behaves identically over both
//! backends.
//!
//! # What stays deterministic, and what does not
//!
//! Protocol outcomes (decisions, status sequences, epoch visibility,
//! sieve installs) and exact message counts — including the codec-exact
//! `bytes_on_wire` cell — are identical to `SimNet` for failure-free
//! runs; the conformance suite diffs them. Wall-clock timing, thread
//! interleavings and therefore req/s are **not** deterministic; the
//! shared [`SimClock`] is never advanced by this transport, so
//! virtual-time behaviour (token lifetimes, grace windows) stays
//! harness-driven exactly as on `SimNet`.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::clock::SimClock;
use crate::codec;
use crate::http::{Request, Response, Status, TransportError};
use crate::net::{message_bytes, summarize_params, NetStats, WebApp};
use crate::trace::{TraceKind, TraceRecorder};
use crate::transport::Transport;

pub use crate::codec::MAX_MESSAGE_BYTES;

/// How long the client waits for a TCP connect to complete.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Cadence of the stall-hold loop, and the accept thread's back-off
/// after a failed `accept`.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Server-side patience for the *rest* of a message once its first byte
/// has arrived (loopback peers send whole messages at once), and for a
/// back-pressured response write to drain.
const SERVER_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Most connections a single listener will serve concurrently. Client
/// connections are persistent and bounded by `threads x authorities`,
/// so this is a misbehaving-peer backstop, not a tuning knob.
const MAX_CONNS_PER_LISTENER: usize = 256;

/// Read granularity for both halves; large enough that every protocol
/// message (epoch sieve pushes aside) arrives in one read.
const READ_CHUNK: usize = 16 * 1024;

/// Most persistent connections one client thread keeps before the cache
/// is reset (a backstop for pathological authority churn).
const CONN_CACHE_CAP: usize = 64;

/// Number of stat shards. A power of two so a thread's slot is a mask.
const STAT_SHARDS: usize = 16;

/// Source of unique transport ids for the per-thread connection cache.
static NEXT_HTTP_ID: AtomicU64 = AtomicU64::new(1);
/// Round-robin source of per-thread stat-shard slots.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

// ---------------------------------------------------------------------------
// Client state (thread-local; no locks on the warm path)
// ---------------------------------------------------------------------------

/// One persistent client connection. The stream stays in blocking mode
/// with `SO_RCVTIMEO` applied lazily (`set_read_timeout` is a syscall;
/// the timeout rarely changes, so it is re-applied only when it does).
struct ClientConn {
    transport_id: u64,
    authority: String,
    stream: TcpStream,
    applied_timeout_ms: u64,
    /// Read-side reassembly buffer (response bytes accumulate here
    /// until a full message is parsed out and drained).
    buf: Vec<u8>,
}

/// Per-thread client scratch: the connection cache plus the reusable
/// encode/read buffers that make the steady state allocation-free.
struct ClientState {
    conns: Vec<ClientConn>,
    /// One encoded request (reused per dispatch).
    wire: Vec<u8>,
    /// A pipelined group's worth of encoded requests.
    batch: Vec<u8>,
    /// Fixed read chunk (boxed so the thread-local stays small).
    chunk: Box<[u8]>,
}

thread_local! {
    /// This thread's stat-shard slot (assigned on first dispatch).
    static SHARD_IDX: Cell<usize> = const { Cell::new(usize::MAX) };
    /// This thread's persistent connections and codec scratch buffers.
    static CLIENT: RefCell<ClientState> = RefCell::new(ClientState {
        conns: Vec::new(),
        wire: Vec::new(),
        batch: Vec::new(),
        chunk: vec![0u8; READ_CHUNK].into_boxed_slice(),
    });
}

fn shard_index() -> usize {
    SHARD_IDX.with(|slot| {
        let mut idx = slot.get();
        if idx == usize::MAX {
            idx = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (STAT_SHARDS - 1);
            slot.set(idx);
        }
        idx
    })
}

// ---------------------------------------------------------------------------
// Sharded statistics (same shape as SimNet's)
// ---------------------------------------------------------------------------

/// One cell of the sharded statistics. Threads are assigned a shard
/// round-robin on first dispatch, so under up to [`STAT_SHARDS`] threads
/// every cell — including its edge-map mutex — is effectively
/// thread-private and a dispatch commit never contends.
#[derive(Default)]
struct StatShard {
    round_trips: AtomicU64,
    payload_bytes: AtomicU64,
    bytes_on_wire: AtomicU64,
    /// Measured wall-clock dispatch time, in microseconds. Surfaced via
    /// [`NetStats::modelled_latency_ms`] — on this backend the
    /// "modelled" latency *is* the measured loopback latency. Committed
    /// *after* `round_trips` (Release) and read *before* it (Acquire),
    /// mirroring `SimNet`'s snapshot ordering.
    wall_us: AtomicU64,
    /// Two-level `from -> to -> count` map so the warm path can bump an
    /// existing edge with borrowed keys (no per-dispatch allocation).
    per_edge: Mutex<HashMap<String, HashMap<String, u64>>>,
}

impl StatShard {
    /// Increments the `(from, to)` edge counter, allocating owned keys
    /// only the first time an edge is seen.
    fn bump_edge(&self, from: &str, to: &str) {
        let mut per_edge = self.per_edge.lock();
        if let Some(inner) = per_edge.get_mut(from) {
            if let Some(count) = inner.get_mut(to) {
                *count += 1;
                return;
            }
            inner.insert(to.to_owned(), 1);
            return;
        }
        let mut inner = HashMap::new();
        inner.insert(to.to_owned(), 1);
        per_edge.insert(from.to_owned(), inner);
    }
}

// ---------------------------------------------------------------------------
// Routes and shutdown
// ---------------------------------------------------------------------------

/// One registered authority, shared by the routes table, its accept
/// thread and its connection threads.
struct Route {
    addr: SocketAddr,
    app: Arc<dyn WebApp>,
    inner: Weak<HttpInner>,
    /// When set, the accept thread exits (dropping the listener, so new
    /// connects are refused) and a stalled response is never sent.
    dead: AtomicBool,
    /// When set, connection threads hold every response until the flag
    /// clears — the client observes a read timeout.
    stall: AtomicBool,
    /// The kill list: live accepted connections by id. Each connection
    /// thread removes its own entry when it closes.
    conns: Mutex<HashMap<u64, LiveConn>>,
    /// Taken by the first shutdown.
    acceptor: Mutex<Option<JoinHandle<()>>>,
}

/// A kill-list entry: a handle to reset the connection, and its thread.
struct LiveConn {
    stream: TcpStream,
    thread: JoinHandle<()>,
}

impl Route {
    fn closed(&self) -> bool {
        self.dead.load(Ordering::Acquire) || self.inner.strong_count() == 0
    }

    /// Runs the handler for one request, holding the response while the
    /// listener is stalled. `None` once the listener is dead or the
    /// transport is gone.
    fn serve(&self, req: &Request) -> Option<Response> {
        while self.stall.load(Ordering::Acquire) {
            if self.closed() {
                return None;
            }
            std::thread::sleep(POLL_INTERVAL);
        }
        let transport = HttpTransport {
            inner: self.inner.upgrade()?,
        };
        Some(self.app.handle(&transport, req))
    }

    /// Marks the route dead, resets its live connections and joins its
    /// threads: once this returns, new connects are refused and none of
    /// the route's handlers is still running. Must be called with the
    /// routes lock released — a handler may need it to finish a nested
    /// dispatch.
    fn shutdown(&self) {
        self.dead.store(true, Ordering::Release);
        let live: Vec<LiveConn> = self.conns.lock().drain().map(|(_, conn)| conn).collect();
        for conn in &live {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        let acceptor = self.acceptor.lock().take();
        if let Some(acceptor) = acceptor {
            // The accept thread is blocked in `accept`; one throwaway
            // connect wakes it to see the flag.
            if TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT).is_ok() {
                let _ = acceptor.join();
            }
        }
        let me = std::thread::current().id();
        for LiveConn { thread, .. } in live {
            // A connection thread can itself drop the last transport
            // handle (its nested dispatch clone), running this teardown;
            // it must not join itself — it exits on its own right after.
            if thread.thread().id() != me {
                let _ = thread.join();
            }
        }
    }
}

struct HttpInner {
    id: u64,
    clock: SimClock,
    trace: TraceRecorder,
    routes: Mutex<HashMap<String, Arc<Route>>>,
    shards: [StatShard; STAT_SHARDS],
    /// How long the client waits for a response before classifying the
    /// authority as hung ([`TransportError::Timeout`]).
    client_timeout_ms: AtomicU64,
}

impl Drop for HttpInner {
    fn drop(&mut self) {
        for route in std::mem::take(self.routes.get_mut()).into_values() {
            route.shutdown();
        }
    }
}

/// The loopback-TCP transport. See the [module documentation](self).
///
/// Cloning is cheap and shares the listeners, clock, trace and stats —
/// connection threads clone it to serve nested dispatches.
#[derive(Clone)]
pub struct HttpTransport {
    inner: Arc<HttpInner>,
}

impl Default for HttpTransport {
    fn default() -> Self {
        HttpTransport::new()
    }
}

impl std::fmt::Debug for HttpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpTransport")
            .field(
                "authorities",
                &self.inner.routes.lock().keys().collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

impl HttpTransport {
    /// Creates an empty transport with a fresh clock and no listeners.
    #[must_use]
    pub fn new() -> Self {
        HttpTransport {
            inner: Arc::new(HttpInner {
                id: NEXT_HTTP_ID.fetch_add(1, Ordering::Relaxed),
                clock: SimClock::new(),
                trace: TraceRecorder::new(),
                routes: Mutex::new(HashMap::new()),
                shards: std::array::from_fn(|_| StatShard::default()),
                client_timeout_ms: AtomicU64::new(2000),
            }),
        }
    }

    /// Sets how long a dispatch waits for a response before giving up
    /// with [`TransportError::Timeout`]. Tests that hang a listener
    /// lower this so the failure is observed quickly.
    pub fn set_client_timeout_ms(&self, ms: u64) {
        self.inner
            .client_timeout_ms
            .store(ms.max(1), Ordering::Relaxed);
    }

    /// The socket address `authority`'s listener is bound to, if it is
    /// registered (and not killed).
    #[must_use]
    pub fn listener_addr(&self, authority: &str) -> Option<SocketAddr> {
        let routes = self.inner.routes.lock();
        let route = routes.get(authority)?;
        (!route.dead.load(Ordering::Acquire)).then_some(route.addr)
    }

    /// Kills `authority`'s listener *without* unregistering it: the
    /// accept thread exits (so new connections are refused by the
    /// kernel) and every live connection is reset. Subsequent dispatches fail
    /// with [`TransportError::Unreachable`] — the real-socket
    /// equivalent of [`SimNet::set_offline`](crate::net::SimNet::set_offline).
    pub fn kill_listener(&self, authority: &str) {
        let route = self.inner.routes.lock().get(authority).cloned();
        if let Some(route) = route {
            route.shutdown();
        }
    }

    /// Makes `authority`'s connection threads hold (`true`) or release (`false`)
    /// their responses. While stalled, dispatches burn the full client
    /// timeout and fail with [`TransportError::Timeout`] — the
    /// real-socket equivalent of a lost message.
    pub fn set_stall(&self, authority: &str, stalled: bool) {
        let routes = self.inner.routes.lock();
        if let Some(route) = routes.get(authority) {
            route.stall.store(stalled, Ordering::Release);
        }
    }

    /// The registered address for `to`, dead or alive — a killed route
    /// keeps its address so dispatches attempt a real connect and take
    /// the kernel's refusal, exactly like contacting a crashed server.
    fn listener_known_addr(&self, to: &str) -> Option<SocketAddr> {
        self.inner.routes.lock().get(to).map(|r| r.addr)
    }

    /// Opens, configures and caches-or-uses a fresh connection to `to`.
    fn connect_fresh(&self, to: &str, timeout_ms: u64) -> Result<ClientConn, Response> {
        let Some(addr) = self.listener_known_addr(to) else {
            return Err(transport_failure(
                TransportError::Unreachable,
                &format!("unreachable authority: {to}"),
            ));
        };
        let stream = match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
            Ok(stream) => stream,
            Err(_) => {
                return Err(transport_failure(
                    TransportError::Unreachable,
                    &format!("connection to {to} refused"),
                ));
            }
        };
        let _ = stream.set_nodelay(true);
        let mut conn = ClientConn {
            transport_id: self.inner.id,
            authority: to.to_owned(),
            stream,
            applied_timeout_ms: 0,
            buf: Vec::new(),
        };
        if apply_timeout(&mut conn, timeout_ms).is_err() {
            return Err(transport_failure(
                TransportError::Unreachable,
                &format!("connection to {to} reset"),
            ));
        }
        Ok(conn)
    }

    /// Sends one request to `to`, classifying socket failures. The warm
    /// path — a cached healthy connection — touches no locks at all: it
    /// never consults the route table, and a stale cached connection
    /// (idle-reaped, killed, replaced) falls back to one fresh connect
    /// before a failure is reported.
    fn send(&self, from: &str, to: &str, req: &Request) -> Response {
        CLIENT.with(|state| {
            let mut state = state.borrow_mut();
            let state = &mut *state;
            codec::encode_request_into(&mut state.wire, from, req);
            let timeout_ms = self.inner.client_timeout_ms.load(Ordering::Relaxed);

            if let Some(ix) = cached_ix(&state.conns, self.inner.id, to) {
                let mut conn = state.conns.swap_remove(ix);
                if apply_timeout(&mut conn, timeout_ms).is_ok() {
                    if let Ok(resp) = exchange_one(&mut conn, &state.wire, &mut state.chunk) {
                        cache_conn(&mut state.conns, conn);
                        return resp;
                    }
                }
            }

            let mut conn = match self.connect_fresh(to, timeout_ms) {
                Ok(conn) => conn,
                Err(failure) => return failure,
            };
            match exchange_one(&mut conn, &state.wire, &mut state.chunk) {
                Ok(resp) => {
                    cache_conn(&mut state.conns, conn);
                    resp
                }
                Err(err) if is_timeout(&err) => transport_failure(
                    TransportError::Timeout,
                    &format!("timed out waiting for {to}"),
                ),
                Err(_) => transport_failure(
                    TransportError::Unreachable,
                    &format!("connection to {to} reset"),
                ),
            }
        })
    }

    /// Sends one authority's slice of a pipelined batch: every request
    /// encoded back-to-back into one buffered write, then the responses
    /// read back in order. Returns exactly `ixs.len()` responses.
    ///
    /// Retry rule: a failure on the *cached* connection with **zero**
    /// responses received means a stale keep-alive — the server
    /// processed nothing, so the whole group is retried once on a fresh
    /// connection. Any partial failure (k > 0 responses in) classifies
    /// the remainder without resending: those requests may already have
    /// executed, and the transport never double-dispatches.
    fn send_group(&self, from: &str, to: &str, reqs: &[Request], ixs: &[usize]) -> Vec<Response> {
        CLIENT.with(|state| {
            let mut state = state.borrow_mut();
            let state = &mut *state;
            state.batch.clear();
            for &i in ixs {
                codec::encode_request_into(&mut state.wire, from, &reqs[i]);
                state.batch.extend_from_slice(&state.wire);
            }
            let timeout_ms = self.inner.client_timeout_ms.load(Ordering::Relaxed);
            let n = ixs.len();

            if let Some(ix) = cached_ix(&state.conns, self.inner.id, to) {
                let mut conn = state.conns.swap_remove(ix);
                if apply_timeout(&mut conn, timeout_ms).is_ok() {
                    let (resps, err) = exchange_group(&mut conn, &state.batch, n, &mut state.chunk);
                    match err {
                        None => {
                            cache_conn(&mut state.conns, conn);
                            return resps;
                        }
                        Some(err) if !resps.is_empty() => {
                            return fill_group_failures(resps, &err, to, n);
                        }
                        Some(_) => {} // stale keep-alive: retry the whole group fresh
                    }
                }
            }

            let mut conn = match self.connect_fresh(to, timeout_ms) {
                Ok(conn) => conn,
                Err(failure) => return vec![failure; n],
            };
            let (resps, err) = exchange_group(&mut conn, &state.batch, n, &mut state.chunk);
            match err {
                None => {
                    cache_conn(&mut state.conns, conn);
                    resps
                }
                Some(err) => fill_group_failures(resps, &err, to, n),
            }
        })
    }

    /// Commits one round trip's trace events and statistics, exactly as
    /// both backends account them.
    fn record_round_trip(&self, from: &str, req: &Request, resp: &Response) {
        let to = req.url.authority();
        self.inner
            .trace
            .record_with(from, to, TraceKind::Request, || {
                format!("{} {}{}", req.method, req.url.path(), summarize_params(req))
            });
        self.inner
            .trace
            .record_with(from, to, TraceKind::Response, || match resp.location() {
                Some(loc) => format!("{} -> {}", resp.status, loc.authority()),
                None => resp.status.to_string(),
            });

        let payload = message_bytes(&req.body, req.headers.values())
            + req.form.values().map(String::len).sum::<usize>()
            + message_bytes(&resp.body, resp.headers.values());
        let shard = &self.inner.shards[shard_index()];
        shard.bump_edge(from, to);
        shard
            .payload_bytes
            .fetch_add(payload as u64, Ordering::Relaxed);
        if resp.transport_error().is_none() {
            // Arithmetic twins of the codec encoders — the exact bytes
            // this round trip occupied on the wire, identical to what
            // SimNet accounts for the same messages.
            let wire = codec::request_wire_len(from, req) + codec::response_wire_len(resp);
            shard
                .bytes_on_wire
                .fetch_add(wire as u64, Ordering::Relaxed);
        }
        shard.round_trips.fetch_add(1, Ordering::Relaxed);
    }
}

impl Transport for HttpTransport {
    fn name(&self) -> &'static str {
        "http"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn register(&self, app: Arc<dyn WebApp>) {
        let authority = app.authority().to_owned();
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback listener");
        let route = Arc::new(Route {
            addr: listener.local_addr().expect("listener address"),
            app,
            inner: Arc::downgrade(&self.inner),
            dead: AtomicBool::new(false),
            stall: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            acceptor: Mutex::new(None),
        });
        let acceptor = {
            let route = Arc::clone(&route);
            std::thread::spawn(move || accept_loop(&listener, &route))
        };
        *route.acceptor.lock() = Some(acceptor);
        let old = self.inner.routes.lock().insert(authority, route);
        if let Some(old) = old {
            old.shutdown();
        }
    }

    fn unregister(&self, authority: &str) {
        let removed = self.inner.routes.lock().remove(authority);
        if let Some(route) = removed {
            route.shutdown();
        }
    }

    fn dispatch(&self, from: &str, req: Request) -> Response {
        let to = req.url.authority().to_owned();

        let started = Instant::now();
        let resp = self.send(from, &to, &req);
        let wall_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);

        self.record_round_trip(from, &req, &resp);
        self.inner.shards[shard_index()]
            .wall_us
            .fetch_add(wall_us, Ordering::Release);
        resp
    }

    fn dispatch_pipelined(&self, from: &str, reqs: Vec<Request>) -> Vec<Response> {
        if reqs.len() <= 1 {
            return reqs
                .into_iter()
                .map(|req| self.dispatch(from, req))
                .collect();
        }

        // Group request indices by authority, first-seen order. Batches
        // are small (a flush's worth), so a linear scan beats hashing.
        let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            let to = req.url.authority();
            match groups.iter_mut().find(|(a, _)| *a == to) {
                Some((_, ixs)) => ixs.push(i),
                None => groups.push((to, vec![i])),
            }
        }

        let started = Instant::now();
        let mut slots: Vec<Option<Response>> = Vec::with_capacity(reqs.len());
        slots.resize_with(reqs.len(), || None);
        for (to, ixs) in &groups {
            let resps = self.send_group(from, to, &reqs, ixs);
            for (resp, &i) in resps.into_iter().zip(ixs) {
                slots[i] = Some(resp);
            }
        }
        let wall_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);

        // Trace and account in *input* order — request/response pairs
        // exactly as N sequential dispatches would have emitted them, so
        // the conformance logs and every work-count cell stay identical.
        let mut responses = Vec::with_capacity(reqs.len());
        for (req, slot) in reqs.iter().zip(slots) {
            let resp = slot.expect("one response per pipelined request");
            self.record_round_trip(from, req, &resp);
            responses.push(resp);
        }
        self.inner.shards[shard_index()]
            .wall_us
            .fetch_add(wall_us, Ordering::Release);
        responses
    }

    fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    fn trace(&self) -> &TraceRecorder {
        &self.inner.trace
    }

    fn stats(&self) -> NetStats {
        let mut out = NetStats::default();
        let mut wall_us = 0u64;
        for shard in &self.inner.shards {
            // Acquire on the wall clock pairs with the Release in the
            // dispatch commit: the matching round trips are visible.
            wall_us += shard.wall_us.load(Ordering::Acquire);
            out.round_trips += shard.round_trips.load(Ordering::Relaxed);
            out.payload_bytes += shard.payload_bytes.load(Ordering::Relaxed);
            out.bytes_on_wire += shard.bytes_on_wire.load(Ordering::Relaxed);
            for (from, inner) in shard.per_edge.lock().iter() {
                for (to, count) in inner {
                    *out.per_edge.entry((from.clone(), to.clone())).or_insert(0) += count;
                }
            }
        }
        out.modelled_latency_ms = wall_us / 1000;
        out
    }

    fn reset_stats(&self) {
        for shard in &self.inner.shards {
            shard.per_edge.lock().clear();
            shard.round_trips.store(0, Ordering::Relaxed);
            shard.payload_bytes.store(0, Ordering::Relaxed);
            shard.bytes_on_wire.store(0, Ordering::Relaxed);
            shard.wall_us.store(0, Ordering::Release);
        }
    }
}

// ---------------------------------------------------------------------------
// Client helpers
// ---------------------------------------------------------------------------

/// Builds the classified `503` for a transport-level failure.
fn transport_failure(kind: TransportError, why: &str) -> Response {
    Response::with_status(Status::Unavailable)
        .with_body(why.to_owned())
        .with_transport_error(kind)
}

fn is_timeout(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn malformed(why: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

/// Position of this thread's cached connection for `(transport, to)`.
fn cached_ix(conns: &[ClientConn], transport_id: u64, to: &str) -> Option<usize> {
    conns
        .iter()
        .position(|c| c.transport_id == transport_id && c.authority == to)
}

/// Returns a healthy connection to the cache. A connection with bytes
/// left in its reassembly buffer is out of sync (the server sent more
/// than was asked for) and is dropped instead.
fn cache_conn(conns: &mut Vec<ClientConn>, conn: ClientConn) {
    if !conn.buf.is_empty() {
        return;
    }
    if conns.len() >= CONN_CACHE_CAP {
        conns.clear();
    }
    conns.push(conn);
}

/// Applies the client read timeout, skipping the syscall when the
/// currently-applied value already matches.
fn apply_timeout(conn: &mut ClientConn, timeout_ms: u64) -> io::Result<()> {
    if conn.applied_timeout_ms != timeout_ms {
        conn.stream
            .set_read_timeout(Some(Duration::from_millis(timeout_ms.max(1))))?;
        conn.applied_timeout_ms = timeout_ms;
    }
    Ok(())
}

/// One blocking read into the reassembly buffer. EOF before a complete
/// response is an error (the peer hung up mid-message).
fn read_more(conn: &mut ClientConn, chunk: &mut [u8]) -> io::Result<()> {
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before response",
                ))
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                return Ok(());
            }
            Err(ref err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
}

/// Reads one complete response out of the connection's reassembly
/// buffer, pulling more bytes off the socket as needed, and drains the
/// consumed bytes so pipelined successors parse from a clean front.
fn read_response(conn: &mut ClientConn, chunk: &mut [u8]) -> io::Result<Response> {
    let mut scan_from = 0;
    let head_end = loop {
        if let Some(end) = codec::find_head_end(&conn.buf, scan_from) {
            break end;
        }
        scan_from = conn.buf.len().saturating_sub(3);
        if conn.buf.len() > MAX_MESSAGE_BYTES {
            return Err(malformed("response head too large"));
        }
        read_more(conn, chunk)?;
    };
    // Fast path: head and body already buffered (the usual case when a
    // pipelined peer coalesces its responses) — one parse does it all.
    // Only a body still in flight forces the re-parse after `read_more`
    // invalidates the borrowed head.
    let (resp, consumed) = loop {
        let head = codec::parse_head(&conn.buf[..head_end]).map_err(malformed)?;
        let body_len = head.content_length().map_err(malformed)?;
        if conn.buf.len() < head_end + body_len {
            read_more(conn, chunk)?;
            continue;
        }
        let resp = codec::build_response(&head, &conn.buf[head_end..head_end + body_len])
            .map_err(malformed)?;
        break (resp, head_end + body_len);
    };
    conn.buf.drain(..consumed);
    Ok(resp)
}

/// Writes one encoded request and reads its response.
fn exchange_one(conn: &mut ClientConn, wire: &[u8], chunk: &mut [u8]) -> io::Result<Response> {
    conn.stream.write_all(wire)?;
    read_response(conn, chunk)
}

/// Writes a pipelined group (one buffered block of `n` requests) and
/// reads the `n` responses back. On error, returns every response that
/// made it in before the failure alongside the error.
fn exchange_group(
    conn: &mut ClientConn,
    batch: &[u8],
    n: usize,
    chunk: &mut [u8],
) -> (Vec<Response>, Option<io::Error>) {
    if let Err(err) = conn.stream.write_all(batch) {
        return (Vec::new(), Some(err));
    }
    let mut resps = Vec::with_capacity(n);
    for _ in 0..n {
        match read_response(conn, chunk) {
            Ok(resp) => resps.push(resp),
            Err(err) => return (resps, Some(err)),
        }
    }
    (resps, None)
}

/// Pads a partially-completed group out to `n` responses, classifying
/// the requests that never got an answer from the group's error.
fn fill_group_failures(
    mut resps: Vec<Response>,
    err: &io::Error,
    to: &str,
    n: usize,
) -> Vec<Response> {
    let failure = if is_timeout(err) {
        transport_failure(
            TransportError::Timeout,
            &format!("timed out waiting for {to}"),
        )
    } else {
        transport_failure(
            TransportError::Unreachable,
            &format!("connection to {to} reset"),
        )
    };
    while resps.len() < n {
        resps.push(failure.clone());
    }
    resps
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// The accept thread: puts each connection on the kill list, bounded by
/// [`MAX_CONNS_PER_LISTENER`], and gives it a blocking thread of its
/// own. Exits once the listener is dead (a shutdown wakes the blocked
/// `accept` with a throwaway connect), dropping the listener.
fn accept_loop(listener: &TcpListener, route: &Arc<Route>) {
    let mut next_id = 0u64;
    for stream in listener.incoming() {
        if route.closed() {
            return;
        }
        let Ok(stream) = stream else {
            // Out of descriptors or similar: back off instead of spinning.
            std::thread::sleep(POLL_INTERVAL);
            continue;
        };
        let _ = stream.set_nodelay(true);
        let id = next_id;
        next_id += 1;
        // Admission runs under the kill-list lock. A shutdown sets `dead`
        // before draining the list, so every admitted connection is one
        // the shutdown resets and joins; and the new thread's own removal
        // waits for the lock, so its entry is always in place first.
        let mut live = route.conns.lock();
        if route.dead.load(Ordering::Acquire) || live.len() >= MAX_CONNS_PER_LISTENER {
            continue;
        }
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        let conn_route = Arc::clone(route);
        let spawned = std::thread::Builder::new().spawn(move || {
            serve_conn(&conn_route, stream);
            conn_route.conns.lock().remove(&id);
        });
        if let Ok(thread) = spawned {
            live.insert(
                id,
                LiveConn {
                    stream: clone,
                    thread,
                },
            );
        }
    }
}

/// One connection's thread: block on a read, serve every complete
/// request the buffer then holds back-to-back, and send all of their
/// responses in one write. One write per read is what keeps a
/// pipelining client from being woken — and preempted back into a read
/// that immediately blocks again — once per response.
///
/// Returning closes the connection (fail closed: the client classifies
/// the reset) on hang-up, kill, framing violation, oversize, a failed
/// write, or a partial message that stalls past [`SERVER_READ_TIMEOUT`].
fn serve_conn(route: &Route, mut stream: TcpStream) {
    if stream.set_write_timeout(Some(SERVER_READ_TIMEOUT)).is_err() {
        return;
    }
    let mut buf = Vec::new();
    let mut out = Vec::new();
    let mut head = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    // Where head scanning resumes (incremental `find_head_end`).
    let mut scan_from = 0;
    let mut patient = false;
    loop {
        // Partial-message patience: the read timeout is set only while
        // half a message is buffered, so an idle keep-alive connection
        // can block forever while a stalled sender is dropped.
        let partial = !buf.is_empty();
        if partial != patient {
            if stream
                .set_read_timeout(partial.then_some(SERVER_READ_TIMEOUT))
                .is_err()
            {
                return;
            }
            patient = partial;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(ref err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        if buf.len() > MAX_MESSAGE_BYTES {
            return;
        }

        out.clear();
        let mut consumed = 0;
        loop {
            let pending = &buf[consumed..];
            let Some(head_end) = codec::find_head_end(pending, scan_from) else {
                scan_from = pending.len().saturating_sub(3);
                break;
            };
            let Ok(parsed) = codec::parse_head(&pending[..head_end]) else {
                return;
            };
            let Ok(body_len) = parsed.content_length() else {
                return;
            };
            if pending.len() < head_end + body_len {
                // Head complete, body still in flight: the head is
                // re-found in one cheap pass once the body lands.
                break;
            }
            // The envelope's dispatcher label is not shown to handlers.
            let Ok((_from, req)) =
                codec::build_request(&parsed, &pending[head_end..head_end + body_len])
            else {
                return;
            };
            consumed += head_end + body_len;
            scan_from = 0;
            let Some(resp) = route.serve(&req) else {
                return;
            };
            codec::encode_response_head_into(&mut head, &resp);
            out.extend_from_slice(&head);
            out.extend_from_slice(resp.body.as_bytes());
        }
        buf.drain(..consumed);
        if !out.is_empty() && stream.write_all(&out).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Method;

    struct Echo;

    impl WebApp for Echo {
        fn authority(&self) -> &str {
            "echo.example"
        }
        fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
            let mut resp = Response::ok().with_body(format!(
                "{} {} body={} p={}",
                req.method,
                req.url.path(),
                req.body,
                req.param("p").unwrap_or("-"),
            ));
            if let Some(echo) = req.header("x-echo") {
                resp = resp.with_header("x-echoed", echo);
            }
            resp
        }
    }

    struct Proxy;

    impl WebApp for Proxy {
        fn authority(&self) -> &str {
            "proxy.example"
        }
        fn handle(&self, net: &dyn Transport, _req: &Request) -> Response {
            net.dispatch(
                self.authority(),
                Request::new(Method::Get, "https://echo.example/inner"),
            )
        }
    }

    fn echo_transport() -> HttpTransport {
        let t = HttpTransport::new();
        t.register(Arc::new(Echo));
        t
    }

    #[test]
    fn roundtrip_over_real_sockets() {
        let t = echo_transport();
        let resp = t.dispatch(
            "tester",
            Request::new(Method::Post, "https://echo.example/pics?p=1")
                .with_body("hello")
                .with_header("x-echo", "marco"),
        );
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.body, "POST /pics body=hello p=1");
        assert_eq!(resp.header("x-echoed"), Some("marco"));
        assert_eq!(resp.transport_error(), None);
    }

    #[test]
    fn form_and_query_survive_the_wire() {
        let t = echo_transport();
        // Form beats query (Request::param semantics), special chars survive.
        let resp = t.dispatch(
            "tester",
            Request::new(Method::Post, "https://echo.example/x?p=from%20query")
                .with_param("p", "a&b=c d"),
        );
        assert_eq!(resp.body, "POST /x body= p=a&b=c d");
    }

    #[test]
    fn keep_alive_reuses_one_connection() {
        let t = echo_transport();
        for _ in 0..5 {
            let resp = t.dispatch(
                "tester",
                Request::new(Method::Get, "https://echo.example/k"),
            );
            assert_eq!(resp.status, Status::Ok);
        }
        let stats = t.stats();
        assert_eq!(stats.round_trips, 5);
        assert_eq!(stats.edge("tester", "echo.example"), 5);
        assert!(stats.payload_bytes > 0);
        assert!(stats.bytes_on_wire > 0);
    }

    #[test]
    fn nested_dispatch_over_sockets() {
        let t = echo_transport();
        t.register(Arc::new(Proxy));
        let resp = t.dispatch(
            "tester",
            Request::new(Method::Get, "https://proxy.example/"),
        );
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.body, "GET /inner body= p=-");
        assert_eq!(t.stats().round_trips, 2);
        assert_eq!(t.stats().edge("proxy.example", "echo.example"), 1);
    }

    #[test]
    fn unknown_authority_is_unreachable() {
        let t = HttpTransport::new();
        let resp = t.dispatch(
            "tester",
            Request::new(Method::Get, "https://ghost.example/"),
        );
        assert_eq!(resp.status, Status::Unavailable);
        assert_eq!(resp.transport_error(), Some(TransportError::Unreachable));
    }

    #[test]
    fn killed_listener_is_unreachable_then_recovers() {
        let t = echo_transport();
        assert_eq!(
            t.dispatch(
                "tester",
                Request::new(Method::Get, "https://echo.example/a")
            )
            .status,
            Status::Ok
        );
        t.kill_listener("echo.example");
        let resp = t.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/a"),
        );
        assert_eq!(resp.status, Status::Unavailable);
        assert_eq!(resp.transport_error(), Some(TransportError::Unreachable));
        // Re-registering restarts the authority on a fresh listener.
        t.register(Arc::new(Echo));
        let resp = t.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/a"),
        );
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn stalled_listener_times_out() {
        let t = echo_transport();
        t.set_client_timeout_ms(100);
        t.set_stall("echo.example", true);
        let started = Instant::now();
        let resp = t.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/s"),
        );
        assert_eq!(resp.status, Status::Unavailable);
        assert_eq!(resp.transport_error(), Some(TransportError::Timeout));
        assert!(started.elapsed() >= Duration::from_millis(100));
        t.set_stall("echo.example", false);
        let resp = t.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/s"),
        );
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn unregistered_authority_is_unreachable() {
        let t = echo_transport();
        t.unregister("echo.example");
        let resp = t.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/a"),
        );
        assert_eq!(resp.status, Status::Unavailable);
        assert_eq!(resp.transport_error(), Some(TransportError::Unreachable));
    }

    #[test]
    fn concurrent_dispatches_are_counted_exactly() {
        const THREADS: usize = 8;
        const EACH: usize = 50;
        let t = echo_transport();
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..EACH {
                    let resp = t.dispatch(
                        "tester",
                        Request::new(Method::Post, "https://echo.example/c").with_body("xyz"),
                    );
                    assert_eq!(resp.status, Status::Ok);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let stats = t.stats();
        assert_eq!(stats.round_trips, (THREADS * EACH) as u64);
        assert_eq!(
            stats.edge("tester", "echo.example"),
            (THREADS * EACH) as u64
        );
    }

    #[test]
    fn trace_matches_simnet_labels() {
        let t = echo_transport();
        t.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/p")
                .with_param("realm", "r1")
                .with_bearer("tok"),
        );
        let events = t.trace().events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, TraceKind::Request);
        assert!(events[0].label.contains("GET /p"), "{}", events[0].label);
        assert!(events[0].label.contains("realm=r1"), "{}", events[0].label);
        assert!(events[0].label.contains("bearer"), "{}", events[0].label);
        assert_eq!(events[1].kind, TraceKind::Response);
    }

    #[test]
    fn clock_is_never_advanced_by_dispatch() {
        let t = echo_transport();
        t.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/p"),
        );
        assert_eq!(t.clock().now_ms(), 0);
    }

    #[test]
    fn pipelined_batch_matches_sequential_accounting() {
        // Run the same 6-request batch sequentially and pipelined on two
        // transports; responses, stats and trace labels must agree.
        let make_reqs = || -> Vec<Request> {
            (0..6)
                .map(|i| {
                    Request::new(Method::Post, &format!("https://echo.example/b?p={i}"))
                        .with_body(format!("body-{i}"))
                })
                .collect()
        };

        let seq = echo_transport();
        let seq_resps: Vec<Response> = make_reqs()
            .into_iter()
            .map(|req| seq.dispatch("tester", req))
            .collect();

        let piped = echo_transport();
        let piped_resps = piped.dispatch_pipelined("tester", make_reqs());

        assert_eq!(seq_resps, piped_resps);
        for (i, resp) in piped_resps.iter().enumerate() {
            assert_eq!(resp.body, format!("POST /b body=body-{i} p={i}"));
        }

        let (a, b) = (seq.stats(), piped.stats());
        assert_eq!(a.round_trips, b.round_trips);
        assert_eq!(a.payload_bytes, b.payload_bytes);
        assert_eq!(a.bytes_on_wire, b.bytes_on_wire);
        assert_eq!(a.per_edge, b.per_edge);

        let labels = |t: &HttpTransport| -> Vec<String> {
            t.trace().events().iter().map(|e| e.label.clone()).collect()
        };
        assert_eq!(labels(&seq), labels(&piped));
    }

    #[test]
    fn pipelined_batch_spans_authorities_in_input_order() {
        let t = echo_transport();
        t.register(Arc::new(Proxy));
        let reqs = vec![
            Request::new(Method::Get, "https://echo.example/a?p=0"),
            Request::new(Method::Get, "https://proxy.example/"),
            Request::new(Method::Get, "https://echo.example/a?p=2"),
        ];
        let resps = t.dispatch_pipelined("tester", reqs);
        assert_eq!(resps.len(), 3);
        assert_eq!(resps[0].body, "GET /a body= p=0");
        assert_eq!(resps[1].body, "GET /inner body= p=-");
        assert_eq!(resps[2].body, "GET /a body= p=2");
        // 3 batched + 1 nested (proxy -> echo).
        assert_eq!(t.stats().round_trips, 4);
        assert_eq!(t.stats().edge("tester", "echo.example"), 2);
        assert_eq!(t.stats().edge("tester", "proxy.example"), 1);
    }

    #[test]
    fn pipelined_batch_to_unknown_authority_fails_every_request() {
        let t = echo_transport();
        let reqs = vec![
            Request::new(Method::Get, "https://echo.example/ok"),
            Request::new(Method::Get, "https://ghost.example/x"),
            Request::new(Method::Get, "https://ghost.example/y"),
        ];
        let resps = t.dispatch_pipelined("tester", reqs);
        assert_eq!(resps[0].status, Status::Ok);
        for resp in &resps[1..] {
            assert_eq!(resp.status, Status::Unavailable);
            assert_eq!(resp.transport_error(), Some(TransportError::Unreachable));
        }
        // Failed round trips still count as trips, but contribute no
        // wire bytes (same rule as SimNet).
        assert_eq!(t.stats().round_trips, 3);
        assert_eq!(t.stats().edge("tester", "ghost.example"), 2);
    }

    #[test]
    fn listener_outlives_more_connections_than_its_live_cap() {
        // Each thread's persistent connection closes when the thread
        // exits; the closed connection must leave the kill list, or the
        // cap would refuse every connection past the 256th.
        let t = echo_transport();
        for i in 0..MAX_CONNS_PER_LISTENER + 44 {
            let t = t.clone();
            let status = std::thread::spawn(move || {
                t.dispatch(
                    "tester",
                    Request::new(Method::Get, "https://echo.example/n"),
                )
                .status
            })
            .join()
            .unwrap();
            assert_eq!(status, Status::Ok, "connection #{i}");
        }
    }

    /// Parks every `/block` request until released; answers anything
    /// else at once.
    #[derive(Default)]
    struct Gate {
        entered: AtomicUsize,
        release: AtomicBool,
    }

    impl WebApp for Gate {
        fn authority(&self) -> &str {
            "gate.example"
        }
        fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
            if req.url.path() == "/block" {
                self.entered.fetch_add(1, Ordering::SeqCst);
                while !self.release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Response::ok().with_body(req.url.path().to_owned())
        }
    }

    #[test]
    fn blocked_handler_does_not_delay_another_connection() {
        // More parked handlers than a four-worker pool could serve.
        const PARKED: usize = 5;
        let t = HttpTransport::new();
        // Patient enough that the parked requests outlast a loaded box.
        t.set_client_timeout_ms(10_000);
        let gate = Arc::new(Gate::default());
        t.register(Arc::clone(&gate) as Arc<dyn WebApp>);

        let parked: Vec<_> = (0..PARKED)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || {
                    t.dispatch(
                        "tester",
                        Request::new(Method::Get, "https://gate.example/block"),
                    )
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while gate.entered.load(Ordering::SeqCst) < PARKED && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }

        let resp = t.dispatch(
            "tester",
            Request::new(Method::Get, "https://gate.example/fast"),
        );
        gate.release.store(true, Ordering::SeqCst);
        assert_eq!(resp.status, Status::Ok, "{}", resp.body);
        assert_eq!(resp.body, "/fast");
        assert_eq!(gate.entered.load(Ordering::SeqCst), PARKED);
        for handle in parked {
            let resp = handle.join().unwrap();
            assert_eq!(resp.status, Status::Ok);
            assert_eq!(resp.body, "/block");
        }
    }

    #[test]
    fn bytes_on_wire_matches_simnet_exactly() {
        use crate::net::SimNet;
        let http = echo_transport();
        let sim = SimNet::new();
        sim.register(Arc::new(Echo));
        let make = || {
            Request::new(Method::Post, "https://echo.example/w?p=zed")
                .with_param("realm", "r")
                .with_header("x-echo", "polo")
                .with_body("payload")
        };
        let a = http.dispatch("tester", make());
        let b = sim.dispatch("tester", make());
        assert_eq!(a, b);
        assert_eq!(http.stats().bytes_on_wire, sim.stats().bytes_on_wire);
        assert!(http.stats().bytes_on_wire > 0);
    }
}
