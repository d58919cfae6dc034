//! Layer spans recorded from outside the program.
//!
//! The traced run wraps the public entry points of each layer: the
//! harness times `RequesterClient::access`, `AuthorizationManager::pap`
//! and `pump_epoch_pushes`; [`TimingTransport`] times every client-side
//! `Transport::dispatch`; [`TracedApp`] times every server-side
//! `WebApp::handle`. A span names its parent, so self time is a span's
//! duration minus what its children cover.
//!
//! A dispatch and the handle it causes run on different threads (the
//! handle on a transport worker), so the timing transport stamps the
//! request with an `x-bench-span` header naming the dispatch span and
//! its request id. The header exists only in the traced run; the
//! untraced run registers the applications bare.
//!
//! Spans go to a per-thread buffer and are collected by [`drain`] once
//! the measured window is over.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ucam_webenv::{NetStats, Request, Response, SimClock, TraceRecorder, Transport, WebApp};

/// The request header that links a server handle to its dispatch.
const SPAN_HEADER: &str = "x-bench-span";

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique, non-zero.
    pub id: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    /// The root span's id, shared by every span of one request.
    pub request: u64,
    /// Layer and route, e.g. `"host.access"`.
    pub name: &'static str,
    /// Nanoseconds since the process's first span.
    pub start_ns: u64,
    /// Nanoseconds since the process's first span.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Buffer = {
        let buffer = Buffer::default();
        BUFFERS
            .lock()
            .expect("span registry poisoned by a panicking thread")
            .push(Arc::clone(&buffer));
        buffer
    };
    /// `(span, request)` of the innermost open span on this thread.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

fn record(span: Span) {
    LOCAL.with(|buffer| {
        buffer
            .lock()
            .expect("span buffer poisoned by a panicking thread")
            .push(span);
    });
}

/// Runs `f` inside a span named `name`, a child of this thread's open
/// span (a new request when there is none).
pub fn in_span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    in_span_under(name, CURRENT.with(Cell::get), f)
}

/// Runs `f` inside a span whose parent is `(span, request)` — a span
/// opened on another thread, or `(0, 0)` for a new request.
pub fn in_span_under<R>(name: &'static str, parent: (u64, u64), f: impl FnOnce() -> R) -> R {
    let id = next_id();
    let request = if parent.0 == 0 { id } else { parent.1 };
    let saved = CURRENT.with(|c| c.replace((id, request)));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    CURRENT.with(|c| c.set(saved));
    record(Span {
        id,
        parent: parent.0,
        request,
        name,
        start_ns,
        end_ns,
    });
    out
}

/// Takes every span recorded so far, on every thread.
#[must_use]
pub fn drain() -> Vec<Span> {
    let mut buffers = BUFFERS
        .lock()
        .expect("span registry poisoned by a panicking thread");
    let mut out = Vec::new();
    for buffer in buffers.iter() {
        out.append(&mut buffer.lock().expect("span buffer poisoned"));
    }
    // Threads that have ended hold no other handle on their buffer.
    buffers.retain(|b| Arc::strong_count(b) > 1);
    out
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
#[must_use]
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.clamp(reach, s.end_ns);
                    let b = b.clamp(reach, s.end_ns);
                    covered += b - a;
                    reach = reach.max(b);
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

fn link_of(req: &Request) -> (u64, u64) {
    req.header(SPAN_HEADER)
        .and_then(|v| v.split_once('.'))
        .and_then(|(s, r)| Some((s.parse().ok()?, r.parse().ok()?)))
        .unwrap_or((0, 0))
}

/// A [`Transport`] that records a span around every client dispatch and
/// links the request to it. Everything else passes through.
pub struct TimingTransport {
    inner: Arc<dyn Transport>,
}

impl TimingTransport {
    /// Wraps the rig's transport.
    #[must_use]
    pub fn new(inner: Arc<dyn Transport>) -> Self {
        TimingTransport { inner }
    }

    fn linked(req: Request, id: u64, request: u64) -> Request {
        req.with_header(SPAN_HEADER, &format!("{id}.{request}"))
    }

    fn timed<R>(&self, name: &'static str, send: impl FnOnce(u64, u64) -> R) -> R {
        let parent = CURRENT.with(Cell::get);
        let id = next_id();
        let request = if parent.0 == 0 { id } else { parent.1 };
        let start_ns = now_ns();
        let out = send(id, request);
        record(Span {
            id,
            parent: parent.0,
            request,
            name,
            start_ns,
            end_ns: now_ns(),
        });
        out
    }
}

impl Transport for TimingTransport {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
    fn register(&self, app: Arc<dyn WebApp>) {
        self.inner.register(app);
    }
    fn unregister(&self, authority: &str) {
        self.inner.unregister(authority);
    }
    fn dispatch(&self, from: &str, req: Request) -> Response {
        self.timed("transport.dispatch", |id, request| {
            self.inner.dispatch(from, Self::linked(req, id, request))
        })
    }
    fn dispatch_pipelined(&self, from: &str, reqs: Vec<Request>) -> Vec<Response> {
        self.timed("transport.pipelined", |id, request| {
            let reqs = reqs
                .into_iter()
                .map(|r| Self::linked(r, id, request))
                .collect();
            self.inner.dispatch_pipelined(from, reqs)
        })
    }
    fn clock(&self) -> &SimClock {
        self.inner.clock()
    }
    fn trace(&self) -> &TraceRecorder {
        self.inner.trace()
    }
    fn stats(&self) -> NetStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}

/// Names the span of one server handle from the app and the route.
pub type RouteNamer = fn(&Request) -> &'static str;

/// A [`WebApp`] that records a span around every `handle`, under the
/// dispatch that caused it, and hands the inner handler a
/// [`TimingTransport`] so its nested dispatches are timed too.
pub struct TracedApp {
    inner: Arc<dyn WebApp>,
    net: Arc<TimingTransport>,
    route: RouteNamer,
}

impl TracedApp {
    /// Wraps `inner`; `net` must wrap the transport `inner` is served on.
    #[must_use]
    pub fn new(inner: Arc<dyn WebApp>, net: Arc<TimingTransport>, route: RouteNamer) -> Self {
        TracedApp { inner, net, route }
    }
}

impl WebApp for TracedApp {
    fn authority(&self) -> &str {
        self.inner.authority()
    }
    fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
        in_span_under((self.route)(req), link_of(req), || {
            self.inner.handle(self.net.as_ref(), req)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // access [0,100): dispatch [10,40) and dispatch [50,90).
        // dispatch [10,40) holds handle [15,35), which holds a nested
        // dispatch [20,30). Overlapping children [60,80) and [70,95)
        // under the second dispatch are counted once and clipped to it.
        let spans = [
            span(1, 0, "requester.access", 0, 100),
            span(2, 1, "transport.dispatch", 10, 40),
            span(3, 2, "host.access", 15, 35),
            span(4, 3, "transport.dispatch", 20, 30),
            span(5, 1, "transport.dispatch", 50, 90),
            span(6, 5, "host.access", 60, 80),
            span(7, 5, "am.decide", 70, 95),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 40);
        assert_eq!(st[&2], 30 - 20);
        assert_eq!(st[&3], 20 - 10);
        assert_eq!(st[&4], 10);
        assert_eq!(st[&5], 40 - 30);
        assert_eq!(st[&6], 20);
        assert_eq!(st[&7], 25);
    }

    #[test]
    fn spans_nest_on_one_thread_and_link_across_threads() {
        let _only = crate::SPAN_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (outer, inner) = in_span("outer", || {
            let here = CURRENT.with(Cell::get);
            let nested = in_span("inner", || CURRENT.with(Cell::get));
            (here, nested)
        });
        assert_eq!(outer.1, outer.0, "a root opens its own request");
        assert_eq!(inner.1, outer.0, "a child shares the request id");
        let remote =
            std::thread::spawn(move || in_span_under("remote", outer, || CURRENT.with(Cell::get)))
                .join()
                .expect("remote thread");
        assert_eq!(remote.1, outer.0);
        let req = TimingTransport::linked(
            Request::new(ucam_webenv::Method::Get, "https://h.example/x"),
            9,
            4,
        );
        assert_eq!(link_of(&req), (9, 4));
        let spans: Vec<Span> = drain()
            .into_iter()
            .filter(|s| s.request == outer.0)
            .collect();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect(n).parent;
        assert_eq!(by_name("outer"), 0);
        assert_eq!(by_name("inner"), outer.0);
        assert_eq!(by_name("remote"), outer.0);
    }
}
