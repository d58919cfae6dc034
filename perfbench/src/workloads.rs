//! The three workloads and the measured window each produces.

use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ucam_host::PepStats;
use ucam_requester::{AccessOutcome, AccessSpec, RequesterClient, RequesterStats};
use ucam_sim::population::{SplitMix64, Zipf};

use crate::rig::{PushLoop, Rig, Shape, Verdict};
use crate::schedule;
use crate::spans::{self, Span};

/// Generator threads: one per core of the 2-core reference box, each
/// with one request in flight.
pub const CLIENTS: usize = 2;

/// Share of open-loop arrivals that are owner edits.
const EDIT_SHARE: f64 = 0.05;
/// An owner keeps at most this many readers out of the circle at once.
const MAX_REMOVED: usize = 4;
/// Zipf exponent of owner popularity.
const ZIPF_S: f64 = 1.0;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, held tokens, sieves pushed: every access is a tier-1 hit.
    WarmRead,
    /// Closed loop, tokens dropped before every access: phases 3–6 each time.
    ColdFlow,
    /// Open loop of Zipf reads and owner edits at a fixed Poisson rate.
    ShareChurn,
}

impl Workload {
    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "warm_read" => Some(Workload::WarmRead),
            "cold_flow" => Some(Workload::ColdFlow),
            "share_churn" => Some(Workload::ShareChurn),
            _ => None,
        }
    }
}

/// Sizes and rates of a run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Deployment of the closed loops: each client reads its own half
    /// of the albums.
    pub closed: Shape,
    /// Deployment of `share_churn`.
    pub churn: Shape,
    /// `share_churn` arrivals per second, reads and edits together.
    pub churn_rate: f64,
    /// Probe-owner edit cadence on the closed loops.
    pub probe_every: Duration,
    /// Window of one closed-loop deployment.
    pub closed_window: Duration,
    /// Window of one `share_churn` deployment: long enough for readers
    /// to come back to photos they have touched.
    pub churn_window: Duration,
}

impl Scale {
    /// The benchmark's sizes.
    #[must_use]
    pub fn full() -> Scale {
        Scale {
            // One Host: two saturating clients keep its workers busy.
            // Spread over four Hosts, each Host worker idles between
            // visits, falls into the transport's idle sleeps, and the
            // capacity loop turns into a bimodal idle-path measurement
            // (1.4k–5.4k cold accesses/s from run to run).
            closed: Shape {
                hosts: 1,
                owners: 4,
                album: 16,
                readers: CLIENTS,
                friends: CLIENTS,
            },
            churn: Shape {
                hosts: 4,
                owners: 32,
                album: 16,
                readers: 16,
                friends: 12,
            },
            churn_rate: 200.0,
            probe_every: Duration::from_millis(100),
            closed_window: Duration::from_millis(2_500),
            churn_window: Duration::from_secs(5),
        }
    }

    /// Seconds of one deployment's window on `workload`.
    #[must_use]
    pub fn window_s(&self, workload: Workload) -> f64 {
        match workload {
            Workload::ShareChurn => self.churn_window,
            Workload::WarmRead | Workload::ColdFlow => self.closed_window,
        }
        .as_secs_f64()
    }

    /// A few resources and a short probe cadence, for smoke tests.
    #[cfg(test)]
    #[must_use]
    pub fn tiny() -> Scale {
        Scale {
            closed: Shape {
                hosts: 2,
                owners: 2,
                album: 4,
                readers: CLIENTS,
                friends: CLIENTS,
            },
            churn: Shape {
                hosts: 2,
                owners: 4,
                album: 4,
                readers: 4,
                friends: 3,
            },
            churn_rate: 400.0,
            probe_every: Duration::from_millis(20),
            closed_window: Duration::from_millis(200),
            churn_window: Duration::from_millis(400),
        }
    }
}

/// Everything one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall seconds of the window.
    pub wall_s: f64,
    /// Accesses attempted.
    pub accesses: u64,
    /// Accesses granted.
    pub granted: u64,
    /// Per-access latency in µs (from the due time on the open loop);
    /// failed accesses are infinite.
    pub latency_us: Vec<f64>,
    /// How late the open-loop generator started each arrival, in µs.
    pub late_us: Vec<f64>,
    /// Operations attempted: accesses, edits and push deliveries.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// Grants outside every acceptable policy.
    pub violations: u64,
    /// Round trips of the accesses (pushes excluded).
    pub access_rts: u64,
    /// Wire bytes of the accesses (pushes excluded).
    pub access_bytes: u64,
    /// Edit-to-visible times in ms.
    pub edit_visible_ms: Vec<f64>,
    /// Summed Host PEP counters.
    pub pep: PepStats,
    /// Summed requester counters.
    pub requester: RequesterStats,
    /// Push deliveries in the window.
    pub push_delivered: u64,
    /// Push requeues in the window.
    pub push_requeues: u64,
    /// Push body bytes delivered in the window.
    pub push_body_bytes: u64,
    /// Spans of the window (traced runs only).
    pub spans: Vec<Span>,
}

impl Window {
    /// Pools another window of the same workload into this one.
    pub fn absorb(&mut self, other: Window) {
        self.setup_s.extend(other.setup_s);
        self.wall_s += other.wall_s;
        self.accesses += other.accesses;
        self.granted += other.granted;
        self.latency_us = sorted([std::mem::take(&mut self.latency_us), other.latency_us].concat());
        self.late_us = sorted([std::mem::take(&mut self.late_us), other.late_us].concat());
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations += other.violations;
        self.access_rts += other.access_rts;
        self.access_bytes += other.access_bytes;
        self.edit_visible_ms.extend(other.edit_visible_ms);
        self.pep.sieve_hits += other.pep.sieve_hits;
        self.pep.cache_hits += other.pep.cache_hits;
        self.pep.am_queries += other.pep.am_queries;
        self.pep.sieve_rejects += other.pep.sieve_rejects;
        self.requester.accesses += other.requester.accesses;
        self.requester.cache_hits += other.requester.cache_hits;
        self.push_delivered += other.push_delivered;
        self.push_requeues += other.push_requeues;
        self.push_body_bytes += other.push_body_bytes;
        self.spans.extend(other.spans);
    }
}

/// Builds the workload's deployment, measures it for `seconds` and
/// tears it down.
///
/// # Errors
///
/// Returns the first set-up or harness failure. Outcome mismatches are
/// not errors: they count in [`Window::failed`] and
/// [`Window::violations`].
pub fn run(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Window, String> {
    let began = Instant::now();
    let (rig, clients) = setup(workload, scale, seed, traced)?;
    let setup_s = began.elapsed().as_secs_f64();
    let rig = Arc::new(rig);
    let result = measure(workload, scale, seed, seconds, &rig, clients);
    rig.teardown();
    let mut window = result?;
    window.setup_s = vec![setup_s];
    Ok(window)
}

/// A client with the resources it reads.
struct Reader {
    index: usize,
    client: RequesterClient,
    /// `(owner, photo)` pairs read round-robin on the closed loops.
    own: Vec<(usize, usize)>,
}

fn setup(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    traced: bool,
) -> Result<(Rig, Vec<Reader>), String> {
    let shape = match workload {
        Workload::ShareChurn => &scale.churn,
        Workload::WarmRead | Workload::ColdFlow => &scale.closed,
    };
    let rig = Rig::build(shape, seed, traced)?;
    let mut readers = (0..shape.readers)
        .map(|r| {
            Ok(Reader {
                index: r,
                client: rig.client(r)?,
                own: Vec::new(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if workload != Workload::ShareChurn {
        let all = (0..shape.owners).flat_map(|o| (0..shape.album).map(move |k| (o, k)));
        for (i, pair) in all.enumerate() {
            readers[i % CLIENTS].own.push(pair);
        }
    }
    if workload == Workload::WarmRead {
        // Obtain every token, then compile and push the sieves that
        // hold them, so the window runs on tier 1.
        std::thread::scope(|s| {
            let handles: Vec<_> = readers
                .iter_mut()
                .map(|reader| {
                    let rig = &rig;
                    s.spawn(move || {
                        for &(o, k) in &reader.own {
                            let spec = AccessSpec::read(rig.url(o, k));
                            let outcome = reader.client.access(rig.net.as_ref(), &spec);
                            if !outcome.is_granted() {
                                return Err(format!("warm-up access denied: {outcome:?}"));
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().map_err(|_| "warm-up thread panicked".to_owned())?)
        })?;
        rig.deliver_sieves()?;
    }
    Ok((rig, readers))
}

/// What one generator thread hands back.
#[derive(Default)]
struct Tally {
    began: Option<Instant>,
    ended: Option<Instant>,
    accesses: u64,
    granted: u64,
    failed: u64,
    violations: u64,
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    requester: RequesterStats,
}

impl Tally {
    fn access(
        &mut self,
        rig: &Rig,
        client: &mut RequesterClient,
        spec: &AccessSpec,
    ) -> AccessOutcome {
        self.accesses += 1;
        if rig.traced {
            spans::in_span("requester.access", || client.access(rig.net.as_ref(), spec))
        } else {
            client.access(rig.net.as_ref(), spec)
        }
    }

    fn count_client(&mut self, client: &RequesterClient) {
        let stats = client.stats();
        self.requester.accesses += stats.accesses;
        self.requester.cache_hits += stats.cache_hits;
    }

    fn absorb(&mut self, other: Tally) {
        self.began = match (self.began, other.began) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.ended = self.ended.max(other.ended);
        self.accesses += other.accesses;
        self.granted += other.granted;
        self.failed += other.failed;
        self.violations += other.violations;
        self.latency_us.extend(other.latency_us);
        self.late_us.extend(other.late_us);
        self.requester.accesses += other.requester.accesses;
        self.requester.cache_hits += other.requester.cache_hits;
    }
}

fn measure(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    rig: &Arc<Rig>,
    readers: Vec<Reader>,
) -> Result<Window, String> {
    let probe = (workload != Workload::ShareChurn).then_some(scale.probe_every);
    let _ = rig.book.take_edits();
    if rig.traced {
        let _ = spans::drain();
    }
    rig.reset_counters();
    let push_before = rig.am.epoch_push_stats();
    let push = Arc::new(rig.start_push_loop(probe));
    let window = Duration::from_secs_f64(seconds);

    // Readers are dealt to the generator threads round-robin.
    let mut groups: Vec<Vec<Reader>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    for reader in readers {
        groups[reader.index % CLIENTS].push(reader);
    }
    groups.retain(|g| !g.is_empty());
    let start_line = Arc::new(Barrier::new(groups.len() + 1));
    let handles: Vec<_> = groups
        .into_iter()
        .enumerate()
        .map(|(k, group)| {
            let rig = Arc::clone(rig);
            let start_line = Arc::clone(&start_line);
            let push = Arc::clone(&push);
            let scale = scale.clone();
            std::thread::spawn(move || -> Result<Tally, String> {
                start_line.wait();
                match workload {
                    Workload::ShareChurn => {
                        churn_thread(&rig, &scale, seed, k, group, window, &push)
                    }
                    _ => Ok(closed_thread(&rig, workload, group, window)),
                }
            })
        })
        .collect();
    start_line.wait();
    let mut tally = Tally::default();
    let mut failure = None;
    for handle in handles {
        match handle.join() {
            Ok(Ok(t)) => tally.absorb(t),
            Ok(Err(e)) => failure = Some(e),
            Err(_) => failure = Some("generator thread panicked".to_owned()),
        }
    }
    let push = Arc::try_unwrap(push).map_err(|_| "push loop still shared".to_owned())?;
    push.finish()?;
    if let Some(e) = failure {
        return Err(e);
    }

    let push_after = rig.am.epoch_push_stats();
    let (edit_visible_ms, late_edits) = rig.book.take_edits();
    let (access_rts, access_bytes) = rig.access_wire();
    let push_delivered = push_after.delivered - push_before.delivered;
    let push_requeues = push_after.retries - push_before.retries;
    let edits = edit_visible_ms.len() as u64 + late_edits;
    let wall_s = match (tally.began, tally.ended) {
        (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
        _ => 0.0,
    };
    Ok(Window {
        setup_s: Vec::new(),
        wall_s,
        accesses: tally.accesses,
        granted: tally.granted,
        latency_us: sorted(tally.latency_us),
        late_us: sorted(tally.late_us),
        attempted: tally.accesses + edits + push_delivered + push_requeues,
        failed: tally.failed + late_edits + push_requeues,
        violations: tally.violations,
        access_rts,
        access_bytes,
        edit_visible_ms,
        pep: rig.pep(),
        requester: tally.requester,
        push_delivered,
        push_requeues,
        push_body_bytes: rig.push_body_bytes(),
        spans: if rig.traced {
            spans::drain()
        } else {
            Vec::new()
        },
    })
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A closed loop: each reader re-reads its own photos round-robin,
/// dropping its tokens first on `cold_flow`. Every access must be
/// granted.
fn closed_thread(rig: &Rig, workload: Workload, group: Vec<Reader>, window: Duration) -> Tally {
    let mut tally = Tally::default();
    for mut reader in group {
        reader.client.reset_stats();
        let specs: Vec<AccessSpec> = reader
            .own
            .iter()
            .map(|&(o, k)| AccessSpec::read(rig.url(o, k)))
            .collect();
        let began = Instant::now();
        let end = began + window;
        let mut now = began;
        for spec in specs.iter().cycle() {
            if now >= end {
                break;
            }
            if workload == Workload::ColdFlow {
                reader.client.clear_tokens();
            }
            let outcome = tally.access(rig, &mut reader.client, spec);
            let done = Instant::now();
            if outcome.is_granted() {
                tally.granted += 1;
                tally.latency_us.push(micros(done - now));
            } else {
                tally.failed += 1;
                tally.latency_us.push(f64::INFINITY);
            }
            now = done;
        }
        tally.began = Some(began);
        tally.ended = Some(now);
        tally.count_client(&reader.client);
    }
    tally
}

/// One open-loop generator: its own Poisson stream at an equal share of
/// the rate, its own readers, and the edits of its own owners.
fn churn_thread(
    rig: &Rig,
    scale: &Scale,
    seed: u64,
    k: usize,
    mut group: Vec<Reader>,
    window: Duration,
    push: &PushLoop,
) -> Result<Tally, String> {
    let stream = (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let due = schedule::poisson(
        seed ^ stream,
        scale.churn_rate / CLIENTS as f64,
        window.as_secs_f64(),
    );
    let mut rng = SplitMix64::new(seed ^ stream.rotate_left(17));
    let owners = scale.churn.owners;
    let zipf = Zipf::new(owners as u64, ZIPF_S);
    let mine: Vec<usize> = (k..owners).step_by(CLIENTS).collect();
    let mut circles: Vec<BTreeSet<usize>> = rig.circles.clone();
    let mut removed: Vec<Vec<usize>> = vec![Vec::new(); owners];
    for reader in &mut group {
        reader.client.reset_stats();
    }

    let mut tally = Tally::default();
    let origin = Instant::now();
    tally.began = Some(origin);
    for offset in due {
        let due_at = origin + Duration::from_secs_f64(offset);
        let now = Instant::now();
        if due_at > now {
            std::thread::sleep(due_at - now);
        }
        let started = Instant::now();
        tally
            .late_us
            .push(micros(started.saturating_duration_since(due_at)));
        if rng.next_unit() < EDIT_SHARE {
            let o = mine[(rng.next_u64() % mine.len() as u64) as usize];
            let add = !removed[o].is_empty()
                && (removed[o].len() >= MAX_REMOVED || rng.next_unit() < 0.5);
            let change = if add {
                let at = (rng.next_u64() % removed[o].len() as u64) as usize;
                let r = removed[o].swap_remove(at);
                circles[o].insert(r);
                (r, true)
            } else {
                let nth = (rng.next_u64() % circles[o].len() as u64) as usize;
                let r = *circles[o].iter().nth(nth).expect("circle index in range");
                circles[o].remove(&r);
                removed[o].push(r);
                (r, false)
            };
            rig.edit(o, Some(change))?;
            push.wake();
            continue;
        }
        let pick = (rng.next_u64() % group.len() as u64) as usize;
        let reader = &mut group[pick];
        let o = zipf.sample(&mut rng) as usize;
        let photo = (rng.next_u64() % scale.churn.album as u64) as usize;
        let spec = AccessSpec::read(rig.url(o, photo));
        let outcome = tally.access(rig, &mut reader.client, &spec);
        let done = Instant::now();
        let verdict = match &outcome {
            AccessOutcome::Granted(_) => rig.book.judge(o, reader.index, started, done, true),
            AccessOutcome::Denied(_) => rig.book.judge(o, reader.index, started, done, false),
            _ => Verdict::Mismatch,
        };
        match verdict {
            Verdict::Ok => {
                tally.granted += u64::from(outcome.is_granted());
                tally.latency_us.push(micros(done - due_at));
            }
            Verdict::Mismatch => {
                tally.failed += 1;
                tally.latency_us.push(f64::INFINITY);
            }
            Verdict::Violation => {
                // A grant no policy allowed: abort the run.
                tally.violations += 1;
                tally.ended = Some(done);
                return Ok(tally);
            }
        }
    }
    for reader in &group {
        tally.count_client(&reader.client);
    }
    // The window is the schedule's, however early the last arrival was.
    tally.ended = Some(Instant::now().max(origin + window));
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, traced: bool) -> Window {
        let scale = Scale::tiny();
        let w = run(workload, &scale, 11, scale.window_s(workload), traced).expect("smoke run");
        assert_eq!(w.violations, 0, "{workload:?}: grant outside the window");
        assert_eq!(w.failed, 0, "{workload:?}: failed operations");
        assert!(w.accesses > 0 && w.attempted >= w.accesses);
        assert_eq!(w.setup_s.len(), 1);
        assert!(
            !w.edit_visible_ms.is_empty(),
            "{workload:?}: no edit became visible"
        );
        w
    }

    #[test]
    fn tiny_warm_read_runs_on_tier_one() {
        let w = smoke(Workload::WarmRead, false);
        assert_eq!(w.granted, w.accesses);
        assert_eq!(
            w.pep.sieve_hits, w.accesses,
            "every warm access is a sieve hit"
        );
        assert_eq!(w.access_rts, w.accesses, "one round trip per warm access");
    }

    #[test]
    fn tiny_cold_flow_never_touches_the_sieve() {
        let w = smoke(Workload::ColdFlow, false);
        assert_eq!(w.granted, w.accesses);
        assert_eq!(w.pep.sieve_hits, 0);
        assert_eq!(
            w.pep.am_queries, w.accesses,
            "one decision query per cold access"
        );
    }

    #[test]
    fn tiny_share_churn_matches_the_oracle() {
        let w = smoke(Workload::ShareChurn, false);
        assert!(w.granted > 0);
        assert!(!w.late_us.is_empty());
    }

    #[test]
    fn tiny_traced_runs_pair_every_dispatch_with_its_handle() {
        let _only = crate::SPAN_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for workload in [Workload::WarmRead, Workload::ColdFlow, Workload::ShareChurn] {
            let w = smoke(workload, true);
            let count = |n: &str| w.spans.iter().filter(|s| s.name == n).count();
            assert_eq!(count("requester.access") as u64, w.accesses, "{workload:?}");
            assert!(count("host.access") > 0, "{workload:?}");
            assert!(
                count("am.pap") > 0 && count("host.push") > 0,
                "{workload:?}"
            );
            let handled: BTreeSet<u64> = w
                .spans
                .iter()
                .filter(|s| {
                    ["host.", "am.", "idp."]
                        .iter()
                        .any(|p| s.name.starts_with(p))
                })
                .map(|s| s.parent)
                .collect();
            for d in w.spans.iter().filter(|s| s.name == "transport.dispatch") {
                assert!(handled.contains(&d.id), "unpaired dispatch {d:?}");
            }
        }
    }
}
