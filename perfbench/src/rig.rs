//! The deployment under test: one IdP, one AM and a few WebStorage
//! Hosts on loopback HTTP, onboarded through protocol v2, plus the
//! harness pieces that watch owner edits reach the Hosts.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ucam_am::AuthorizationManager;
use ucam_host::WebStorage;
use ucam_policy::{Action, PolicyBody, ResourceRef, Rule, RulePolicy, Subject};
use ucam_requester::RequesterClient;
use ucam_sim::population::SplitMix64;
use ucam_webenv::identity::IdentityProvider;
use ucam_webenv::{
    codec, protocol, HttpTransport, Method, NetStats, Request, Response, SimClock, Status,
    TraceRecorder, Transport, Url, WebApp,
};

use crate::spans::{self, RouteNamer, TimingTransport, TracedApp};

/// The Authorization Manager's authority.
pub const AM: &str = "am.example";
/// The identity provider's authority.
pub const IDP: &str = "idp.example";
/// The friends group every album policy grants read to.
const GROUP: &str = "friends";
/// The one reader of the probe owner's circle; nobody reads as them.
const PROBE_READER: &str = "probe-reader";
/// An edit is a failure when its push is not acknowledged by then.
pub const EDIT_DEADLINE: Duration = Duration::from_secs(5);
/// Longest a set-up push drain may take before the run gives up.
const SETUP_DRAIN_LIMIT: Duration = Duration::from_secs(30);
/// How long the push loop sleeps when nothing was due.
const PUSH_IDLE: Duration = Duration::from_millis(2);

/// Sizes of one deployment.
#[derive(Debug, Clone)]
pub struct Shape {
    /// WebStorage Hosts.
    pub hosts: usize,
    /// Owners, each with one album split over two Hosts.
    pub owners: usize,
    /// Resources per album.
    pub album: usize,
    /// Reader accounts.
    pub readers: usize,
    /// Readers in each owner's friends group at the start.
    pub friends: usize,
}

/// One owner's album.
#[derive(Debug, Clone)]
pub struct Album {
    /// Owner account name.
    pub owner: String,
    /// Hosts holding part of the album (each subscribed to the owner).
    pub hosts: Vec<usize>,
    /// `(host, resource id)` of every photo.
    pub resources: Vec<(usize, String)>,
}

/// The assembled deployment.
pub struct Rig {
    /// The transport the harness dispatches through: a
    /// [`TimingTransport`] in the traced run, the bare transport otherwise.
    pub net: Arc<dyn Transport>,
    base: Arc<dyn Transport>,
    /// Whether spans are recorded.
    pub traced: bool,
    /// The identity provider.
    pub idp: Arc<IdentityProvider>,
    /// The Authorization Manager.
    pub am: Arc<AuthorizationManager>,
    /// The Hosts.
    pub hosts: Vec<Arc<WebStorage>>,
    /// Host authorities, by index.
    pub host_names: Vec<String>,
    /// One album per owner; the last is the probe owner's.
    pub albums: Vec<Album>,
    /// Reader account names.
    pub readers: Vec<String>,
    /// Each owner's friends at the start, by reader index.
    pub circles: Vec<BTreeSet<usize>>,
    /// Edit visibility and the access oracle.
    pub book: Arc<Book>,
    /// The transport the push loop pumps through.
    pub tap: Arc<PushTap>,
}

impl Rig {
    /// Builds and onboards the deployment. Every Host registers through
    /// `/protection/v2/register`, obtains each owner's delegation through
    /// `/protection/v2/delegate` (subscribing to the owner's pushes) and
    /// installs it through its own `/delegate/done` route. Owners then
    /// compose a friends-only read policy over their album, and the
    /// resulting pushes are drained.
    ///
    /// # Errors
    ///
    /// Returns a description of the first set-up step that failed.
    pub fn build(shape: &Shape, seed: u64, traced: bool) -> Result<Rig, String> {
        let http = HttpTransport::new();
        http.trace().set_enabled(false);
        let base: Arc<dyn Transport> = Arc::new(http);
        let timing = traced.then(|| Arc::new(TimingTransport::new(Arc::clone(&base))));
        let net: Arc<dyn Transport> = match &timing {
            Some(t) => t.clone(),
            None => Arc::clone(&base),
        };
        let register = |app: Arc<dyn WebApp>, route: RouteNamer| match &timing {
            Some(t) => base.register(Arc::new(TracedApp::new(app, Arc::clone(t), route))),
            None => base.register(app),
        };

        let clock = base.clock().clone();
        let idp = Arc::new(IdentityProvider::new(IDP, clock.clone()));
        let am = Arc::new(AuthorizationManager::new(AM, clock.clone()));
        am.set_identity_verifier(idp.verifier());
        am.set_audit_cap(4_096);
        am.set_sieve_push(true);
        am.set_invalidation_push(true);
        register(idp.clone(), |_| "idp.handle");
        register(am.clone(), am_route);

        let host_names: Vec<String> = (0..shape.hosts)
            .map(|h| format!("host-{h}.example"))
            .collect();
        let hosts: Vec<Arc<WebStorage>> = host_names
            .iter()
            .map(|name| {
                let host = WebStorage::new(name, clock.clone());
                host.shell().set_identity_verifier(idp.verifier());
                register(host.clone(), host_route);
                host
            })
            .collect();

        // Albums: owner o lives on Host o mod H, and half of the album
        // sits on the next Host, so every edit fans out to two Hosts.
        let mut albums: Vec<Album> = (0..shape.owners)
            .map(|o| {
                album(
                    &format!("owner-{o}"),
                    o % shape.hosts,
                    shape.hosts,
                    shape.album,
                )
            })
            .collect();
        albums.push(album("probe", 0, shape.hosts, 2));
        let readers: Vec<String> = (0..shape.readers).map(|r| format!("reader-{r}")).collect();
        let mut rng = SplitMix64::new(seed ^ 0x0C1B_C1E5);
        let circles: Vec<BTreeSet<usize>> = (0..shape.owners)
            .map(|_| pick(&mut rng, shape.readers, shape.friends))
            .collect();

        let credentials = host_names
            .iter()
            .map(|name| register_host(net.as_ref(), name))
            .collect::<Result<Vec<_>, _>>()?;
        for a in &albums {
            am.register_user(&a.owner);
            idp.register_user(&a.owner, "pw");
            let session = idp
                .login(&a.owner, "pw")
                .map_err(|e| format!("login {}: {e}", a.owner))?
                .token;
            for &h in &a.hosts {
                delegate(
                    net.as_ref(),
                    &host_names[h],
                    &credentials[h],
                    &a.owner,
                    &session,
                )?;
            }
            for (h, id) in &a.resources {
                hosts[*h]
                    .shell()
                    .core
                    .put_resource(id, &a.owner, "file", photo(id))
                    .map_err(|e| format!("put_resource {id}: {e:?}"))?;
            }
        }
        for (o, a) in albums.iter().enumerate() {
            let members: Vec<&str> = match circles.get(o) {
                Some(c) => c.iter().map(|&r| readers[r].as_str()).collect(),
                None => vec![PROBE_READER],
            };
            am.pap(&a.owner, |account| {
                let policy = account.create_policy(
                    "friends-read",
                    PolicyBody::Rules(
                        RulePolicy::new().with_rule(
                            Rule::permit()
                                .for_subject(Subject::Group(GROUP.into()))
                                .for_action(Action::Read),
                        ),
                    ),
                );
                for (h, id) in &a.resources {
                    account.assign_realm(ResourceRef::new(&host_names[*h], id), "album");
                }
                for m in &members {
                    account.add_group_member(GROUP, m);
                }
                account.link_general("album", &policy)
            })
            .map_err(|e| format!("pap {}: {e:?}", a.owner))?
            .map_err(|e| format!("link {}: {e:?}", a.owner))?;
        }
        for r in &readers {
            idp.register_user(r, "pw");
        }

        let host_index = host_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let owner_index = albums
            .iter()
            .enumerate()
            .map(|(i, a)| (a.owner.clone(), i))
            .collect();
        let book = Arc::new(Book::new(
            albums.iter().map(|a| a.hosts.clone()).collect(),
            &circles,
        ));
        let tap = Arc::new(PushTap {
            inner: Arc::clone(&net),
            book: Arc::clone(&book),
            host_index,
            owner_index,
            wire_bytes: AtomicU64::new(0),
            body_bytes: AtomicU64::new(0),
        });
        let rig = Rig {
            net,
            base,
            traced,
            idp,
            am,
            hosts,
            host_names,
            albums,
            readers,
            circles,
            book,
            tap,
        };
        rig.drain_pushes()?;
        Ok(rig)
    }

    /// A client for reader `r`, logged in at the IdP.
    ///
    /// # Errors
    ///
    /// Returns the IdP's refusal.
    pub fn client(&self, r: usize) -> Result<RequesterClient, String> {
        let name = &self.readers[r];
        let assertion = self
            .idp
            .login(name, "pw")
            .map_err(|e| format!("login {name}: {e}"))?;
        let mut client = RequesterClient::new(&format!("requester:{name}"));
        client.set_subject_token(Some(assertion.token));
        Ok(client)
    }

    /// The URL of photo `k` of owner `o`.
    #[must_use]
    pub fn url(&self, o: usize, k: usize) -> Url {
        let (h, id) = &self.albums[o].resources[k];
        Url::new(&self.host_names[*h], &format!("/{id}"))
    }

    /// Recompiles every owner's sieve and delivers it to the Hosts.
    ///
    /// # Errors
    ///
    /// Fails when the pushes do not drain in time.
    pub fn deliver_sieves(&self) -> Result<(), String> {
        self.am.schedule_sieve_refresh();
        self.drain_pushes()
    }

    /// Pumps until no push is pending, advancing the logical clock so
    /// requeued pushes come due. Bounded by [`SETUP_DRAIN_LIMIT`].
    fn drain_pushes(&self) -> Result<(), String> {
        let started = Instant::now();
        while self.am.pending_epoch_pushes() > 0 {
            if started.elapsed() > SETUP_DRAIN_LIMIT {
                return Err(format!(
                    "{} pushes still pending after {:?}",
                    self.am.pending_epoch_pushes(),
                    SETUP_DRAIN_LIMIT
                ));
            }
            if self.am.pump_epoch_pushes(self.tap.as_ref()) == 0 {
                self.net.clock().advance_ms(25);
            }
        }
        Ok(())
    }

    /// Zeroes the message, PEP and push-tap counters.
    pub fn reset_counters(&self) {
        self.net.reset_stats();
        for host in &self.hosts {
            host.shell().core.reset_stats();
        }
        self.tap.wire_bytes.store(0, Ordering::Relaxed);
        self.tap.body_bytes.store(0, Ordering::Relaxed);
    }

    /// Sum of every Host's PEP counters.
    #[must_use]
    pub fn pep(&self) -> ucam_host::PepStats {
        let mut sum = ucam_host::PepStats::default();
        for host in &self.hosts {
            let s = host.shell().core.stats();
            sum.sieve_hits += s.sieve_hits;
            sum.cache_hits += s.cache_hits;
            sum.am_queries += s.am_queries;
            sum.sieve_rejects += s.sieve_rejects;
        }
        sum
    }

    /// Message statistics of the accesses alone: push round trips and
    /// bytes (counted by the tap) are taken out.
    #[must_use]
    pub fn access_wire(&self) -> (u64, u64) {
        let stats = self.net.stats();
        let push_rts: u64 = stats
            .per_edge
            .iter()
            .filter(|((from, _), _)| from == AM)
            .map(|(_, n)| n)
            .sum();
        (
            stats.round_trips - push_rts,
            stats
                .bytes_on_wire
                .saturating_sub(self.tap.wire_bytes.load(Ordering::Relaxed)),
        )
    }

    /// Push request body bytes delivered since the last reset.
    #[must_use]
    pub fn push_body_bytes(&self) -> u64 {
        self.tap.body_bytes.load(Ordering::Relaxed)
    }

    /// Runs one owner edit: adds (`member`) or removes `reader` from
    /// owner `o`'s friends, or, with no reader, toggles the probe
    /// owner's circle. The book tracks it until every Host subscribed
    /// to the owner has acknowledged the push carrying the new epoch.
    ///
    /// # Errors
    ///
    /// Returns the AM's refusal.
    pub fn edit(&self, o: usize, change: Option<(usize, bool)>) -> Result<(), String> {
        let started = self.book.begin(o, change);
        let owner = &self.albums[o].owner;
        let member = change.map_or(PROBE_READER, |(r, _)| self.readers[r].as_str());
        let add = change.map_or_else(|| self.book.toggle_probe(), |(_, m)| m);
        let run = || {
            self.am.pap(owner, |account| {
                if add {
                    account.add_group_member(GROUP, member);
                } else {
                    account.remove_group_member(GROUP, member);
                }
            })
        };
        if self.traced {
            spans::in_span("am.pap", run)
        } else {
            run()
        }
        .map_err(|e| format!("pap {owner}: {e:?}"))?;
        self.book.commit(o, self.am.policy_epoch(owner), started);
        Ok(())
    }

    /// Starts the AM's push loop on its own thread. With `probe_every`,
    /// the loop also edits the probe owner's circle on that cadence.
    #[must_use]
    pub fn start_push_loop(self: &Arc<Self>, probe_every: Option<Duration>) -> PushLoop {
        let stop = Arc::new(AtomicBool::new(false));
        let rig = Arc::clone(self);
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || rig.push_loop(probe_every, &flag));
        PushLoop { stop, handle }
    }

    fn push_loop(&self, probe_every: Option<Duration>, stop: &AtomicBool) -> Result<(), String> {
        let origin = Instant::now();
        let clock_origin = self.net.clock().now_ms();
        let probe = self.albums.len() - 1;
        let mut next_probe = probe_every.map(|p| origin + p);
        let mut stopped_at: Option<Instant> = None;
        loop {
            let now = Instant::now();
            // Logical time follows the wall clock, so push backoff and
            // token lifetimes mean what they say.
            let target = clock_origin + u64::try_from(origin.elapsed().as_millis()).unwrap_or(0);
            let logical = self.net.clock().now_ms();
            if target > logical {
                self.net.clock().advance_ms(target - logical);
            }
            if stopped_at.is_none() && stop.load(Ordering::Acquire) {
                stopped_at = Some(now);
                next_probe = None;
            }
            if let (Some(due), Some(every)) = (next_probe, probe_every) {
                if now >= due {
                    self.edit(probe, None)?;
                    next_probe = Some(due + every);
                }
            }
            let pump = || self.am.pump_epoch_pushes(self.tap.as_ref());
            let delivered = if self.traced {
                spans::in_span("am.pump", pump)
            } else {
                pump()
            };
            self.book.expire(now);
            if let Some(at) = stopped_at {
                if self.book.pending() == 0 || now.duration_since(at) > EDIT_DEADLINE {
                    self.book.expire(now + EDIT_DEADLINE);
                    return Ok(());
                }
            }
            if delivered == 0 {
                std::thread::park_timeout(PUSH_IDLE);
            }
        }
    }

    /// Unregisters every application, which stops and joins the
    /// transport's workers.
    pub fn teardown(&self) {
        for name in self.host_names.iter().map(String::as_str).chain([AM, IDP]) {
            self.base.unregister(name);
        }
    }
}

/// The running push loop.
pub struct PushLoop {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Result<(), String>>,
}

impl PushLoop {
    /// Wakes the loop (an edit was queued).
    pub fn wake(&self) {
        self.handle.thread().unpark();
    }

    /// Stops the loop once pending edits are visible or past their
    /// deadline, and joins it.
    ///
    /// # Errors
    ///
    /// Returns the loop's own failure, or its panic.
    pub fn finish(self) -> Result<(), String> {
        self.stop.store(true, Ordering::Release);
        self.handle.thread().unpark();
        self.handle
            .join()
            .map_err(|_| "push loop panicked".to_owned())?
    }
}

fn album(owner: &str, home: usize, hosts: usize, size: usize) -> Album {
    let spread = hosts.min(2);
    let resources = (0..size)
        .map(|k| {
            (
                (home + k % spread) % hosts,
                format!("files/{owner}/p{k}.jpg"),
            )
        })
        .collect();
    Album {
        owner: owner.to_owned(),
        hosts: (0..spread).map(|s| (home + s) % hosts).collect(),
        resources,
    }
}

/// Placeholder photo bytes, a few hundred per resource.
fn photo(id: &str) -> Vec<u8> {
    id.bytes().cycle().take(512).collect()
}

/// `k` distinct indices below `n`, drawn from `rng`.
fn pick(rng: &mut SplitMix64, n: usize, k: usize) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    while out.len() < k.min(n) {
        out.insert((rng.next_u64() % n as u64) as usize);
    }
    out
}

fn register_host(net: &dyn Transport, host: &str) -> Result<protocol::RegistrationReply, String> {
    let resp = net.dispatch(
        host,
        Request::to_url(Method::Post, Url::new(AM, protocol::REGISTER_PATH)).with_body(
            protocol::RegisterBody {
                kind: "host".into(),
                authority: host.to_owned(),
            }
            .to_json(),
        ),
    );
    if resp.status != Status::Created {
        return Err(format!("register {host}: {:?} {}", resp.status, resp.body));
    }
    protocol::RegistrationReply::from_json(&resp.body).map_err(|e| format!("register reply: {e:?}"))
}

fn delegate(
    net: &dyn Transport,
    host: &str,
    cred: &protocol::RegistrationReply,
    owner: &str,
    session: &str,
) -> Result<(), String> {
    let resp = net.dispatch(
        host,
        Request::to_url(Method::Post, Url::new(AM, protocol::DELEGATE_V2_PATH))
            .with_param("registrant_id", &cred.registrant_id)
            .with_param("secret", &cred.secret)
            .with_param("user", owner)
            .with_param("subject_token", session)
            .with_param("subscribe", "1"),
    );
    if resp.status != Status::Created {
        return Err(format!("delegate {owner}@{host}: {}", resp.body));
    }
    let reply = protocol::DelegateReply::from_json(&resp.body)
        .map_err(|e| format!("delegate reply: {e:?}"))?;
    let done = net.dispatch(
        AM,
        Request::to_url(Method::Get, Url::new(host, "/delegate/done"))
            .with_param("user", owner)
            .with_param("am", AM)
            .with_param("host_token", &reply.host_token)
            .with_param("delegation_id", &reply.delegation_id),
    );
    if !done.status.is_success() {
        return Err(format!("delegate/done {owner}@{host}: {}", done.body));
    }
    Ok(())
}

fn host_route(req: &Request) -> &'static str {
    match req.url.path() {
        p if p == protocol::EPOCH_PUSH_PATH => "host.push",
        p if p.starts_with("/files/") => "host.access",
        _ => "host.other",
    }
}

fn am_route(req: &Request) -> &'static str {
    match req.url.path() {
        "/authorize" => "am.authorize",
        protocol::DECISION_PATH
        | protocol::LEGACY_DECISION_PATH
        | protocol::DECISION_V2_PATH
        | protocol::BATCH_DECISIONS_PATH => "am.decide",
        _ => "am.other",
    }
}

/// What an access outcome says about the policy the Host enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Matches a policy in force at some point of the access.
    Ok,
    /// A denial the policy never called for.
    Mismatch,
    /// A grant no policy in force during the access allowed.
    Violation,
}

/// One change of a reader's membership in an owner's circle.
#[derive(Debug, Clone, Copy)]
struct Change {
    /// When the owner's edit began.
    start: Instant,
    /// When every subscribed Host acknowledged it; `None` while in flight.
    ack: Option<Instant>,
    member: bool,
}

#[derive(Debug)]
struct PendingEdit {
    owner: usize,
    epoch: u64,
    started: Instant,
    change: Option<usize>,
}

#[derive(Debug, Default)]
struct BookState {
    /// Membership history per (owner, reader), oldest first.
    history: HashMap<(usize, usize), Vec<Change>>,
    /// Latest acknowledged epoch per (host, owner), and when.
    acked: HashMap<(usize, usize), (u64, Instant)>,
    pending: Vec<PendingEdit>,
    visible_ms: Vec<f64>,
    late: u64,
    probe_member: bool,
}

/// Owner edits in flight, their visibility times, and the access
/// oracle built on them.
#[derive(Debug)]
pub struct Book {
    album_hosts: Vec<Vec<usize>>,
    state: Mutex<BookState>,
}

impl Book {
    fn new(album_hosts: Vec<Vec<usize>>, circles: &[BTreeSet<usize>]) -> Book {
        let origin = Instant::now();
        let mut state = BookState {
            probe_member: true,
            ..BookState::default()
        };
        for (o, circle) in circles.iter().enumerate() {
            for &r in circle {
                state.history.insert(
                    (o, r),
                    vec![Change {
                        start: origin,
                        ack: Some(origin),
                        member: true,
                    }],
                );
            }
        }
        Book {
            album_hosts,
            state: Mutex::new(state),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BookState> {
        self.state
            .lock()
            .expect("edit book poisoned by a panicking thread")
    }

    /// Opens an edit of owner `o`: from now on either membership is
    /// acceptable for the reader it changes. Returns its start time.
    fn begin(&self, o: usize, change: Option<(usize, bool)>) -> (Instant, Option<usize>) {
        let start = Instant::now();
        if let Some((r, member)) = change {
            self.lock().history.entry((o, r)).or_default().push(Change {
                start,
                ack: None,
                member,
            });
        }
        (start, change.map(|(r, _)| r))
    }

    fn toggle_probe(&self) -> bool {
        let mut state = self.lock();
        state.probe_member = !state.probe_member;
        state.probe_member
    }

    fn commit(&self, owner: usize, epoch: u64, (started, change): (Instant, Option<usize>)) {
        let mut state = self.lock();
        state.pending.push(PendingEdit {
            owner,
            epoch,
            started,
            change,
        });
        self.settle(&mut state);
    }

    /// Records that `host` acknowledged `owner`'s push at `epoch`.
    fn ack(&self, host: usize, owner: usize, epoch: u64, at: Instant) {
        let mut state = self.lock();
        let slot = state.acked.entry((host, owner)).or_insert((0, at));
        if epoch >= slot.0 {
            *slot = (epoch, at);
        }
        self.settle(&mut state);
    }

    fn settle(&self, state: &mut BookState) {
        let mut i = 0;
        while i < state.pending.len() {
            let edit = &state.pending[i];
            let acks: Option<Vec<Instant>> = self.album_hosts[edit.owner]
                .iter()
                .map(|&h| {
                    state
                        .acked
                        .get(&(h, edit.owner))
                        .filter(|(e, _)| *e >= edit.epoch)
                        .map(|&(_, at)| at)
                })
                .collect();
            let Some(at) = acks.and_then(|a| a.into_iter().max()) else {
                i += 1;
                continue;
            };
            let edit = state.pending.swap_remove(i);
            let at = at.max(edit.started);
            state
                .visible_ms
                .push(at.duration_since(edit.started).as_secs_f64() * 1e3);
            if let Some(r) = edit.change {
                if let Some(change) = state
                    .history
                    .get_mut(&(edit.owner, r))
                    .and_then(|h| h.iter_mut().rev().find(|c| c.start == edit.started))
                {
                    change.ack = Some(at);
                }
            }
        }
    }

    /// Counts edits older than [`EDIT_DEADLINE`] at `now` as failed and
    /// stops waiting for them (their window stays open).
    fn expire(&self, now: Instant) {
        let mut state = self.lock();
        let before = state.pending.len();
        state
            .pending
            .retain(|e| now.duration_since(e.started) <= EDIT_DEADLINE);
        state.late += (before - state.pending.len()) as u64;
    }

    fn pending(&self) -> usize {
        self.lock().pending.len()
    }

    /// Takes the visibility times (ms) and late-edit count so far.
    #[must_use]
    pub fn take_edits(&self) -> (Vec<f64>, u64) {
        let mut state = self.lock();
        (
            std::mem::take(&mut state.visible_ms),
            std::mem::take(&mut state.late),
        )
    }

    /// Judges an access by `reader` to owner `o`'s album over
    /// `[start, end]`: the outcome must match the circle before or
    /// after any edit in flight during the access, and the edited
    /// circle once that edit is acknowledged.
    #[must_use]
    pub fn judge(
        &self,
        o: usize,
        reader: usize,
        start: Instant,
        end: Instant,
        granted: bool,
    ) -> Verdict {
        let state = self.lock();
        let history = state
            .history
            .get(&(o, reader))
            .map_or(&[][..], Vec::as_slice);
        let mut possible = [false; 2];
        let settled = history
            .iter()
            .rev()
            .find(|c| c.start <= start)
            .is_some_and(|c| c.member);
        possible[usize::from(settled)] = true;
        for (i, c) in history.iter().enumerate() {
            if c.start <= end && c.ack.is_none_or(|a| a > start) {
                possible[usize::from(c.member)] = true;
                let before = i.checked_sub(1).is_some_and(|p| history[p].member);
                possible[usize::from(before)] = true;
            }
        }
        match (granted, possible[usize::from(granted)]) {
            (_, true) => Verdict::Ok,
            (true, false) => Verdict::Violation,
            (false, false) => Verdict::Mismatch,
        }
    }
}

/// The transport the AM's push loop pumps through: passes every push
/// on, and records each acknowledgement in the [`Book`] with the wire
/// and body bytes it carried.
pub struct PushTap {
    inner: Arc<dyn Transport>,
    book: Arc<Book>,
    host_index: HashMap<String, usize>,
    owner_index: HashMap<String, usize>,
    wire_bytes: AtomicU64,
    body_bytes: AtomicU64,
}

impl Transport for PushTap {
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
        self.dispatch_pipelined(from, vec![req])
            .pop()
            .expect("one response per request")
    }
    fn dispatch_pipelined(&self, from: &str, reqs: Vec<Request>) -> Vec<Response> {
        let meta: Vec<_> = reqs
            .iter()
            .map(|req| {
                let host = self.host_index.get(req.url.authority()).copied();
                let owner = req
                    .param("owner")
                    .and_then(|o| self.owner_index.get(o))
                    .copied();
                let epoch = req.param("epoch").and_then(|e| e.parse::<u64>().ok());
                (
                    host.zip(owner).zip(epoch),
                    codec::request_wire_len(from, req),
                    req.body.len(),
                )
            })
            .collect();
        let resps = self.inner.dispatch_pipelined(from, reqs);
        let at = Instant::now();
        for ((key, wire, body), resp) in meta.into_iter().zip(&resps) {
            if resp.transport_error().is_some() || !resp.status.is_success() {
                continue;
            }
            self.wire_bytes.fetch_add(
                (wire + codec::response_wire_len(resp)) as u64,
                Ordering::Relaxed,
            );
            self.body_bytes.fetch_add(body as u64, Ordering::Relaxed);
            if let Some(((host, owner), epoch)) = key {
                self.book.ack(host, owner, epoch, at);
            }
        }
        resps
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_either_side_only_while_an_edit_is_in_flight() {
        let o = 0;
        let circles = vec![BTreeSet::from([1])];
        let book = Book::new(vec![vec![0, 1]], &circles);
        let t = |ms| Instant::now() + Duration::from_millis(ms);
        // Reader 1 is a friend; reader 2 is not.
        assert_eq!(book.judge(o, 1, t(1), t(2), true), Verdict::Ok);
        assert_eq!(book.judge(o, 2, t(1), t(2), true), Verdict::Violation);
        assert_eq!(book.judge(o, 1, t(1), t(2), false), Verdict::Mismatch);
        assert_eq!(book.judge(o, 2, t(1), t(2), false), Verdict::Ok);

        // Remove reader 1: both outcomes pass until both Hosts ack.
        let started = book.begin(o, Some((1, false)));
        book.commit(o, 7, started);
        let soon = Instant::now() + Duration::from_millis(1);
        assert_eq!(book.judge(o, 1, soon, soon, true), Verdict::Ok);
        assert_eq!(book.judge(o, 1, soon, soon, false), Verdict::Ok);
        book.ack(0, o, 7, Instant::now());
        assert_eq!(book.pending(), 1, "one Host of two acknowledged");
        book.ack(1, o, 7, Instant::now());
        assert_eq!(book.pending(), 0);
        let after = Instant::now() + Duration::from_millis(5);
        assert_eq!(book.judge(o, 1, after, after, true), Verdict::Violation);
        assert_eq!(book.judge(o, 1, after, after, false), Verdict::Ok);
        // An access that began before the ack may still see the grant.
        assert_eq!(book.judge(o, 1, started.0, after, true), Verdict::Ok);
        let (visible, late) = book.take_edits();
        assert_eq!(visible.len(), 1);
        assert_eq!(late, 0);
    }

    #[test]
    fn unacknowledged_edits_fail_at_the_deadline() {
        let book = Book::new(vec![vec![0]], &[BTreeSet::new()]);
        let started = book.begin(0, Some((3, true)));
        book.commit(0, 2, started);
        book.expire(Instant::now());
        assert_eq!(book.pending(), 1);
        book.expire(Instant::now() + EDIT_DEADLINE + Duration::from_millis(1));
        assert_eq!(book.pending(), 0);
        assert_eq!(book.take_edits(), (Vec::new(), 1));
    }
}
