//! Seeded chaos harness over the ZooKeeper-backed control plane.
//!
//! The [`Chaos`] scenario wires the HA control plane ([`HaControlPlane`]),
//! leased KV application servers, and live client traffic into one
//! discrete-event simulation, then injects a seeded fault schedule
//! ([`sm_sim::faults::fault_plan`]): mini-SM crashes, server crashes,
//! bare ZK session expiries, network partitions (symmetric and
//! asymmetric), and lossy-net windows, each with a paired recovery.
//!
//! Every inter-process message travels through the kit's
//! [`sm_sim::net::SimNet`]: client
//! requests, forwards, control-plane RPCs and their acks, server
//! heartbeats and registrations. A partitioned server therefore
//! experiences real silence — its heartbeats stop arriving, ZooKeeper
//! times its session out, and the control plane fails its shards over —
//! while the server itself only learns of trouble the way a real one
//! does: heartbeat acks stop coming back, and the §3.2 self-fence timer
//! ([`SelfFenceTimer`]) forces it to wipe *before* ZK's session timeout
//! can promote a replacement. The safety rule,
//! `SELF_FENCE_TIMEOUT + HEARTBEAT_INTERVAL < ZK_SESSION_TIMEOUT`, is
//! a compile-time assertion over this world's constants.
//!
//! The paper's safety claims are checked continuously by the
//! [`sm_sim::Oracle`]: at most one unfenced willing primary per shard (checked
//! at every served request and on periodic sweeps), no
//! acknowledged-then-lost request or stale read (every write is tagged
//! with a monotone counter; every read must observe its key's latest
//! acknowledged tag), registry/ZK snapshot agreement at quiescence, and
//! router/assignment convergence after the last heal.
//!
//! Fault indices map directly to ids (`Fault::MiniSmCrash(i)` targets
//! `MiniSmId(i)`); mini-SM ids are assigned densely from zero at
//! deployment, so the plan's every-mini-SM coverage guarantee carries
//! over to ids. The whole run is a pure function of `(config, plan)`:
//! same seed and plan, byte-identical trace.

use crate::client::{RetryPolicy, Step, Try};
use crate::kit::{self, Outcome, Params, Plan, Report, Resolution, Scenario, Wire};
use crate::kv::{ExternalStore, KvServer};
use crate::AppResponse;
use sm_core::exchange::Host as RpcHost;
use sm_core::ha::{paths, HaControlPlane, HaStats, SelfFenceTimer, ServerLease};
use sm_core::{ApplicationManager, OrchCommand, Partition, ServerRpc};
use sm_routing::ResolvedMap;
use sm_sim::faults::{fault_plan, Fault, FaultPlanConfig, FaultProfile};
use sm_sim::net::Endpoint;
use sm_sim::{SimDuration, SimTime};
use sm_types::{
    AppId, AppKey, AppPolicy, LoadVector, Metric, MiniSmId, ServerId, ShardId, ShardingSpec,
};
use sm_zk::{WatchEvent, ZkStore};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Gap between one client's requests.
const REQUEST_INTERVAL: SimDuration = SimDuration::from_millis(100);
/// How clients retry: the tries must outlast the longest outage.
pub(crate) const RETRY: RetryPolicy = RetryPolicy {
    attempts: 120,
    backoff: SimDuration::from_millis(500),
    max_hops: 4,
};
/// How often each server heartbeats ZooKeeper.
const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// §3.2: a server wipes itself after this long without a heartbeat ack.
const SELF_FENCE_TIMEOUT: SimDuration = SimDuration::from_secs(5);
/// ZooKeeper expires a session after this long without heartbeats.
const ZK_SESSION_TIMEOUT: SimDuration = SimDuration::from_secs(8);

// §3.2: a server fences itself at least one heartbeat before ZooKeeper
// can expire its session and the control plane promote a replacement.
const _: () = assert!(SELF_FENCE_TIMEOUT.0 + HEARTBEAT_INTERVAL.0 < ZK_SESSION_TIMEOUT.0);

/// Shape of one chaos run. The fault schedule is derived from `seed`
/// (via [`FaultPlanConfig::covering`] or `profile`), so the whole run
/// is reproducible from this config alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed for traffic, fault schedule, and every other random draw.
    pub seed: u64,
    /// Application servers (ids `0..servers`).
    pub servers: u32,
    /// Shards across the whole app.
    pub shards: u64,
    /// Concurrent request generators.
    pub clients: u32,
    /// Clients stop issuing new requests here (in-flight ones drain).
    pub traffic_end: SimTime,
    /// Periodic scans and router refreshes stop here; must be past the
    /// last scheduled recovery so the final scan sees quiescence.
    pub end: SimTime,
    /// Fault-plan shape: `None` replays the PR 3 covering plan
    /// (crashes and expiries only); `Some(p)` uses the DST profile.
    pub profile: Option<FaultProfile>,
    /// Client keys are drawn from `0..key_space` so reads exercise
    /// previously-written keys; `0` means the full u64 space (the PR 3
    /// traffic shape).
    pub key_space: u64,
    /// DST mutation switch: disables §3.2 self-fencing so the oracle
    /// can demonstrate it catches the resulting dual primaries and
    /// stale reads. Never set outside `tests/dst.rs` and the swarm's
    /// `--mutate`.
    pub disable_self_fencing: bool,
}

impl ChaosConfig {
    /// A run sized to meet the chaos acceptance floors while staying
    /// fast enough for the test gate.
    pub fn covering(seed: u64) -> Self {
        Self {
            seed,
            servers: 20,
            shards: 64,
            clients: 4,
            traffic_end: SimTime::from_secs(365),
            end: SimTime::from_secs(400),
            profile: None,
            key_space: 0,
            disable_self_fencing: false,
        }
    }

    /// The compact shape the DST swarm sweeps: a smaller fleet and a
    /// one-minute fault window keep a single seeded run cheap enough
    /// to explore many seeds per profile.
    pub fn dst(seed: u64, profile: FaultProfile) -> Self {
        Self {
            servers: 10,
            shards: 32,
            clients: 3,
            traffic_end: SimTime::from_secs(140),
            end: SimTime::from_secs(160),
            profile: Some(profile),
            key_space: 512,
            ..Self::covering(seed)
        }
    }
}

/// One client request's identity and routing state, carried through
/// deliveries, forwards, and retries.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    /// Unique request id (oracle bookkeeping and duplicate detection).
    pub id: u64,
    /// Issuing client (the network source endpoint).
    pub client: u32,
    /// Key being read/written (as its u64 seed).
    pub key: u64,
    /// True for a put, false for a get.
    pub write: bool,
    /// Shard the key maps to.
    pub shard: ShardId,
    /// The try under way and the forwards it followed.
    pub(crate) tries: Try,
    /// When the request was first issued.
    pub sent_at: SimTime,
}

/// Event alphabet of the chaos scenario (the kit carries RPCs, fault
/// hits, and timeouts).
#[derive(Debug)]
pub enum ChaosEvent {
    /// Client `i` issues its next request.
    ClientTick(u32),
    /// A request (or one duplicated copy of it) arrives at a server.
    Deliver {
        /// The request.
        req: Req,
        /// Server this copy was addressed to.
        target: ServerId,
    },
    /// A failed try backs off and re-routes.
    Retry {
        /// The request, on its next try.
        req: Req,
    },
    /// A ZooKeeper watch notification is delivered (ordered session
    /// channel: never dropped, never reordered).
    ZkNotify(WatchEvent),
    /// Clients re-read the shard map (service discovery refresh).
    RouterRefresh,
    /// Server `i` runs its heartbeat step: self-fence check, beat,
    /// resignation, or re-registration.
    HeartbeatTick(u32),
    /// Server `i`'s heartbeat arrives at ZooKeeper.
    BeatArrive(u32),
    /// ZooKeeper's heartbeat ack arrives back at server `i`.
    BeatAck(u32),
    /// Server `i`'s resignation (it self-fenced with a live session)
    /// arrives at ZooKeeper.
    ResignArrive(u32),
    /// Server `i`'s re-registration attempt arrives at ZooKeeper.
    RegisterArrive(u32),
}

/// Counters accumulated over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Requests served successfully.
    pub served: u64,
    /// Requests that exhausted their retry budget.
    pub dropped: u64,
    /// Retry attempts across all requests.
    pub retries: u64,
    /// Forwarding hops taken (graceful migration in action).
    pub forwards: u64,
    /// Shard-scans that found more than one willing primary.
    pub dual_primary: u64,
    /// Server container crashes injected.
    pub server_crashes: u64,
    /// Bare session expiries injected.
    pub session_expiries: u64,
    /// Mini-SM crashes injected.
    pub minism_crashes: u64,
    /// Servers that wiped themselves via the §3.2 self-fence timer.
    pub self_fences: u64,
    /// Sessions ZooKeeper expired for missing heartbeats (partitions).
    pub zk_expiries: u64,
    /// Network partitions injected.
    pub net_partitions: u64,
    /// Control-plane RPCs that timed out unanswered.
    pub rpc_timeouts: u64,
}

/// What a chaos run reports beyond the common [`Report`] fields.
#[derive(Clone, Debug, Default)]
pub struct ChaosExtra {
    /// Control-plane counters (failovers, restores, fenced writes).
    pub ha: HaStats,
    /// Mini-SM ids crashed at least once.
    pub crashed_minisms: BTreeSet<u32>,
    /// Servers whose bare session expiry was injected.
    pub expired_sessions: BTreeSet<u32>,
    /// Completed control-plane recoveries, milliseconds each.
    pub recoveries_ms: Vec<f64>,
    /// Mini-SMs the plan targets (coverage denominator).
    pub initial_minisms: usize,
}

/// Outcome of one chaos run.
pub type ChaosReport = Report<ChaosStats, ChaosExtra>;

/// One application server process: its KV state, its ZK liveness
/// session, and its *server-side* view of the fencing contract.
///
/// `lease` is ZooKeeper's side (the ephemeral session object) — the
/// world holds it here for convenience, but the server never reads it.
/// What the server knows is `fenced` plus the [`SelfFenceTimer`]: it
/// stops serving when heartbeat acks stop, not when ZK says so.
struct Host {
    kv: KvServer,
    lease: Option<ServerLease>,
    process_up: bool,
    fenced: bool,
    fence: SelfFenceTimer,
}

impl Host {
    /// Whether the server would accept work right now, *by its own
    /// lights*: the process is up and it has not self-fenced. A server
    /// whose ZK session quietly expired behind a partition still says
    /// yes — that is the §3.2 hazard self-fencing exists to close.
    fn serving(&self) -> bool {
        self.process_up && !self.fenced
    }
}

/// What the chaos scenario's handlers work through.
type Cx<'a, 'c> = kit::Cx<'a, 'c, ChaosEvent>;

/// The chaos scenario.
pub struct Chaos {
    cfg: ChaosConfig,
    zk: ZkStore,
    cp: HaControlPlane,
    spec: Rc<ShardingSpec>,
    hosts: BTreeMap<ServerId, Host>,
    partitions: Vec<Partition>,
    /// The clients' routing kernel of each partition, parallel to
    /// `partitions` and rebuilt on every refresh from the orchestrator
    /// that runs it. While a partition's mini-SM is down, its clients
    /// keep the kernel they last built.
    kernels: Vec<ResolvedMap>,
    /// ZooKeeper's view of each server's last heartbeat.
    last_beat: BTreeMap<ServerId, SimTime>,
    next_req: u64,
    /// Monotone write counter: the value stored for every put and the
    /// tag the oracle checks reads against.
    write_tag: u64,
    stats: ChaosStats,
    extra: ChaosExtra,
    /// Start of the oldest unfinished recovery, if any.
    recovering_since: Option<SimTime>,
}

/// Mini-SM ids a plan crashes at least once.
fn targeted_minisms(plan: &[(SimTime, Fault)]) -> BTreeSet<u32> {
    plan.iter()
        .filter_map(|(_, f)| match f {
            Fault::MiniSmCrash(m) => Some(*m),
            _ => None,
        })
        .collect()
}

/// Queues watch notifications for delivery over the ordered session
/// channel — a real ZK client's event thread never drops or reorders
/// notifications while the session lives.
fn dispatch_zk(events: Vec<WatchEvent>, cx: &mut Cx<'_, '_>) {
    let delay = cx.net.ordered_delay();
    for event in events {
        cx.schedule_in(delay, ChaosEvent::ZkNotify(event));
    }
}

impl Chaos {
    /// Rebuilds the kernel of every partition whose orchestrator runs.
    /// Not gated on the map version: a map's content can change before
    /// its version does.
    fn refresh_router(&mut self) {
        for (p, kernel) in self.partitions.iter().zip(&mut self.kernels) {
            if let Some(orch) = self.cp.orchestrator(p.id) {
                *kernel = ResolvedMap::build(None, &orch.current_map());
            }
        }
    }

    /// Where the clients route `shard`: the kernel of its partition.
    /// The app is primary-only, so no route keeps a round-robin cursor.
    fn route_shard(&self, shard: ShardId) -> Option<ServerId> {
        let mut kernels = self.partitions.iter().zip(&self.kernels);
        let (_, kernel) = kernels.find(|(p, _)| p.shards.contains(&shard))?;
        kernel.route_shard(shard, &mut 0).ok().map(|d| d.server)
    }

    fn client_tick(&mut self, client: u32, cx: &mut Cx<'_, '_>) {
        if cx.now() < self.cfg.traffic_end {
            cx.schedule_in(REQUEST_INTERVAL, ChaosEvent::ClientTick(client));
        }
        let key = if self.cfg.key_space > 0 {
            cx.rng().range_u64(0, self.cfg.key_space)
        } else {
            cx.rng().next_u64()
        };
        let write = cx.rng().chance(0.5);
        let Some(shard) = self.spec.shard_for(&AppKey::from_u64(key)) else {
            return;
        };
        self.next_req += 1;
        let req = Req {
            id: self.next_req,
            client,
            key,
            write,
            shard,
            tries: Try::default(),
            sent_at: cx.now(),
        };
        cx.oracle.request_issued(req.id);
        self.route(req, cx);
    }

    /// Routes (or re-routes) a request via the client-visible map and
    /// transmits it; a message the net eats surfaces as a client-side
    /// timeout and retry.
    fn route(&mut self, req: Req, cx: &mut Cx<'_, '_>) {
        if cx.oracle.already_served(req.id) {
            return; // a duplicated copy already completed this request
        }
        let src = Endpoint::Client(req.client);
        match self.route_shard(req.shard) {
            Some(target) => self.transmit(req, src, target, cx),
            None => self.next_try(req, src, None, cx),
        }
    }

    /// Puts one hop of `req` on the wire from `src` toward `target`.
    fn transmit(&mut self, req: Req, src: Endpoint, target: ServerId, cx: &mut Cx<'_, '_>) {
        let dst = Endpoint::Server(target.raw());
        if !cx.send(src, dst, || ChaosEvent::Deliver { req, target }) {
            self.next_try(req, src, None, cx);
        }
    }

    /// Drains `pending` watch events synchronously, so every one-shot
    /// watch is re-armed, then applies and acks every command until the
    /// control plane goes quiet. Setup only: no one is running to race.
    fn settle(&mut self, mut pending: Vec<WatchEvent>) {
        let mut guard = 0;
        let mut drain =
            |pending: &mut Vec<WatchEvent>, cp: &mut HaControlPlane, zk: &mut ZkStore| {
                while let Some(e) = pending.pop() {
                    guard += 1;
                    assert!(guard < 10_000, "setup watch storm");
                    pending.extend(cp.handle_event(zk, &e));
                }
            };
        drain(&mut pending, &mut self.cp, &mut self.zk);
        for _round in 0..200 {
            let cmds = self.cp.take_commands();
            if cmds.is_empty() {
                break;
            }
            for (_pid, cmd) in cmds {
                if let OrchCommand::Rpc { server, rpc } = cmd {
                    let host = self.hosts.get_mut(&server);
                    let ok = host.is_some_and(|h| rpc.dispatch(&mut h.kv).is_ok());
                    let acks = if ok {
                        self.cp.rpc_acked(&mut self.zk, server, rpc)
                    } else {
                        self.cp.rpc_failed(&mut self.zk, server, rpc)
                    };
                    pending.extend(acks);
                }
            }
            drain(&mut pending, &mut self.cp, &mut self.zk);
        }
    }

    /// Shards of a partition whose orchestrator runs that its clients'
    /// kernel routes elsewhere than to the assigned primary.
    fn divergence(&mut self) -> usize {
        let mut divergence = 0;
        for (p, kernel) in self.partitions.iter().zip(&self.kernels) {
            if let Some(orch) = self.cp.orchestrator(p.id) {
                for &shard in &p.shards {
                    let routed = kernel.route_shard(shard, &mut 0).map(|d| d.server);
                    if orch.assignment().primary_of(shard) != routed.ok() {
                        divergence += 1;
                    }
                }
            }
        }
        divergence
    }

    /// Takes the client's next step for `req`, a try at `at` that was
    /// not served; `forward` is where a `Forward` pointed.
    fn next_try(
        &mut self,
        mut req: Req,
        at: Endpoint,
        forward: Option<ServerId>,
        cx: &mut Cx<'_, '_>,
    ) {
        if cx.oracle.already_served(req.id) {
            return;
        }
        match req.tries.next(&RETRY, forward) {
            Step::Send(next) => {
                self.stats.forwards += 1;
                self.transmit(req, at, next, cx);
            }
            Step::After(backoff) => {
                self.stats.retries += 1;
                cx.schedule_in(backoff, ChaosEvent::Retry { req });
            }
            Step::GiveUp => {
                self.stats.dropped += 1;
                let now = cx.now();
                cx.oracle.request_dropped(now, req.id);
            }
        }
    }

    /// Servers that would serve an unforwarded request for `shard`
    /// right now. Process-up is the only qualifier — a zombie whose ZK
    /// session expired behind a partition still counts, which is
    /// exactly what self-fencing must prevent.
    fn willing_count(&self, shard: ShardId) -> usize {
        self.hosts
            .values()
            .filter(|h| h.process_up && h.kv.admit(shard, false) == AppResponse::Serve)
            .count()
    }

    fn deliver(&mut self, req: Req, target: ServerId, cx: &mut Cx<'_, '_>) {
        if cx.oracle.already_served(req.id) {
            return;
        }
        let response = match self.hosts.get(&target) {
            Some(h) if h.serving() => h.kv.admit(req.shard, req.tries.hops > 0),
            _ => AppResponse::NotMine,
        };
        let at = Endpoint::Server(target.raw());
        match response {
            AppResponse::Serve => self.serve(req, target, cx),
            AppResponse::Forward(next) => self.next_try(req, at, Some(next), cx),
            AppResponse::NotMine => self.next_try(req, at, None, cx),
        }
    }

    fn serve(&mut self, req: Req, target: ServerId, cx: &mut Cx<'_, '_>) {
        let now = cx.now();
        // The §3.2 invariant is checked at the moment it matters: when
        // a request is actually served.
        let willing = self.willing_count(req.shard);
        cx.oracle.primaries_observed(now, req.shard.raw(), willing);
        let app_key = AppKey::from_u64(req.key);
        if req.write {
            self.write_tag += 1;
            let tag = self.write_tag;
            if let Some(host) = self.hosts.get_mut(&target) {
                host.kv.put(req.shard, app_key, tag.to_be_bytes().to_vec());
            }
            cx.oracle.write_acked(req.key, tag);
        } else {
            let observed = self
                .hosts
                .get_mut(&target)
                .and_then(|h| h.kv.get(req.shard, &app_key))
                .and_then(|v| <[u8; 8]>::try_from(v).ok())
                .map(u64::from_be_bytes);
            cx.oracle.read_served(now, req.key, observed);
        }
        cx.oracle.request_served(req.id);
        self.stats.served += 1;
        let latency_ms = now.since(req.sent_at).as_millis_f64();
        cx.trace.record("latency_ms", now, latency_ms);
    }

    /// One server-side heartbeat step: check the self-fence deadline,
    /// then beat / resign / re-register as the state demands. All
    /// outbound messages go through the net, so a partitioned server's
    /// beats genuinely vanish.
    fn heartbeat_tick(&mut self, s: u32, cx: &mut Cx<'_, '_>) {
        if cx.now() < self.cfg.end {
            cx.schedule_in(HEARTBEAT_INTERVAL, ChaosEvent::HeartbeatTick(s));
        }
        let now = cx.now();
        let Some(host) = self.hosts.get_mut(&ServerId(s)) else {
            return;
        };
        if !host.process_up {
            return;
        }
        let leased = host.lease.is_some();
        // §3.2: heartbeat acks stopped long enough ago that a
        // replacement primary may be imminent — wipe now, ask questions
        // later. The DST mutation keeps serving instead, which the
        // oracle must catch.
        if !host.fenced && leased && host.fence.must_fence(now) && !self.cfg.disable_self_fencing {
            host.kv.restart();
            host.fenced = true;
            self.stats.self_fences += 1;
            cx.state_changed();
            return;
        }
        // Unfenced servers beat while their session lives. Fenced ones
        // resign the still-live session so failover can start without
        // waiting out the ZK timeout, or re-register once the old
        // session is gone. All three can be eaten by a partition; the
        // next tick retries.
        let arrival = match (host.fenced, leased) {
            (false, true) => ChaosEvent::BeatArrive,
            (false, false) => return,
            (true, true) => ChaosEvent::ResignArrive,
            (true, false) => ChaosEvent::RegisterArrive,
        };
        cx.send(Endpoint::Server(s), Endpoint::Zk, || arrival(s));
    }

    fn beat_arrive(&mut self, s: u32, cx: &mut Cx<'_, '_>) {
        let server = ServerId(s);
        if self.hosts.get(&server).is_none_or(|h| h.lease.is_none()) {
            return; // stale beat from a session ZK already expired
        }
        self.last_beat.insert(server, cx.now());
        cx.send(Endpoint::Zk, Endpoint::Server(s), || ChaosEvent::BeatAck(s));
    }

    /// Registers a fresh session for up-but-unleased server `s` and
    /// lifts its fence. False when the server is not in that state
    /// (crashed, or something else already re-registered it) or ZK
    /// still holds its old session.
    fn reregister(&mut self, s: ServerId, cx: &mut Cx<'_, '_>) -> bool {
        let now = cx.now();
        let Some(host) = self.hosts.get_mut(&s) else {
            return false;
        };
        if !host.process_up || host.lease.is_some() {
            return false;
        }
        let Ok((lease, events)) = ServerLease::register(&mut self.zk, s) else {
            return false;
        };
        host.lease = Some(lease);
        host.fenced = false;
        host.fence.ack(now);
        self.last_beat.insert(s, now);
        dispatch_zk(events, cx);
        true
    }

    /// Expires `s`'s session at ZooKeeper; false if it holds none.
    fn expire_lease(&mut self, s: ServerId, cx: &mut Cx<'_, '_>) -> bool {
        let Some(lease) = self.hosts.get_mut(&s).and_then(|h| h.lease.take()) else {
            return false;
        };
        let events = lease.expire(&mut self.zk);
        dispatch_zk(events, cx);
        true
    }
}

impl Scenario for Chaos {
    const WORLD: &'static str = "chaos";
    const MUTATION: &'static str = "disable_self_fencing";
    // Periodic events stop at `end`; whatever remains is in-flight
    // requests and timers draining against a healthy fleet.
    const DRAINS: bool = true;
    type Config = ChaosConfig;
    type Event = ChaosEvent;
    type Host = KvServer;
    type Stats = ChaosStats;
    type Extra = ChaosExtra;

    fn params(cfg: &ChaosConfig) -> Params {
        Params {
            seed: cfg.seed,
            servers: cfg.servers,
            end: cfg.end,
        }
    }

    fn cell(seed: u64, profile: FaultProfile, mutate: bool) -> ChaosConfig {
        ChaosConfig {
            disable_self_fencing: mutate,
            ..ChaosConfig::dst(seed, profile)
        }
    }

    fn key(cfg: &ChaosConfig) -> (&'static str, bool) {
        // A covering-shaped run is not a DST cell: its document names a
        // profile that does not parse back.
        let profile = cfg.profile.map_or("covering", |p| p.name());
        (profile, cfg.disable_self_fencing)
    }

    /// Control plane, leased servers, deployed partitions. Watch events
    /// raised during setup are delivered synchronously (the world is
    /// not running yet, so there is no one to race with).
    fn build(cfg: ChaosConfig) -> Self {
        let mut zk = ZkStore::new();
        let (mut cp, setup_events) = HaControlPlane::new(
            &mut zk,
            kit::default_orch_config(),
            LoadVector::single(Metric::ShardCount.id(), 1000.0),
            4,
        )
        .expect("fresh ZK accepts the base znodes");
        let app = AppId(0);
        cp.register_app(app, AppPolicy::primary_only());

        let spec = Rc::new(ShardingSpec::uniform_u64(cfg.shards));
        let external = Rc::new(RefCell::new(ExternalStore::new()));
        let mut hosts = BTreeMap::new();
        let mut pending = setup_events;
        let server_ids: Vec<ServerId> = (0..cfg.servers).map(ServerId).collect();
        for &s in &server_ids {
            cp.register_server(&mut zk, s, kit::loc(s.raw()));
            let (lease, events) =
                ServerLease::register(&mut zk, s).expect("fresh session registers");
            pending.extend(events);
            hosts.insert(
                s,
                Host {
                    kv: KvServer::new(s, spec.clone(), external.clone()),
                    lease: Some(lease),
                    process_up: true,
                    fenced: false,
                    fence: SelfFenceTimer::new(SimTime::ZERO, SELF_FENCE_TIMEOUT),
                },
            );
        }

        let shard_ids: Vec<ShardId> = (0..cfg.shards).map(ShardId).collect();
        let mut mgr = ApplicationManager::new(4);
        let partitions = mgr.partition_app(app, &server_ids, &shard_ids);
        for p in &partitions {
            let events = cp
                .deploy_partition(&mut zk, p)
                .expect("deploy on a healthy fleet");
            pending.extend(events);
        }
        let last_beat = server_ids.iter().map(|&s| (s, SimTime::ZERO)).collect();
        let mut world = Self {
            cfg,
            zk,
            cp,
            spec,
            hosts,
            kernels: vec![ResolvedMap::default(); partitions.len()],
            partitions,
            last_beat,
            next_req: 0,
            write_tag: 0,
            stats: ChaosStats::default(),
            extra: ChaosExtra::default(),
            recovering_since: None,
        };
        // Deploy completes before the experiment.
        world.settle(pending);
        world.refresh_router();
        world
    }

    /// The covering plan when `cfg.profile` is `None`, the profile's
    /// DST plan otherwise.
    fn default_plan(&self) -> Plan {
        let (cfg, n_minisms) = (&self.cfg, self.cp.running_minisms().len() as u32);
        fault_plan(&match cfg.profile {
            None => FaultPlanConfig::covering(cfg.seed, cfg.servers, n_minisms),
            Some(p) => p.config(cfg.seed, cfg.servers, n_minisms),
        })
    }

    fn script(&self) -> Vec<(SimTime, ChaosEvent)> {
        let clients =
            (0..self.cfg.clients).map(|c| (SimTime::from_secs(5), ChaosEvent::ClientTick(c)));
        // Staggered start so the fleet's heartbeats don't all land on
        // the same instant.
        let beats = (0..self.cfg.servers).map(|s| {
            let at = SimTime::from_millis(1_000 + 7 * u64::from(s));
            (at, ChaosEvent::HeartbeatTick(s))
        });
        clients
            .chain([(SimTime::from_secs(1), ChaosEvent::RouterRefresh)])
            .chain(beats)
            .collect()
    }

    fn handle(&mut self, cx: &mut Cx<'_, '_>, event: ChaosEvent) {
        match event {
            ChaosEvent::ClientTick(c) => self.client_tick(c, cx),
            ChaosEvent::Deliver { req, target } => self.deliver(req, target, cx),
            ChaosEvent::Retry { req } => {
                // Re-route via the freshest map the client can see.
                self.refresh_router();
                self.route(req, cx);
            }
            ChaosEvent::ZkNotify(watch) => {
                let events = self.cp.handle_event(&mut self.zk, &watch);
                dispatch_zk(events, cx);
                cx.flush(self.take_commands());
                cx.state_changed();
            }
            ChaosEvent::RouterRefresh => {
                if cx.now() < self.cfg.end {
                    cx.schedule_in(SimDuration::from_millis(1000), ChaosEvent::RouterRefresh);
                }
                self.refresh_router();
            }
            ChaosEvent::HeartbeatTick(s) => self.heartbeat_tick(s, cx),
            ChaosEvent::BeatArrive(s) => self.beat_arrive(s, cx),
            ChaosEvent::BeatAck(s) => {
                if let Some(host) = self.hosts.get_mut(&ServerId(s)) {
                    host.fence.ack(cx.now());
                }
            }
            ChaosEvent::ResignArrive(s) => {
                // A no-op if ZK's own expiry won the race.
                if self.expire_lease(ServerId(s), cx) {
                    cx.state_changed();
                }
            }
            ChaosEvent::RegisterArrive(s) => {
                // A no-op if it raced a planned SessionRestore, or the
                // server crashed meanwhile.
                if self.reregister(ServerId(s), cx) {
                    cx.state_changed();
                }
            }
        }
    }

    fn take_commands(&mut self) -> impl Iterator<Item = OrchCommand> {
        let cmds = self.cp.take_commands();
        cmds.into_iter().map(|(_pid, cmd)| cmd)
    }

    /// A dead process never applies anything; a self-fenced server
    /// refuses shard placements (§3.2) until it re-registers. Either
    /// way the connection attempt fails fast and the failure travels
    /// back through the net like any other message.
    fn host(&mut self, server: ServerId, _rpc: &ServerRpc) -> RpcHost<'_, KvServer> {
        match self.hosts.get_mut(&server) {
            Some(h) if h.serving() => RpcHost::Serving(&mut h.kv),
            _ => RpcHost::Fenced,
        }
    }

    fn resolved(&mut self, cx: &mut Cx<'_, '_>, server: ServerId, rpc: ServerRpc, how: Resolution) {
        let events = match how {
            Resolution::Ack => self.cp.rpc_acked(&mut self.zk, server, rpc),
            Resolution::Nack => self.cp.rpc_failed(&mut self.zk, server, rpc),
            Resolution::GaveUp => {
                self.stats.rpc_timeouts += 1;
                self.cp.rpc_failed(&mut self.zk, server, rpc)
            }
        };
        dispatch_zk(events, cx);
        cx.flush(self.take_commands());
    }

    fn fault(&mut self, cx: &mut Cx<'_, '_>, fault: Fault) {
        match fault {
            Fault::ServerCrash(i) => {
                let s = ServerId(i);
                let Some(host) = self.hosts.get_mut(&s) else {
                    return;
                };
                if !host.process_up {
                    return;
                }
                host.process_up = false;
                host.kv.restart();
                host.fenced = false;
                self.stats.server_crashes += 1;
                // The process died; its TCP connection to ZK dies with
                // it and the session expires immediately.
                self.expire_lease(s, cx);
            }
            Fault::ServerRestart(i) => {
                let s = ServerId(i);
                let now = cx.now();
                let Some(host) = self.hosts.get_mut(&s).filter(|h| !h.process_up) else {
                    return;
                };
                // (An `Err` means the old session is still registered;
                // never in practice — expiry always precedes this.)
                if let Ok((lease, events)) = ServerLease::register(&mut self.zk, s) {
                    host.process_up = true;
                    host.lease = Some(lease);
                    host.fenced = false;
                    host.fence = SelfFenceTimer::new(now, SELF_FENCE_TIMEOUT);
                    self.last_beat.insert(s, now);
                    dispatch_zk(events, cx);
                }
            }
            Fault::SessionExpiry(i) => {
                let s = ServerId(i);
                let Some(host) = self.hosts.get_mut(&s) else {
                    return;
                };
                if !host.process_up || host.lease.is_none() {
                    return;
                }
                // §3.2: the ZK client library tells the server its
                // session is gone, and the server self-fences — wipes
                // its hosting state immediately, before the control
                // plane even observes the expiry.
                host.kv.restart();
                host.fenced = true;
                self.stats.session_expiries += 1;
                self.extra.expired_sessions.insert(i);
                self.expire_lease(s, cx);
            }
            Fault::SessionRestore(i) => {
                // A no-op when the heartbeat loop already re-registered.
                self.reregister(ServerId(i), cx);
            }
            Fault::MiniSmCrash(i) => {
                let id = MiniSmId(i);
                if !self.cp.running_minisms().contains(&id) {
                    return;
                }
                self.stats.minism_crashes += 1;
                self.extra.crashed_minisms.insert(i);
                self.recovering_since.get_or_insert(cx.now());
                let events = self.cp.crash_minism(&mut self.zk, id);
                dispatch_zk(events, cx);
            }
            Fault::MiniSmRestart(i) => {
                if let Ok(events) = self.cp.restart_minism(&mut self.zk, MiniSmId(i)) {
                    dispatch_zk(events, cx);
                }
            }
            Fault::PartitionStart(_) => {
                self.stats.net_partitions += 1;
                self.recovering_since.get_or_insert(cx.now());
            }
            Fault::PartitionHeal | Fault::NetDegrade { .. } | Fault::NetHeal => {}
        }
    }

    /// ZK-side session expiry, the dual-primary audit, recovery
    /// bookkeeping, and trace points. (Not swept past `end`: the
    /// periodic heartbeats have stopped by design, and sweeping the
    /// drain would mass-expire healthy sessions that are merely no
    /// longer beating.)
    fn scan(&mut self, cx: &mut Cx<'_, '_>) {
        let now = cx.now();
        // ZooKeeper-side session expiry: a server whose heartbeats
        // stopped arriving (partition, not crash) loses its ephemeral,
        // which is what lets the control plane fail its shards over.
        let silent: Vec<ServerId> = self
            .hosts
            .iter()
            .filter(|(s, h)| {
                h.lease.is_some()
                    && self
                        .last_beat
                        .get(s)
                        .is_none_or(|&b| now.since(b) > ZK_SESSION_TIMEOUT)
            })
            .map(|(s, _)| *s)
            .collect();
        for s in silent {
            self.stats.zk_expiries += 1;
            self.expire_lease(s, cx);
        }
        // Dual-primary sweep: the continuous per-serve check sees every
        // served request; this sweep also sees shards with no traffic.
        for shard in (0..self.cfg.shards).map(ShardId) {
            let willing = self.willing_count(shard);
            cx.oracle.primaries_observed(now, shard.raw(), willing);
            if willing > 1 {
                self.stats.dual_primary += 1;
            }
        }
        let unplaced = self.cp.unplaced().len();
        let in_flight = self.cp.in_flight_total();
        if let Some(started) = self.recovering_since {
            if unplaced == 0 && in_flight == 0 && cx.net.partition().is_none() {
                let took = now.since(started).as_millis_f64();
                self.extra.recoveries_ms.push(took);
                self.recovering_since = None;
            }
        }
        let down = self
            .hosts
            .values()
            .filter(|h| !h.process_up || h.fenced || h.lease.is_none())
            .count();
        let minisms_up = self.cp.running_minisms().len();
        for (series, value) in [
            ("unplaced", unplaced as f64),
            ("in_flight", in_flight as f64),
            ("down_servers", down as f64),
            ("served_total", self.stats.served as f64),
            ("dropped_total", self.stats.dropped as f64),
            ("minisms_up", minisms_up as f64),
            ("net_blocked", cx.net.stats().blocked as f64),
        ] {
            cx.trace.record(series, now, value);
        }
    }

    /// Quiescence checks, run once after the event queue drains: the
    /// registry must match its durable snapshot, every shard must be
    /// placed with no stuck migrations, the client-visible router (as
    /// last refreshed by its periodic task) must agree with the
    /// assignment, and no request may have silently vanished.
    fn finish(mut self, wire: &mut Wire) -> Outcome<ChaosStats, ChaosExtra> {
        let at = self.cfg.end;
        let in_memory = self.cp.registry.snapshot();
        let durable = self.zk.get(paths::REGISTRY).ok().map(|(d, _)| d);
        wire.oracle
            .quiescent_registry(at, &in_memory, durable.as_deref());
        let unplaced = self.cp.unplaced().len();
        let in_flight = self.cp.in_flight_total();
        let divergence = self.divergence();
        wire.oracle
            .convergence_check(at, unplaced, in_flight, divergence);
        wire.oracle.quiescent_drain_check(at);
        self.extra.ha = self.cp.stats();
        self.extra.initial_minisms = targeted_minisms(wire.plan()).len();
        Outcome {
            converged: self.cp.fully_placed() && in_flight == 0,
            unplaced,
            stats: self.stats,
            extra: self.extra,
        }
    }
}

/// Runs one seeded chaos experiment to completion and reports. The
/// fault plan derives from the config (covering or profile).
pub fn run_chaos(cfg: ChaosConfig) -> ChaosReport {
    kit::run::<Chaos>(cfg, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_bootstraps_fully_placed() {
        let w = Chaos::build(ChaosConfig::covering(1));
        // Initial placement happens synchronously at deploy; commands
        // are still in flight but every shard has an assignment.
        assert!(w.cp.fully_placed(), "unplaced: {:?}", w.cp.unplaced());
        assert!(w.cp.running_minisms().len() >= 2, "want several mini-SMs");
        assert!((0..w.cfg.shards).all(|s| w.route_shard(ShardId(s)).is_some()));
    }

    #[test]
    fn a_partition_without_its_mini_sm_keeps_routing_by_its_last_kernel() {
        let mut w = Chaos::build(ChaosConfig::covering(1));
        let before: Vec<Option<ServerId>> = (0..w.cfg.shards)
            .map(|s| w.route_shard(ShardId(s)))
            .collect();
        let minism = w.cp.running_minisms()[0];
        let crashed = w.cp.crash_minism(&mut w.zk, minism);
        let (dark, lit): (Vec<Partition>, Vec<Partition>) = w
            .partitions
            .clone()
            .into_iter()
            .partition(|p| w.cp.orchestrator(p.id).is_none());
        assert!(!dark.is_empty() && !lit.is_empty(), "{minism:?} runs some");
        // A server of a running partition fails: its shards there lose
        // their primary at once.
        let (p, shard) = (lit[0].id, lit[0].shards[0]);
        let orch = w.cp.orchestrator(p).expect("running");
        let lost = orch.assignment().primary_of(shard).expect("placed");
        orch.server_down(lost);
        w.refresh_router();
        for &shard in dark.iter().flat_map(|p| &p.shards) {
            let pre = before[shard.raw() as usize];
            assert!(pre.is_some() && w.route_shard(shard) == pre, "{shard}");
        }
        for p in &lit {
            for &shard in &p.shards {
                let routed = w.route_shard(shard);
                let orch = w.cp.orchestrator(p.id).expect("running");
                assert_eq!(routed, orch.assignment().primary_of(shard), "{shard}");
            }
        }
        assert_eq!(w.route_shard(shard), None);
        assert_eq!(w.divergence(), 0);
        // Failover, restart and placement settle; the clients follow.
        w.settle(crashed);
        let restarted = w.cp.restart_minism(&mut w.zk, minism).expect("expired");
        w.settle(restarted);
        w.refresh_router();
        assert!(w.cp.fully_placed(), "unplaced: {:?}", w.cp.unplaced());
        assert_ne!(w.route_shard(shard), Some(lost));
        assert_eq!(w.divergence(), 0);
    }

    #[test]
    fn plan_targets_every_initial_minism() {
        let w = Chaos::build(ChaosConfig::covering(7));
        let running: BTreeSet<u32> = w.cp.running_minisms().iter().map(|m| m.raw()).collect();
        assert_eq!(
            targeted_minisms(&w.default_plan()),
            running,
            "dense ids let the plan cover all"
        );
    }

    #[test]
    fn dst_profile_plans_inject_their_net_faults() {
        let w = Chaos::build(ChaosConfig::dst(3, FaultProfile::AsymPartition));
        let parts = w
            .default_plan()
            .iter()
            .filter(|(_, f)| matches!(f, Fault::PartitionStart(p) if p.asym))
            .count();
        assert!(parts >= 1, "asym profile must schedule asym partitions");
    }

    #[test]
    fn sym_partition_run_self_fences_and_stays_safe() {
        // One full DST run under symmetric partitions: servers behind
        // the partition must self-fence before ZK expires their
        // sessions, and the oracle must find nothing.
        let r = run_chaos(ChaosConfig::dst(5, FaultProfile::SymPartition));
        assert!(r.net.blocked > 0, "partition must block real traffic");
        assert!(r.stats.net_partitions >= 1);
        assert!(
            r.stats.self_fences >= 1,
            "islanded servers must self-fence: {:?}",
            r.stats
        );
        assert!(
            r.stats.zk_expiries >= 1,
            "ZK must expire silent sessions: {:?}",
            r.stats
        );
        assert_eq!(
            r.total_violations, 0,
            "oracle must stay clean: {:?}",
            r.violations
        );
        assert!(r.converged, "{} unplaced", r.unplaced);
        assert_eq!(r.stats.dropped, 0, "{:?}", r.stats);
    }
}
