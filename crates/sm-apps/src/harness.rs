//! The integrated simulation world.
//!
//! Wires every substrate into one deterministic discrete-event world:
//! regional cluster managers (`sm-cluster`), ZooKeeper failure detection
//! (`sm-zk`), the orchestrator and TaskController (`sm-core`), service
//! discovery and client routers (`sm-routing`), application servers
//! (this crate), and geo latencies (`sm-sim`). The paper's experiment
//! figures (17–20) and the runnable examples are all thin drivers over
//! this world: configure, inject events (rolling upgrades, region
//! failures, preference changes), run, and read the trace.

use crate::client::{RetryPolicy, Step, Try};
use crate::forwarding::AppResponse;
use crate::kv::{ExternalStore, KvServer};
use crate::queue::QueueServer;
use sm_cluster::{ClusterManager, CmEvent, Machine, MaintenanceImpact, OpId, OpKind};
use sm_core::ha::{self, paths, ServerLease};
use sm_core::{
    AvailabilityView, OrchCommand, Orchestrator, OrchestratorConfig, ServerRpc, ShardServer,
    TaskController,
};
use sm_routing::{DiscoveryService, ResolvedMap, SubscriberId};
use sm_sim::{Ctx, LatencyModel, SimDuration, SimTime, TraceLog, World};
use sm_types::{
    AppId, AppKey, AppPolicy, ContainerId, LoadVector, Location, MachineId, Metric, RegionId,
    ServerId, ShardId, ShardingSpec, SmError,
};
use sm_zk::{SessionId, WatchEvent, ZkStore};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Which application logic the servers run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppKind {
    /// Laser-like key-value store.
    Kv,
    /// In-order queue service.
    Queue,
}

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// RNG seed.
    pub seed: u64,
    /// `(region, servers in that region)`.
    pub regions: Vec<(RegionId, u32)>,
    /// Shard count (uniform u64 key ranges).
    pub shards: u64,
    /// Application policy.
    pub policy: AppPolicy,
    /// Application logic.
    pub app: AppKind,
    /// Use the §4.3 graceful protocol for primary moves.
    pub graceful_migration: bool,
    /// Use the TaskController; when false, pending container ops are
    /// executed blindly up to `no_tc_concurrency`.
    pub use_taskcontroller: bool,
    /// Concurrency of blind execution when the TaskController is off.
    pub no_tc_concurrency: usize,
    /// Region-pair latencies.
    pub latency: LatencyModel,
    /// Client request rate, per client, per second.
    pub request_rate: f64,
    /// Clients per region.
    pub clients_per_region: u32,
    /// ZooKeeper session timeout (failure-detection latency).
    pub failure_detection: SimDuration,
    /// Periodic allocator interval.
    pub periodic_alloc_interval: SimDuration,
    /// Route reads to the nearest replica (geo experiments) instead of
    /// the primary.
    pub route_nearest: bool,
    /// Diurnal modulation of the client request rate: amplitude in
    /// `[0, 1]` over a 24 h period (0 disables).
    pub diurnal_amplitude: f64,
    /// Restrict client keys to this contiguous shard range (e.g. the
    /// east-coast shards of §8.3). `None` = whole key space.
    pub target_shards: Option<std::ops::Range<u64>>,
    /// Place clients only in these regions; `None` = all regions.
    pub client_regions: Option<Vec<RegionId>>,
}

/// How clients retry; a request that spends its tries counts as failed.
pub(crate) const RETRY: RetryPolicy = RetryPolicy {
    attempts: 6,
    backoff: SimDuration::from_millis(150),
    max_hops: 4,
};
/// Container restart downtime.
const RESTART_DURATION: SimDuration = SimDuration::from_secs(30);
/// TaskControl negotiation interval.
const TC_REVIEW_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// Load-report pull interval.
const LOAD_REPORT_INTERVAL: SimDuration = SimDuration::from_secs(10);
/// Discovery-tree per-hop delay.
const MAP_HOP_DELAY: SimDuration = SimDuration::from_millis(100);
/// Debounce window for coalescing shard-map publications.
const MAP_DEBOUNCE: SimDuration = SimDuration::from_millis(200);
/// Time a server needs to (re)build a shard's state from the external
/// store when it was not warmed beforehand. Graceful migration's
/// `prepare_add_shard` warms the destination (§4.3), so only abrupt
/// moves and failovers pay this.
const SHARD_LOAD_TIME: SimDuration = SimDuration::from_secs(10);
/// Delay before clients start issuing requests, letting the bootstrap
/// placement finish.
const CLIENT_START: SimDuration = SimDuration::from_secs(30);

impl ExperimentConfig {
    /// A single-region primary-only KV deployment — the Figure 17 shape.
    pub fn single_region(servers: u32, shards: u64) -> Self {
        Self {
            seed: 42,
            regions: vec![(RegionId(0), servers)],
            shards,
            policy: AppPolicy::primary_only(),
            app: AppKind::Kv,
            graceful_migration: true,
            use_taskcontroller: true,
            no_tc_concurrency: (servers as usize / 10).max(1),
            latency: LatencyModel::uniform(1, 1.0, 1.0),
            request_rate: 20.0,
            clients_per_region: 10,
            failure_detection: SimDuration::from_secs(20),
            periodic_alloc_interval: SimDuration::from_secs(60),
            route_nearest: false,
            diurnal_amplitude: 0.0,
            target_shards: None,
            client_regions: None,
        }
    }

    /// The three-region geo deployment of §8.3.
    pub fn three_region_geo(servers_per_region: u32, shards: u64) -> Self {
        let mut cfg = Self::single_region(servers_per_region, shards);
        cfg.regions = vec![
            (RegionId(0), servers_per_region),
            (RegionId(1), servers_per_region),
            (RegionId(2), servers_per_region),
        ];
        cfg.latency = LatencyModel::frc_prn_odn();
        cfg.route_nearest = true;
        cfg
    }
}

/// Outcome counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldStats {
    /// Requests answered successfully.
    pub ok: u64,
    /// Requests that exhausted retries.
    pub failed: u64,
    /// Forward hops taken (graceful migrations at work).
    pub forwarded: u64,
    /// Requests bounced off a server that no longer owns the shard.
    pub not_mine: u64,
    /// Retry attempts.
    pub retries: u64,
    /// Failures whose final attempt died at routing (no map / no entry).
    pub failed_route: u64,
    /// Failures whose final attempt hit a non-serving server.
    pub failed_refused: u64,
    /// Failures whose final attempt exceeded the forward-hop limit.
    pub failed_hops: u64,
}

impl WorldStats {
    /// Success fraction over everything completed so far.
    pub fn success_rate(&self) -> f64 {
        let total = self.ok + self.failed;
        if total == 0 {
            1.0
        } else {
            self.ok as f64 / total as f64
        }
    }
}

/// An in-flight client request: who sent it, for which key, since
/// when, and how far its tries got.
#[derive(Clone, Debug)]
pub struct Request {
    client: usize,
    key: AppKey,
    sent_at: SimTime,
    tries: Try,
}

/// World events.
#[derive(Clone, Debug)]
pub enum WorldEvent {
    /// A client issues its next request.
    ClientTick(usize),
    /// Route a failed request afresh and try it again.
    Retry(Request),
    /// A request arrives at a server.
    Deliver {
        /// The request.
        req: Request,
        /// The shard its client routed it to.
        shard: ShardId,
        /// The server this hop was addressed to.
        target: ServerId,
    },
    /// A response (ok or not) arrives back at the client.
    Respond {
        /// The request being answered.
        req: Request,
        /// Whether it was served.
        ok: bool,
    },
    /// An orchestrator RPC arrives at a server.
    OrchDeliver {
        /// Destination server.
        server: ServerId,
        /// The call.
        rpc: ServerRpc,
    },
    /// The server's ack arrives back at the orchestrator.
    OrchAck {
        /// Acking server.
        server: ServerId,
        /// The call being acknowledged.
        rpc: ServerRpc,
        /// Whether the server applied it.
        ok: bool,
    },
    /// A shard-map update reaches a subscriber.
    MapDeliver {
        /// Destination subscriber.
        subscriber: SubscriberId,
        /// The published map, resolved once by its publisher and
        /// shared by every delivery of that version.
        kernel: Rc<ResolvedMap>,
    },
    /// Publish the orchestrator's current map (debounced).
    MapFlush,
    /// Initial placement of all shards at t=0.
    Bootstrap,
    /// TaskControl negotiation round.
    TcReview,
    /// An approved container operation finished.
    OpDone {
        /// The cluster manager's region.
        region: RegionId,
        /// The completed operation.
        op: OpId,
    },
    /// ZooKeeper session-expiry check for a down server.
    SessionCheck {
        /// The server whose session is checked.
        server: ServerId,
        /// When it went down (stale checks are ignored).
        down_since: SimTime,
    },
    /// A ZooKeeper watch notification reaches its watcher. Failure
    /// detection is watch-driven: session expiry deletes the server's
    /// ephemeral, and the control plane reacts to the delivered
    /// `Deleted` event rather than being told directly.
    ZkNotify(WatchEvent),
    /// Servers report load.
    LoadReport,
    /// Periodic allocation runs.
    PeriodicAlloc,
    /// Start a rolling upgrade in one region.
    StartUpgrade {
        /// Target region.
        region: RegionId,
        /// New binary version.
        version: u32,
    },
    /// Restart the first `count` containers of a region (a small-scale
    /// canary wave, §8.2).
    CanaryRestart {
        /// Target region.
        region: RegionId,
        /// Containers to restart.
        count: usize,
    },
    /// A whole region fails (§8.3).
    RegionFail(RegionId),
    /// The failed region recovers.
    RegionRecover(RegionId),
    /// Crash one server (unplanned).
    ServerCrash(ServerId),
    /// Update a shard's regional placement preference (Figure 20).
    SetPreference {
        /// The shard.
        shard: ShardId,
        /// Newly preferred region.
        region: RegionId,
        /// Preference weight.
        weight: f64,
    },
    /// Advance notice of non-negotiable maintenance (§4.2): demote
    /// primaries off the affected servers ahead of time.
    MaintenancePrepare {
        /// Servers in the blast radius.
        servers: Vec<ServerId>,
    },
    /// The maintenance window opens: affected servers stop serving.
    MaintenanceStart {
        /// Region of the affected servers.
        region: RegionId,
        /// Servers going down.
        servers: Vec<ServerId>,
        /// What the event costs the machines.
        impact: MaintenanceImpact,
    },
    /// The maintenance window closes: servers resume (except after full
    /// machine loss).
    MaintenanceEnd {
        /// Region of the affected servers.
        region: RegionId,
        /// Servers coming back.
        servers: Vec<ServerId>,
        /// The event's impact class.
        impact: MaintenanceImpact,
    },
    /// Record a trace sample of current success rate and move counts.
    Sample,
}

enum AppLogic {
    Kv(KvServer),
    Queue(QueueServer),
}

impl AppLogic {
    fn as_shard_server(&mut self) -> &mut dyn ShardServer {
        match self {
            AppLogic::Kv(s) => s,
            AppLogic::Queue(s) => s,
        }
    }
    /// Admission for this app's request class: under a policy with a
    /// primary, requests are primary-type (only the primary serves);
    /// under a secondary-only policy every replica serves reads.
    fn admit(&self, shard: ShardId, forwarded: bool, primary_type: bool) -> AppResponse {
        match (self, primary_type) {
            (AppLogic::Kv(s), true) => s.admit(shard, forwarded),
            (AppLogic::Kv(s), false) => s.admit_secondary(shard, forwarded),
            (AppLogic::Queue(s), true) => s.admit(shard, forwarded),
            (AppLogic::Queue(s), false) => s.admit_secondary(shard, forwarded),
        }
    }
    fn serve(&mut self, shard: ShardId, key: &AppKey) {
        match self {
            AppLogic::Kv(s) => {
                let _response = s.get(shard, key);
            }
            AppLogic::Queue(s) => {
                let _response = s.enqueue(shard, key.as_bytes().to_vec());
            }
        }
    }
    fn restart(&mut self) {
        match self {
            AppLogic::Kv(s) => s.restart(),
            AppLogic::Queue(s) => *s = QueueServer::default(),
        }
    }
    /// Whether the shard's state is already materialized here (warmed by
    /// a prior `prepare_add_shard` or still cached).
    fn is_warm(&self, shard: ShardId) -> bool {
        match self {
            AppLogic::Kv(s) => s.is_warm(shard),
            AppLogic::Queue(s) => s.is_warm(shard),
        }
    }
}

struct Host {
    logic: AppLogic,
    region: RegionId,
    serving: bool,
    down_since: Option<SimTime>,
    /// The server's liveness registration; `None` once its session
    /// expired and until it re-registers.
    lease: Option<ServerLease>,
}

/// One client process: the Service Router library's state (§3.3).
struct Client {
    /// The newest map delivered so far (`None` before the first one).
    kernel: Option<Rc<ResolvedMap>>,
    /// Round-robin cursor over a secondary-only shard's replicas; each
    /// client process has its own.
    rr_cursor: u64,
    region: RegionId,
    subscriber: SubscriberId,
}

/// The simulation world. Implements [`World`] for `sm-sim`.
pub struct SimWorld {
    /// Configuration (read-only after construction).
    pub cfg: ExperimentConfig,
    app: AppId,
    spec: Rc<ShardingSpec>,
    cms: BTreeMap<RegionId, ClusterManager>,
    tc: TaskController,
    orch: Orchestrator,
    discovery: DiscoveryService,
    zk: ZkStore,
    /// The control plane's session: it holds the exists watch on every
    /// server's liveness node.
    watcher: SessionId,
    servers: BTreeMap<ServerId, Host>,
    clients: Vec<Client>,
    /// Subscriber -> index into `clients`, so each map delivery is a
    /// lookup instead of a scan over every client.
    client_by_subscriber: BTreeMap<SubscriberId, usize>,
    /// Outcome counters.
    pub stats: WorldStats,
    /// Recorded series: `success_rate`, `latency_ms`, `moves`,
    /// `err_rate`.
    pub trace: TraceLog,
    /// Success/total in the current sampling window.
    window_ok: u64,
    window_total: u64,
    map_flush_scheduled: bool,
    /// The kernel of the last map published.
    kernel: Option<Rc<ResolvedMap>>,
    moves_at_last_sample: u64,
    orch_region: RegionId,
    /// Sampling interval for the `Sample` event.
    pub sample_interval: SimDuration,
}

impl SimWorld {
    /// Builds the world and performs the synchronous setup: machines,
    /// containers, servers, bootstrap placement, and initial map
    /// publication all happen at t=0 when the first events run.
    pub fn new(cfg: ExperimentConfig) -> Self {
        let app = AppId(0);
        let spec = Rc::new(ShardingSpec::uniform_u64(cfg.shards));
        let external = Rc::new(RefCell::new(ExternalStore::new()));
        let mut zk = ZkStore::new();
        let watcher = zk.connect();

        // Orchestrator configuration.
        let mut alloc = sm_allocator_config(&cfg);
        alloc.search.seed = cfg.seed;
        let orch_cfg = OrchestratorConfig {
            graceful_migration: cfg.graceful_migration,
            // Generous caps: a server loads many shards in parallel
            // (cold-load time is per shard, not serialized), so the
            // stability cap sits well above the bootstrap fan-out.
            move_caps: sm_allocator::MoveCaps {
                max_total: 4096,
                max_per_server: 256,
                max_per_shard: 1,
            },
            alloc,
            skip_cutover_ack: false,
        };
        let mut orch = Orchestrator::new(app, cfg.policy.clone(), orch_cfg);
        orch.register_shards((0..cfg.shards).map(ShardId));

        let mut cms = BTreeMap::new();
        let mut servers = BTreeMap::new();
        let mut next_server = 0u32;
        let mut next_rack = 0u32;
        // Shard-count capacity: 4x the fair share, so the capacity
        // hard constraint exists but only the balance band normally
        // binds.
        let total_servers: u32 = cfg.regions.iter().map(|(_, n)| *n).sum();
        let replicas = cfg.policy.replication.replicas_per_shard() as f64;
        let fair_share = cfg.shards as f64 * replicas / f64::from(total_servers.max(1));
        let cap_value = (fair_share * 4.0).max(4.0);
        for &(region, count) in &cfg.regions {
            let mut cm = ClusterManager::new(RESTART_DURATION);
            for _ in 0..count {
                let id = next_server;
                next_server += 1;
                let location = Location {
                    region,
                    datacenter: u32::from(region.raw()),
                    rack: {
                        // Two servers per rack.
                        if id.is_multiple_of(2) {
                            next_rack += 1;
                        }
                        next_rack
                    },
                    machine: MachineId(id),
                };
                let capacity = LoadVector::single(Metric::ShardCount.id(), cap_value);
                cm.add_machine(Machine::new(location, capacity, false));
                cm.deploy(ContainerId(id), app, MachineId(id), 1)
                    .expect("deploy");
                orch.register_server(ServerId(id), location, capacity);

                // Nobody watches the node yet, so registering fires nothing.
                let (lease, _unwatched) =
                    ServerLease::register(&mut zk, ServerId(id)).expect("server lease");
                // Liveness is watch-driven: the control plane holds an
                // exists watch on every server's ephemeral node.
                zk.watch_exists(watcher, &paths::server_node(ServerId(id)));
                let logic = match cfg.app {
                    AppKind::Kv => {
                        AppLogic::Kv(KvServer::new(ServerId(id), spec.clone(), external.clone()))
                    }
                    AppKind::Queue => AppLogic::Queue(QueueServer::default()),
                };
                servers.insert(
                    ServerId(id),
                    Host {
                        logic,
                        region,
                        serving: true,
                        down_since: None,
                        lease: Some(lease),
                    },
                );
            }
            cms.insert(region, cm);
        }

        let mut discovery = DiscoveryService::new(4, MAP_HOP_DELAY);
        let mut clients = Vec::new();
        for &(region, _) in &cfg.regions {
            if let Some(only) = &cfg.client_regions {
                if !only.contains(&region) {
                    continue;
                }
            }
            for _ in 0..cfg.clients_per_region {
                clients.push(Client {
                    kernel: None,
                    rr_cursor: 0,
                    region,
                    subscriber: discovery.subscribe(),
                });
            }
        }
        let client_by_subscriber = clients
            .iter()
            .enumerate()
            .map(|(i, c)| (c.subscriber, i))
            .collect();

        let tc = TaskController::new(cfg.policy.clone());
        let orch_region = cfg.regions[0].0;
        Self {
            cfg,
            app,
            spec,
            cms,
            tc,
            orch,
            discovery,
            zk,
            watcher,
            servers,
            clients,
            client_by_subscriber,
            stats: WorldStats::default(),
            trace: TraceLog::new(),
            window_ok: 0,
            window_total: 0,
            map_flush_scheduled: false,
            kernel: None,
            moves_at_last_sample: 0,
            orch_region,
            sample_interval: SimDuration::from_secs(10),
        }
    }

    /// The cluster manager of `region` (inspection).
    pub fn cluster_manager(&self, region: RegionId) -> Option<&ClusterManager> {
        self.cms.get(&region)
    }

    /// Servers currently serving.
    pub fn serving_count(&self) -> usize {
        self.servers.values().filter(|h| h.serving).count()
    }

    /// The region a server lives in.
    pub fn server_region(&self, server: ServerId) -> Option<RegionId> {
        self.servers.get(&server).map(|h| h.region)
    }

    /// The orchestrator (for assertions in tests/examples).
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.orch
    }

    /// Builds a primed simulation: bootstrap placement at t=0, recurring
    /// control loops, and client ticks scheduled.
    pub fn primed(cfg: ExperimentConfig) -> sm_sim::Simulation<SimWorld> {
        let (seed, periodic_alloc_interval) = (cfg.seed, cfg.periodic_alloc_interval);
        let world = SimWorld::new(cfg);
        let n_clients = world.clients.len();
        let mut sim = sm_sim::Simulation::new(world, seed);
        sim.schedule_at(SimTime::ZERO, WorldEvent::Bootstrap);
        sim.schedule_at(SimTime::ZERO, WorldEvent::TcReview);
        sim.schedule_in(LOAD_REPORT_INTERVAL, WorldEvent::LoadReport);
        sim.schedule_in(periodic_alloc_interval, WorldEvent::PeriodicAlloc);
        sim.schedule_in(SimDuration::from_secs(1), WorldEvent::Sample);
        for c in 0..n_clients {
            // Stagger client starts over one second after the warm-up.
            let offset = SimDuration::from_millis(((c as u64) * 997) % 1000);
            sim.schedule_at(
                SimTime::ZERO + CLIENT_START + offset,
                WorldEvent::ClientTick(c),
            );
        }
        sim
    }

    fn flush_orch(&mut self, ctx: &mut Ctx<'_, WorldEvent>) {
        let cmds = self.orch.take_commands();
        for c in cmds {
            match c {
                OrchCommand::Rpc { server, rpc } => {
                    let delay = self.rpc_latency(server, ctx);
                    ctx.schedule_in(delay, WorldEvent::OrchDeliver { server, rpc });
                }
                OrchCommand::MapChanged { .. } => {
                    // Debounce: bursts of assignment changes coalesce
                    // into one publication per window.
                    if !self.map_flush_scheduled {
                        self.map_flush_scheduled = true;
                        ctx.schedule_in(MAP_DEBOUNCE, WorldEvent::MapFlush);
                    }
                }
            }
        }
    }

    /// Publishes the orchestrator's map. A version discovery accepts is
    /// resolved here, once, and every subscriber is delivered that one
    /// kernel: the clients share a process with their publisher, and
    /// what the figures measure is *when* a client learns a version,
    /// not who ran `build`. The spec never changes, so each kernel after
    /// the first keeps the last one's key columns.
    fn publish_current_map(&mut self, ctx: &mut Ctx<'_, WorldEvent>) {
        let map = Rc::new(self.orch.current_map());
        if let Ok(deliveries) = self.discovery.publish(self.app, map.clone(), ctx.rng()) {
            let kernel = Rc::new(match &self.kernel {
                Some(last) => last.with_map((*map).clone()),
                None => ResolvedMap::build(Some(&self.spec), &map),
            });
            self.kernel = Some(kernel.clone());
            for (subscriber, delay) in deliveries {
                ctx.schedule_in(
                    delay,
                    WorldEvent::MapDeliver {
                        subscriber,
                        kernel: kernel.clone(),
                    },
                );
            }
        }
    }

    fn rpc_latency(&mut self, server: ServerId, ctx: &mut Ctx<'_, WorldEvent>) -> SimDuration {
        let to = self
            .servers
            .get(&server)
            .map(|h| h.region)
            .unwrap_or(self.orch_region);
        let from = self.orch_region;
        self.cfg.latency.sample(from, to, ctx.rng())
    }

    fn region_of_client(&self, client: usize) -> RegionId {
        self.clients[client].region
    }

    fn client_server_latency(
        &mut self,
        client_region: RegionId,
        server: ServerId,
        ctx: &mut Ctx<'_, WorldEvent>,
    ) -> SimDuration {
        let server_region = self
            .servers
            .get(&server)
            .map(|h| h.region)
            .unwrap_or(client_region);
        self.cfg
            .latency
            .sample(client_region, server_region, ctx.rng())
    }

    fn server_serving(&self, server: ServerId) -> bool {
        self.servers
            .get(&server)
            .map(|h| h.serving)
            .unwrap_or(false)
    }

    /// Marks a server down and schedules ZooKeeper session expiry.
    fn take_server_down(&mut self, server: ServerId, now: SimTime, ctx: &mut Ctx<'_, WorldEvent>) {
        if let Some(host) = self.servers.get_mut(&server) {
            if host.serving {
                host.serving = false;
                host.down_since = Some(now);
                host.logic.restart();
                ctx.schedule_in(
                    self.cfg.failure_detection,
                    WorldEvent::SessionCheck {
                        server,
                        down_since: now,
                    },
                );
            }
        }
    }

    /// Schedules delivery of ZooKeeper watch notifications. The fixed
    /// small delay models the client-notification hop and keeps failure
    /// detection asynchronous, as in real ZooKeeper.
    fn dispatch_zk_events(&mut self, events: Vec<WatchEvent>, ctx: &mut Ctx<'_, WorldEvent>) {
        for event in events {
            ctx.schedule_in(SimDuration::from_millis(10), WorldEvent::ZkNotify(event));
        }
    }

    /// Reacts to a delivered watch notification, read by
    /// [`ha::watched_server`]: a server whose node is gone *now* is
    /// marked down, so one that already re-registered is not marked
    /// down by stale news. A node that exists needs no action here: the
    /// cluster manager reports the container back, and
    /// [`Self::bring_server_up`] reconciles it.
    fn handle_zk_event(&mut self, event: &WatchEvent, ctx: &mut Ctx<'_, WorldEvent>) {
        if let Some((server, false)) = ha::watched_server(&mut self.zk, self.watcher, event) {
            // A dead server's drain can never finish; discard it.
            self.tc.server_lost(server);
            self.orch.server_down(server);
            self.flush_orch(ctx);
        }
    }

    /// Serves from `server` again, a container the cluster manager
    /// reported started. The orchestrator's `reconcile_server` decides
    /// what it gets back; only what it lost to a detected failure needs
    /// an emergency run.
    fn bring_server_up(&mut self, server: ServerId, ctx: &mut Ctx<'_, WorldEvent>) {
        let detected_down = !self.orch.server_alive(server);
        let Some(host) = self.servers.get_mut(&server) else {
            return;
        };
        host.serving = true;
        host.down_since = None;
        if host.lease.is_none() {
            if let Ok((lease, events)) = ServerLease::register(&mut self.zk, server) {
                host.lease = Some(lease);
                self.dispatch_zk_events(events, ctx);
            }
        }
        self.orch.reconcile_server(server);
        if detected_down {
            self.orch.run_emergency();
        }
        self.flush_orch(ctx);
    }

    fn route(&mut self, client: usize, key: &AppKey) -> Result<(ShardId, ServerId), SmError> {
        let c = &mut self.clients[client];
        let Some(kernel) = &c.kernel else {
            return Err(SmError::Unavailable(format!(
                "no shard map for {}",
                self.app
            )));
        };
        let decision = if self.cfg.route_nearest {
            kernel.route_nearest(key, |server| match self.servers.get(&server) {
                Some(host) => self.cfg.latency.base_ms(c.region, host.region),
                None => f64::INFINITY,
            })
        } else {
            kernel.route(key, &mut c.rr_cursor)
        };
        decision.map(|d| (d.shard, d.server))
    }

    fn try_send(&mut self, mut req: Request, ctx: &mut Ctx<'_, WorldEvent>) {
        match self.route(req.client, &req.key) {
            Ok((shard, target)) => {
                let region = self.region_of_client(req.client);
                let delay = self.client_server_latency(region, target, ctx);
                ctx.schedule_in(delay, WorldEvent::Deliver { req, shard, target });
            }
            Err(_) => {
                if self.next_try(&mut req, None, ctx) == Step::GiveUp {
                    self.stats.failed_route += 1;
                }
            }
        }
    }

    /// Takes the client's next step for `req` after a try that was not
    /// served, `forward` naming where a `Forward` pointed: schedules the
    /// retry, or counts the request failed. A `Send` is the caller's to
    /// deliver.
    fn next_try(
        &mut self,
        req: &mut Request,
        forward: Option<ServerId>,
        ctx: &mut Ctx<'_, WorldEvent>,
    ) -> Step {
        let step = req.tries.next(&RETRY, forward);
        match step {
            Step::Send(_) => {}
            Step::After(backoff) => {
                self.stats.retries += 1;
                ctx.schedule_in(backoff, WorldEvent::Retry(req.clone()));
            }
            Step::GiveUp => {
                self.stats.failed += 1;
                self.window_total += 1;
                self.trace.record("success", ctx.now(), 0.0);
            }
        }
        step
    }

    fn complete_ok(&mut self, req: &Request, ctx: &mut Ctx<'_, WorldEvent>) {
        self.stats.ok += 1;
        self.window_ok += 1;
        self.window_total += 1;
        let latency = ctx.now().since(req.sent_at);
        self.trace.record("success", ctx.now(), 1.0);
        self.trace
            .record("latency_ms", ctx.now(), latency.as_millis_f64());
    }

    /// Builds the TaskController's availability view from the current
    /// orchestrator assignment and server liveness.
    fn availability_view(&self) -> AvailabilityView {
        let mut view = AvailabilityView::default();
        for (&sid, host) in &self.servers {
            let container = ContainerId(sid.raw());
            let shards = self.orch.shards_on(sid);
            if !host.serving {
                view.containers_down += 1;
                for (shard, _) in &shards {
                    *view.failed_replicas.entry(*shard).or_insert(0) += 1;
                }
            }
            view.shards_on.insert(container, shards);
        }
        view
    }

    fn tc_review(&mut self, now: SimTime, ctx: &mut Ctx<'_, WorldEvent>) {
        // Release any drains that have completed; re-issue drains that
        // stalled (e.g. their moves were superseded by a periodic plan).
        for server in self.tc.pending_drains() {
            if self.orch.is_drained(server) {
                self.tc.drain_complete(server);
            } else {
                self.orch.drain_server(server);
                self.flush_orch(ctx);
            }
        }
        let regions: Vec<RegionId> = self.cms.keys().copied().collect();
        for region in regions {
            let ops = self.cms.get(&region).expect("region exists").pending_ops();
            if ops.is_empty() {
                continue;
            }
            let (approved, drains) = if self.cfg.use_taskcontroller {
                let view = self.availability_view();
                let review = self.tc.review(region, &ops, &view);
                (review.approved, review.drains_needed)
            } else {
                // Blind execution: take ops up to the concurrency limit.
                let executing = self.cms[&region].executing_count();
                let budget = self.cfg.no_tc_concurrency.saturating_sub(executing);
                (ops.iter().take(budget).map(|o| o.id).collect(), Vec::new())
            };
            for server in drains {
                self.orch.drain_server(server);
                self.flush_orch(ctx);
            }
            for op_id in approved {
                let cm = self.cms.get_mut(&region).expect("region exists");
                if let Ok(started) = cm.begin_op(op_id, now) {
                    // The container is down for the restart window.
                    if let OpKind::Restart | OpKind::Move { .. } | OpKind::Stop = started.op.kind {
                        self.take_server_down(ServerId(started.op.container.raw()), now, ctx);
                    }
                    if let Some(resume) = started.resume_at {
                        ctx.schedule_at(resume, WorldEvent::OpDone { region, op: op_id });
                    }
                }
            }
        }
        ctx.schedule_in(TC_REVIEW_INTERVAL, WorldEvent::TcReview);
    }
}

fn sm_allocator_config(cfg: &ExperimentConfig) -> sm_allocator::AllocConfig {
    let mut alloc = sm_allocator::AllocConfig::new(vec![Metric::ShardCount.id()]);
    alloc.region_preferences = cfg.policy.region_preferences.clone();
    alloc
}

impl World for SimWorld {
    type Event = WorldEvent;

    fn handle(&mut self, ctx: &mut Ctx<'_, WorldEvent>, event: WorldEvent) {
        let now = ctx.now();
        match event {
            WorldEvent::ClientTick(client) => {
                let key = match &self.cfg.target_shards {
                    Some(range) => {
                        // Pick a shard in the range, then a key inside
                        // its slice of the uniform key space.
                        let shard = ctx.rng().range_u64(range.start, range.end);
                        let step = u64::MAX / self.cfg.shards;
                        AppKey::from_u64(shard * step + ctx.rng().range_u64(0, step))
                    }
                    None => AppKey::from_u64(ctx.rng().range_u64(0, u64::MAX)),
                };
                let req = Request {
                    client,
                    key,
                    sent_at: now,
                    tries: Try::default(),
                };
                self.try_send(req, ctx);
                let mut rate = self.cfg.request_rate.max(1e-9);
                if self.cfg.diurnal_amplitude > 0.0 {
                    let x = now.as_secs_f64() / 86_400.0;
                    rate *=
                        1.0 + self.cfg.diurnal_amplitude * (2.0 * std::f64::consts::PI * x).sin();
                    rate = rate.max(self.cfg.request_rate * 0.05);
                }
                let gap = ctx.rng().exponential(1.0 / rate);
                ctx.schedule_in(
                    SimDuration::from_millis_f64(gap * 1000.0),
                    WorldEvent::ClientTick(client),
                );
            }
            WorldEvent::Retry(req) => self.try_send(req, ctx),
            WorldEvent::Deliver {
                mut req,
                shard,
                target,
            } => {
                if !self.server_serving(target) {
                    // Connection refused: the client learns after the RTT.
                    let region = self.region_of_client(req.client);
                    let delay = self.client_server_latency(region, target, ctx);
                    ctx.schedule_in(delay, WorldEvent::Respond { req, ok: false });
                    return;
                }
                let host = self.servers.get_mut(&target).expect("serving server");
                let primary_type = self.cfg.policy.replication.has_primary();
                match host.logic.admit(shard, req.tries.hops > 0, primary_type) {
                    AppResponse::Serve => {
                        host.logic.serve(shard, &req.key);
                        let region = self.region_of_client(req.client);
                        let delay = self.client_server_latency(region, target, ctx);
                        ctx.schedule_in(delay, WorldEvent::Respond { req, ok: true });
                    }
                    AppResponse::Forward(next) => match self.next_try(&mut req, Some(next), ctx) {
                        Step::Send(next) => {
                            self.stats.forwarded += 1;
                            let from_region = self.servers[&target].region;
                            let to_region = self
                                .servers
                                .get(&next)
                                .map(|h| h.region)
                                .unwrap_or(from_region);
                            let delay = self.cfg.latency.sample(from_region, to_region, ctx.rng());
                            let target = next;
                            ctx.schedule_in(delay, WorldEvent::Deliver { req, shard, target });
                        }
                        Step::GiveUp => self.stats.failed_hops += 1,
                        Step::After(_) => {}
                    },
                    AppResponse::NotMine => {
                        self.stats.not_mine += 1;
                        let region = self.region_of_client(req.client);
                        let delay = self.client_server_latency(region, target, ctx);
                        ctx.schedule_in(delay, WorldEvent::Respond { req, ok: false });
                    }
                }
            }
            WorldEvent::Respond { mut req, ok } => {
                if ok {
                    self.complete_ok(&req, ctx);
                } else if self.next_try(&mut req, None, ctx) == Step::GiveUp {
                    self.stats.failed_refused += 1;
                }
            }
            WorldEvent::OrchDeliver { server, rpc } => {
                if !self.server_serving(server) {
                    let delay = self.rpc_latency(server, ctx);
                    ctx.schedule_in(
                        delay,
                        WorldEvent::OrchAck {
                            server,
                            rpc,
                            ok: false,
                        },
                    );
                    return;
                }
                let host = self.servers.get_mut(&server).expect("serving");
                // A cold add must rebuild the shard's state from the
                // external store before acknowledging; a destination
                // warmed by prepare_add_shard acknowledges immediately.
                let cold =
                    matches!(rpc, ServerRpc::AddShard { shard, .. } if !host.logic.is_warm(shard));
                let ok = rpc.dispatch(host.logic.as_shard_server()).is_ok();
                let mut delay = self.rpc_latency(server, ctx);
                if cold && ok {
                    delay = delay + SHARD_LOAD_TIME;
                }
                ctx.schedule_in(delay, WorldEvent::OrchAck { server, rpc, ok });
            }
            WorldEvent::OrchAck { server, rpc, ok } => {
                if ok {
                    self.orch.rpc_acked(server, rpc);
                } else {
                    self.orch.rpc_failed(server, rpc);
                }
                self.flush_orch(ctx);
            }
            WorldEvent::MapDeliver { subscriber, kernel } => {
                if let Some(&idx) = self.client_by_subscriber.get(&subscriber) {
                    if let Some(client) = self.clients.get_mut(idx) {
                        // Fan-out can deliver out of order: a version
                        // no newer than the one held is dropped.
                        let held = client.kernel.as_ref();
                        if held.is_none_or(|held| kernel.version() > held.version()) {
                            client.kernel = Some(kernel);
                        }
                    }
                }
            }
            WorldEvent::MapFlush => {
                self.map_flush_scheduled = false;
                self.publish_current_map(ctx);
            }
            WorldEvent::Bootstrap => {
                self.orch.run_emergency();
                self.flush_orch(ctx);
            }
            WorldEvent::TcReview => self.tc_review(now, ctx),
            WorldEvent::OpDone { region, op } => {
                let cm = self.cms.get_mut(&region).expect("region exists");
                if let Ok(ev) = cm.complete_op(op) {
                    if let CmEvent::ContainerUp { container } = ev {
                        let server = ServerId(container.raw());
                        self.orch.drain_finished(server);
                        self.tc.op_finished(region, op);
                        self.bring_server_up(server, ctx);
                    } else {
                        self.tc.op_finished(region, op);
                    }
                }
            }
            WorldEvent::SessionCheck { server, down_since } => {
                // Only a server down ever since `down_since` loses its
                // session.
                let lease = self
                    .servers
                    .get_mut(&server)
                    .filter(|h| !h.serving && h.down_since == Some(down_since))
                    .and_then(|h| h.lease.take());
                if let Some(lease) = lease {
                    // Expire the session; the ephemeral's deletion
                    // notifies the control plane's watch, and the
                    // delivered event — not this code — marks the
                    // server down.
                    let events = lease.expire(&mut self.zk);
                    self.dispatch_zk_events(events, ctx);
                }
            }
            WorldEvent::ZkNotify(event) => self.handle_zk_event(&event, ctx),
            WorldEvent::LoadReport => {
                let reports: Vec<(ServerId, Vec<(ShardId, LoadVector)>)> = self
                    .servers
                    .iter()
                    .filter(|(_, h)| h.serving)
                    .map(|(&sid, h)| {
                        let loads = match &h.logic {
                            AppLogic::Kv(s) => s.report_load(),
                            AppLogic::Queue(s) => s.report_load(),
                        };
                        (sid, loads)
                    })
                    .collect();
                for (sid, loads) in reports {
                    self.orch.report_load(sid, loads);
                }
                ctx.schedule_in(LOAD_REPORT_INTERVAL, WorldEvent::LoadReport);
            }
            WorldEvent::PeriodicAlloc => {
                self.orch.run_periodic();
                self.flush_orch(ctx);
                ctx.schedule_in(self.cfg.periodic_alloc_interval, WorldEvent::PeriodicAlloc);
            }
            WorldEvent::StartUpgrade { region, version } => {
                if let Some(cm) = self.cms.get_mut(&region) {
                    cm.start_rolling_upgrade(self.app, version);
                }
            }
            WorldEvent::CanaryRestart { region, count } => {
                let targets: Vec<ContainerId> = self
                    .servers
                    .iter()
                    .filter(|(_, h)| h.region == region)
                    .take(count)
                    .map(|(&s, _)| ContainerId(s.raw()))
                    .collect();
                if let Some(cm) = self.cms.get_mut(&region) {
                    for c in targets {
                        let _outcome =
                            cm.request_op(c, OpKind::Restart, sm_cluster::OpReason::Upgrade);
                    }
                }
            }
            WorldEvent::RegionFail(region) => {
                let failed = self.cms.get_mut(&region).map(|cm| cm.fail_all_machines());
                for c in failed.unwrap_or_default() {
                    self.take_server_down(ServerId(c.raw()), now, ctx);
                }
            }
            WorldEvent::RegionRecover(region) => {
                // A container still restarting stays down until its
                // operation completes.
                let cm = self.cms.get_mut(&region);
                let recovered = cm.map(|cm| cm.recover_all_machines());
                for c in recovered.unwrap_or_default() {
                    self.bring_server_up(ServerId(c.raw()), ctx);
                }
                // Rebalance soon to move preferred shards home.
                ctx.schedule_in(SimDuration::from_secs(5), WorldEvent::PeriodicAlloc);
            }
            WorldEvent::ServerCrash(server) => {
                let region = self.server_region(server);
                let cm = region.and_then(|r| self.cms.get_mut(&r));
                let crash = cm.and_then(|cm| cm.crash_container(ContainerId(server.raw())).ok());
                if let Some(CmEvent::ContainerDown { container, .. }) = crash {
                    self.take_server_down(ServerId(container.raw()), now, ctx);
                }
            }
            WorldEvent::SetPreference {
                shard,
                region,
                weight,
            } => {
                self.orch.set_region_preference(shard, region, weight);
            }
            WorldEvent::MaintenancePrepare { servers } => {
                self.orch.prepare_for_maintenance(&servers);
                self.flush_orch(ctx);
            }
            WorldEvent::MaintenanceStart {
                region,
                servers,
                impact,
            } => {
                let machines: Vec<MachineId> = servers.iter().map(|s| MachineId(s.raw())).collect();
                let cm = self.cms.get_mut(&region);
                let stopped = cm.map(|cm| cm.begin_maintenance(&machines, impact));
                for c in stopped.unwrap_or_default() {
                    self.take_server_down(ServerId(c.raw()), now, ctx);
                }
            }
            WorldEvent::MaintenanceEnd {
                region,
                servers,
                impact,
            } => {
                let machines: Vec<MachineId> = servers.iter().map(|s| MachineId(s.raw())).collect();
                let cm = self.cms.get_mut(&region);
                let resumed = cm.map(|cm| cm.end_maintenance(&machines, impact));
                for c in resumed.unwrap_or_default() {
                    self.bring_server_up(ServerId(c.raw()), ctx);
                }
            }
            WorldEvent::Sample => {
                let rate = if self.window_total == 0 {
                    1.0
                } else {
                    self.window_ok as f64 / self.window_total as f64
                };
                self.trace.record("success_rate", now, rate);
                self.trace.record("err_rate", now, 1.0 - rate);
                let moves = self.orch.stats().completed_moves;
                let delta = moves - self.moves_at_last_sample;
                self.trace.record("moves", now, delta as f64);
                self.moves_at_last_sample = moves;
                self.window_ok = 0;
                self.window_total = 0;
                ctx.schedule_in(self.sample_interval, WorldEvent::Sample);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(cfg: &mut ExperimentConfig) {
        cfg.request_rate = 5.0;
        cfg.clients_per_region = 4;
    }

    #[test]
    fn bootstrap_serves_requests() {
        let mut cfg = ExperimentConfig::single_region(6, 50);
        quiet(&mut cfg);
        let mut sim = SimWorld::primed(cfg);
        sim.run_until(SimTime::from_secs(60));
        let w = sim.world();
        assert!(w.stats.ok > 100, "requests flowing: {:?}", w.stats);
        assert!(
            w.stats.success_rate() > 0.95,
            "steady state is healthy: {:?}",
            w.stats
        );
        assert_eq!(w.orchestrator().assignment().shard_count(), 50);
    }

    #[test]
    fn clients_holding_one_version_share_one_kernel() {
        let mut cfg = ExperimentConfig::single_region(6, 50);
        quiet(&mut cfg);
        let mut sim = SimWorld::primed(cfg);
        // Bootstrap's publishes have reached every client; the first
        // periodic run (t = 60 s) has not started yet.
        sim.run_until(SimTime::from_secs(50));
        let w = sim.world();
        let published = w.discovery.latest(w.app).expect("published").version;
        let first = w.clients[0].kernel.as_ref().expect("delivered");
        assert_eq!(first.version(), published);
        for client in &w.clients {
            let kernel = client.kernel.as_ref().expect("delivered");
            assert!(Rc::ptr_eq(kernel, first), "a version is resolved once");
        }
    }

    #[test]
    fn a_version_delivered_after_a_newer_one_is_ignored() {
        let mut cfg = ExperimentConfig::single_region(4, 2);
        quiet(&mut cfg);
        // Unprimed: the only events are the two deliveries below.
        let mut sim = sm_sim::Simulation::new(SimWorld::new(cfg), 1);
        let key = AppKey::from_u64(0);
        let err = sim.world_mut().route(0, &key).unwrap_err();
        assert!(matches!(err, SmError::Unavailable(_)), "{err}");

        let subscriber = sim.world().clients[0].subscriber;
        // Version `v` names `ServerId(v)` shard 0's primary.
        let kernel_at = |w: &SimWorld, version: u64| {
            let mut a = sm_types::Assignment::new();
            a.add_replica(
                ShardId(0),
                ServerId(version as u32),
                sm_types::ReplicaRole::Primary,
            )
            .unwrap();
            let map = sm_types::ShardMap::from_assignment(version, &a);
            Rc::new(ResolvedMap::build(Some(&w.spec), &map))
        };
        for (at_ms, version) in [(1, 3), (2, 2)] {
            let kernel = kernel_at(sim.world(), version);
            sim.schedule_at(
                SimTime::from_millis(at_ms),
                WorldEvent::MapDeliver { subscriber, kernel },
            );
        }
        sim.run_until(SimTime::from_millis(10));
        let routed = sim.world_mut().route(0, &key).unwrap();
        assert_eq!(routed, (ShardId(0), ServerId(3)), "the client kept v3");
        // The other clients were delivered nothing.
        assert!(sim.world().clients[1].kernel.is_none());
    }

    #[test]
    fn rolling_upgrade_with_full_sm_keeps_availability() {
        let mut cfg = ExperimentConfig::single_region(10, 100);
        quiet(&mut cfg);
        let mut sim = SimWorld::primed(cfg);
        sim.run_until(SimTime::from_secs(30));
        let before = sim.world().stats;
        sim.schedule_at(
            SimTime::from_secs(31),
            WorldEvent::StartUpgrade {
                region: RegionId(0),
                version: 2,
            },
        );
        sim.run_until(SimTime::from_secs(600));
        let w = sim.world();
        let after_ok = w.stats.ok - before.ok;
        let after_failed = w.stats.failed - before.failed;
        let rate = after_ok as f64 / (after_ok + after_failed).max(1) as f64;
        assert!(rate > 0.995, "graceful upgrade success rate {rate}");
        // Upgrade actually converged.
        let cm = &w.cms[&RegionId(0)];
        assert!(cm.upgrade_finished(AppId(0)), "upgrade done");
        assert!(w.stats.forwarded > 0, "graceful forwarding exercised");
    }

    #[test]
    fn upgrade_without_taskcontroller_drops_requests() {
        let mut cfg = ExperimentConfig::single_region(10, 100);
        quiet(&mut cfg);
        cfg.use_taskcontroller = false;
        cfg.graceful_migration = false;
        let mut sim = SimWorld::primed(cfg);
        sim.run_until(SimTime::from_secs(30));
        let before = sim.world().stats;
        sim.schedule_at(
            SimTime::from_secs(31),
            WorldEvent::StartUpgrade {
                region: RegionId(0),
                version: 2,
            },
        );
        sim.run_until(SimTime::from_secs(600));
        let w = sim.world();
        let after_ok = w.stats.ok - before.ok;
        let after_failed = w.stats.failed - before.failed;
        let rate = after_ok as f64 / (after_ok + after_failed).max(1) as f64;
        assert!(
            rate < 0.99,
            "blind upgrade must visibly hurt availability, got {rate}"
        );
    }

    #[test]
    fn server_crash_triggers_failover() {
        let mut cfg = ExperimentConfig::single_region(6, 30);
        quiet(&mut cfg);
        cfg.failure_detection = SimDuration::from_secs(5);
        let mut sim = SimWorld::primed(cfg);
        sim.run_until(SimTime::from_secs(20));
        sim.schedule_at(SimTime::from_secs(21), WorldEvent::ServerCrash(ServerId(0)));
        sim.run_until(SimTime::from_secs(120));
        let w = sim.world();
        // All shards placed, none on the dead server.
        assert_eq!(w.orchestrator().assignment().shard_count(), 30);
        assert!(w.orchestrator().shards_on(ServerId(0)).is_empty());
    }

    #[test]
    fn geo_world_routes_locally() {
        let mut cfg = ExperimentConfig::three_region_geo(4, 30);
        cfg.policy = AppPolicy::secondary_only(2);
        quiet(&mut cfg);
        let mut sim = SimWorld::primed(cfg);
        sim.run_until(SimTime::from_secs(120));
        let w = sim.world();
        assert!(w.stats.ok > 0);
        // Latencies should mostly be local (~2 ms RTT), far below the
        // 70+ ms cross-region RTT.
        let lat = w.trace.series("latency_ms").expect("latency recorded");
        let median = sm_sim::percentile(
            &lat.points().iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            50.0,
        )
        .unwrap();
        assert!(median < 20.0, "median latency {median} ms too high");
    }
}
