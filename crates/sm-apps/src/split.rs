//! Skew-storm resharding chaos: a seeded discrete-event world in which
//! one key range goes viral mid-run, the adaptive [`SplitScaler`]
//! splits the hot shard (and later merges the cooled children back),
//! and a [`FaultProfile::SplitChaos`] plan lands crashes, session
//! expiries, partitions, and a lossy-net window specifically inside the
//! prepare/forward/cutover phases of in-flight splits and merges.
//!
//! The [`Split`] scenario (run on [`crate::kit`]) wires a bare
//! [`Orchestrator`] with a registered [`ShardingSpec`] to a fleet of
//! primary-only hosts ([`SplitHost`], a [`ShardServer`] over the
//! range-aware [`ShardHost`]) in the §4.3 forwarding states: during a
//! split the parent keeps its data but forwards each request to the
//! prepared child covering its key; during a merge both sources forward
//! to the prepared target.
//! Clients route by key through a real [`ResolvedMap`] kernel rebuilt
//! from the orchestrator's spec + map on a refresh cadence, so stale-map
//! windows exercise the forwarding chains exactly as production would.
//!
//! Safety is judged by the [`Oracle`]:
//!
//! - **KeyspaceCoverage** — on every sweep the authoritative spec's
//!   ranges must partition the key space: no gap, no overlap, first
//!   range anchored at the minimum key, exactly the last unbounded.
//! - **DualPrimary** — at every served request, at most one live host
//!   is willing to serve that key directly (children in prepare state
//!   only accept forwarded traffic, so a pre-commit child never counts).
//! - **LostRequest** — every issued request is eventually served;
//!   availability is preserved through splits, merges, aborts, and the
//!   fault plan (a request exhausting its retry budget is a violation).
//! - **Unconverged / RouterDivergence** — at the end every spec shard
//!   has a primary, nothing is stuck mid-operation, and the client
//!   router agrees with the assignment.
//!
//! The documented mutation switch ([`SplitConfig::skip_cutover_ack`])
//! commits a split/merge when the cutover RPCs are *sent* instead of
//! when they are acked; a cutover lost to the lossy window then leaves
//! a child that owns a range in the spec but never started serving —
//! clients retry into it forever and the oracle reports the lost
//! requests. `tests/split.rs` proves the oracle catches it. The whole
//! run is a pure function of `(config, plan)`.

use crate::client::{RetryPolicy, Step, Try};
use crate::forwarding::{AppResponse, ShardHost};
use crate::kit::{
    self, Change, Fleet, FleetState, Outcome, Params, Plan, Report, Resolution, Scenario, Wire,
};
use sm_allocator::MoveCaps;
use sm_core::exchange::Host;
use sm_core::{OrchCommand, Orchestrator, ServerRpc, ShardServer, SplitScaler, SplitScalerConfig};
use sm_routing::ResolvedMap;
use sm_sim::faults::{fault_plan, Fault, FaultProfile};
use sm_sim::net::Endpoint;
use sm_sim::oracle::Oracle;
use sm_sim::{SimDuration, SimTime};
use sm_types::{
    AppId, AppKey, AppPolicy, KeyRange, LoadVector, Metric, ReplicaRole, ServerId, ShardId,
    ShardingSpec, SmError,
};
use std::collections::BTreeMap;

/// The single application this world runs.
const APP: AppId = AppId(0);

/// Application servers (ids `0..SERVERS`).
const SERVERS: u32 = 8;
/// Initial shards (ids `0..SHARDS`), a uniform u64 spec.
const SHARDS: u64 = 8;
/// Concurrent request generators.
const CLIENTS: u32 = 3;
/// Gap between one client's requests.
const REQUEST_INTERVAL: SimDuration = SimDuration::from_millis(100);
/// How clients retry; a request that spends its tries is a
/// [`sm_sim::oracle::InvariantKind::LostRequest`].
pub(crate) const RETRY: RetryPolicy = RetryPolicy {
    attempts: 40,
    backoff: SimDuration::from_millis(500),
    max_hops: 6,
};
/// Cadence of load collection + adaptive resharding decisions.
const RESHARD_INTERVAL: SimDuration = SimDuration::from_secs(2);
/// Cadence of client router refresh (spec + map pull).
const REFRESH_INTERVAL: SimDuration = SimDuration::from_millis(500);
/// The viral window: 80% of keys land in one narrow range between
/// these two instants.
const STORM_START: SimTime = SimTime::from_secs(25);
/// End of the viral window; traffic cools and merges begin.
const STORM_END: SimTime = SimTime::from_secs(70);
/// Clients stop here; in-flight work drains.
const TRAFFIC_END: SimTime = SimTime::from_secs(110);
/// Periodic scans stop here; leaves room for the last retries.
const END: SimTime = SimTime::from_secs(135);
/// Start of the viral slice (a narrow band straddling the interior of
/// one initial shard, off every initial boundary).
const HOT_LO: u64 = u64::MAX / 16 * 7;
/// Width of the viral slice: 1/64 of the key space.
const HOT_SPAN: u64 = u64::MAX / 64;

/// Shape of one skew-storm run. The fault schedule derives from
/// `(seed, profile)`, so the run reproduces from this config alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitConfig {
    /// Seed for traffic, fault schedule, and network draws.
    pub seed: u64,
    /// Fault-plan profile.
    pub profile: FaultProfile,
    /// False freezes the spec (the static-sharding baseline the bench
    /// bin contrasts): load reports still flow but the scaler never
    /// runs, so the viral range has no remedy.
    pub adaptive: bool,
    /// DST mutation switch: commit the split/merge when the cutover
    /// RPCs are sent instead of acked. Never set outside
    /// `tests/split.rs` and the swarm's `--mutate` — it exists to prove
    /// the availability argument has teeth.
    pub skip_cutover_ack: bool,
}

impl SplitConfig {
    /// The compact shape the swarm and the tier-1 gate run: a small
    /// fleet, one viral window, and a one-minute fault window.
    pub fn dst(seed: u64, profile: FaultProfile) -> Self {
        Self {
            seed,
            profile,
            adaptive: true,
            skip_cutover_ack: false,
        }
    }
}

/// The scaler this world drives: request counts per reshard tick,
/// split hot shards, merge cooled neighbors, bounded concurrency.
fn scaler_for() -> SplitScaler {
    SplitScaler::new(
        SplitScalerConfig::new(
            Metric::Synthetic.id(),
            20.0, // ~48 req/tick land in the viral slice; uniform is ~7/shard
            12.0,
            SHARDS as usize,
            (SHARDS as usize) * 3,
        )
        .with_max_concurrent(2),
    )
}

/// One client request's identity, carried through deliveries, forwards,
/// and retries. The owning shard is *not* part of the identity — it is
/// re-resolved on every attempt, because splits and merges move keys
/// between shards mid-run.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    /// Unique request id (oracle bookkeeping and duplicate detection).
    pub id: u64,
    /// Issuing client (the network source endpoint).
    pub client: u32,
    /// Key being requested (as its u64 encoding).
    pub key: u64,
    /// The try under way and the forwards it followed.
    pub(crate) tries: Try,
}

/// Event alphabet of the skew-storm scenario (the kit carries RPCs,
/// fault hits, timeouts, and the failure detector).
#[derive(Debug)]
pub enum SplitEvent {
    /// Client `i` issues its next request.
    ClientTick(u32),
    /// A request (or one duplicated copy) arrives at a server.
    Deliver {
        /// The request.
        req: Req,
        /// Shard the sender resolved the key to (re-resolved per hop).
        shard: ShardId,
        /// Server this copy was addressed to.
        target: ServerId,
    },
    /// A failed try backs off and re-routes.
    Retry {
        /// The request, on its next try.
        req: Req,
    },
    /// Retry pacemaker: re-issue nacked or timed-out control steps and
    /// plan replacements on a fixed 500ms backoff.
    RetryTick,
    /// Load collection + adaptive resharding decision round.
    ReshardTick,
    /// Clients re-pull the spec and map into their router.
    RouterRefresh,
}

/// Counters accumulated over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SplitStats {
    /// Requests served successfully.
    pub served: u64,
    /// Of those, served inside the viral window for a viral-slice key.
    pub storm_served: u64,
    /// Requests that exhausted their retry budget (oracle violations).
    pub dropped: u64,
    /// Retry attempts across all requests.
    pub retries: u64,
    /// Forwarding hops taken (graceful migration/split/merge in action).
    pub forwards: u64,
    /// Split operations committed (spec swapped to the children).
    pub splits_completed: u64,
    /// Split operations aborted mid-flight (children reclaimed, parent
    /// restored) — splits genuinely interrupted by the plan.
    pub splits_aborted: u64,
    /// Merge operations committed.
    pub merges_completed: u64,
    /// Merge operations aborted mid-flight.
    pub merges_aborted: u64,
    /// Resharding protocol RPCs (prepare/forward/cutover) nacked or
    /// timed out while a fault was active.
    pub reshard_rpc_interrupted: u64,
    /// Anomalies the orchestrator surfaced via `drain_errors`.
    pub orch_errors: u64,
    /// Control-plane RPCs that timed out unanswered.
    pub rpc_timeouts: u64,
    /// Control-plane RPCs the server answered with a failure.
    pub rpc_nacks: u64,
    /// Server container crashes injected.
    pub server_crashes: u64,
    /// Session expiries injected.
    pub session_expiries: u64,
    /// Network partitions injected.
    pub net_partitions: u64,
    /// Islanded-but-alive servers that self-fenced (§3.2) before the
    /// failure detector re-placed their shards.
    pub self_fences: u64,
    /// Hottest single shard observed in any one reshard window: the max
    /// request count a `(server, shard)` pair absorbed between two load
    /// reports. With `adaptive` off this measures the overload a static
    /// layout eats during the storm; with it on, splitting caps it.
    pub peak_tick_load: u64,
    /// Reshard rounds in which at least one shard's report exceeded the
    /// scaler's split threshold — the run's total time out of the
    /// per-shard load SLO, in reshard rounds (2 s each). A static
    /// layout stays overloaded for the whole storm; the adaptive one
    /// only until its splits converge.
    pub overload_ticks: u64,
    /// Peak shard count observed (adaptivity in action).
    pub peak_shards: u64,
    /// Final shard count (merges pulled it back down).
    pub final_shards: u64,
}

/// Outcome of one skew-storm run.
pub type SplitReport = Report<SplitStats>;

/// One application server: a primary-only [`ShardHost`] with per-shard
/// request counters for load reports. All state is soft — a restart
/// wipes it and the orchestrator's reconcile rebuilds the assigned
/// part. (Process liveness lives in the kit's `FleetState`.)
#[derive(Default)]
pub struct SplitHost {
    /// The §4.3 states: roles held, prepared adds, forwarding rules.
    host: ShardHost,
    /// Requests served per shard since the last load report.
    served: BTreeMap<ShardId, u64>,
    /// §3.2 self-fenced: the server's session lapsed (it is islanded),
    /// so it has wiped its leases and must refuse control-plane grants
    /// until the session is re-established.
    fenced: bool,
    /// The spec service's answer for the split about to be delivered:
    /// `split_forward` carries no split point (the RPC stays tiny), so
    /// the server fetches it by correlation — here, the world reads the
    /// orchestrator's pending-split table just before dispatch. `None`
    /// means the operation was aborted between send and delivery.
    split_point: Option<AppKey>,
}

impl ShardServer for SplitHost {
    fn add_shard(&mut self, shard: ShardId, role: ReplicaRole) -> Result<(), SmError> {
        self.host.add_shard(shard, role)
    }

    fn drop_shard(&mut self, shard: ShardId) -> Result<(), SmError> {
        self.served.remove(&shard);
        self.host.drop_shard(shard)
    }

    fn change_role(
        &mut self,
        shard: ShardId,
        current: ReplicaRole,
        new: ReplicaRole,
    ) -> Result<(), SmError> {
        self.host.change_role(shard, current, new)
    }

    fn prepare_add_shard(
        &mut self,
        shard: ShardId,
        current_owner: ServerId,
        role: ReplicaRole,
    ) -> Result<(), SmError> {
        self.host.prepare_add_shard(shard, current_owner, role)
    }

    fn prepare_drop_shard(
        &mut self,
        shard: ShardId,
        new_owner: ServerId,
        role: ReplicaRole,
    ) -> Result<(), SmError> {
        self.host.prepare_drop_shard(shard, new_owner, role)
    }

    fn report_load(&self) -> Vec<(ShardId, LoadVector)> {
        // Zeros included — merge decisions need evidence of coldness,
        // not absence of data.
        let count = |shard| self.served.get(shard).copied().unwrap_or(0) as f64;
        self.host
            .shards()
            .map(|(shard, _)| {
                (
                    *shard,
                    LoadVector::single(Metric::Synthetic.id(), count(shard)),
                )
            })
            .collect()
    }

    fn split_forward(
        &mut self,
        parent: ShardId,
        left: ShardId,
        left_to: ServerId,
        right: ShardId,
        right_to: ServerId,
    ) -> Result<(), SmError> {
        // No split point: the op was aborted between send and delivery.
        // Refuse — the orchestrator already moved on.
        let at = self
            .split_point
            .take()
            .ok_or_else(|| SmError::conflict(format!("split of {parent} was aborted")))?;
        self.host
            .split_forward(parent, at, (left, left_to), (right, right_to))
    }

    fn merge_forward(
        &mut self,
        source: ShardId,
        target: ShardId,
        target_to: ServerId,
    ) -> Result<(), SmError> {
        self.host.merge_forward(source, target, target_to)
    }
}

impl SplitHost {
    /// True when this (live) host would serve a *direct* (unforwarded)
    /// request for `shard` — the willing-primary predicate the
    /// dual-primary audit counts.
    fn willing_direct(&self, shard: ShardId) -> bool {
        !self.fenced
            && !self.host.is_forwarding(shard)
            && self.host.role_of(shard).is_some_and(|r| r.is_primary())
    }

    /// Process restart or self-fence: all soft state is lost.
    fn wipe(&mut self) {
        *self = Self::default();
    }
}

/// What the scenario's handlers work through.
type Cx<'a, 'c> = kit::Cx<'a, 'c, SplitEvent>;

/// The skew-storm scenario.
pub struct Split {
    cfg: SplitConfig,
    cp: Orchestrator,
    scaler: SplitScaler,
    hosts: BTreeMap<ServerId, SplitHost>,
    fleet: FleetState,
    /// What the clients route by: the spec + map of the last refresh.
    router: ResolvedMap,
    rr_cursor: u64,
    next_req: u64,
    /// Every shard id ever published with its immutable key range (a
    /// shard's range never changes between mint and removal), for the
    /// per-key willing-primary audit.
    ranges: BTreeMap<ShardId, KeyRange>,
    /// The world's own counters (the fleet's and the orchestrator's are
    /// merged in by [`Split::sync_stats`]).
    stats: SplitStats,
}

impl Split {
    /// What a control-plane delivery finds at `server`: nothing for a
    /// dead process (the give-up timer reaps the RPC), a refusal from a
    /// self-fenced one (its session lapsed, so accepting an `AddShard`
    /// the control plane sent an instant before declaring it down would
    /// resurrect an unleased primary — the nack sends the control plane
    /// back to re-plan), else the host, primed with the split point a
    /// `SplitForward` will ask the spec service for.
    fn gate<'a>(
        hosts: &'a mut BTreeMap<ServerId, SplitHost>,
        fleet: &FleetState,
        cp: &Orchestrator,
        server: ServerId,
        rpc: &ServerRpc,
    ) -> Host<'a, SplitHost> {
        let Some(host) = hosts.get_mut(&server).filter(|_| fleet.is_up(server)) else {
            return Host::Down;
        };
        if host.fenced {
            return Host::Fenced;
        }
        if let ServerRpc::SplitForward { parent, .. } = rpc {
            host.split_point = cp.pending_split(*parent).cloned();
        }
        Host::Serving(host)
    }

    /// Settles the control plane synchronously against the live fleet
    /// (bootstrap and quiescence only).
    fn settle(&mut self) {
        let (hosts, fleet) = (&mut self.hosts, &self.fleet);
        let apply = |cp: &Orchestrator, server: ServerId, rpc: ServerRpc| match Self::gate(
            hosts, fleet, cp, server, &rpc,
        ) {
            Host::Serving(host) => rpc.dispatch(host).is_ok(),
            Host::Fenced | Host::Down => false,
        };
        kit::settle(&mut self.cp, apply, |cp, round| {
            cp.run_emergency() == 0 && round > 0
        });
    }

    /// True when every spec shard has a primary and nothing is stuck
    /// mid-migration or mid-reshard.
    fn converged(&self) -> bool {
        self.cp.in_flight_migrations() == 0
            && self.cp.in_flight_reshards() == 0
            && self.unplaced_count() == 0
    }

    /// Spec shards currently missing a primary (diagnostics).
    fn unplaced_count(&self) -> usize {
        let Some(spec) = self.cp.sharding_spec() else {
            return 0;
        };
        spec.iter()
            .filter(|(_, s)| self.cp.assignment().primary_of(*s).is_none())
            .count()
    }

    /// Shards where the client router disagrees with the assignment on
    /// the serving primary (the convergence audit's divergence count).
    fn router_divergence(&mut self) -> usize {
        let Some(spec) = self.cp.sharding_spec() else {
            return 0;
        };
        spec.iter()
            .filter(|(range, shard)| {
                let routed = self
                    .router
                    .route(&range.start, &mut self.rr_cursor)
                    .map(|d| (d.shard, d.server));
                let assigned = self.cp.assignment().primary_of(*shard);
                routed.ok() != assigned.map(|srv| (*shard, srv))
            })
            .count()
    }

    /// Hosts willing to serve `key` directly, across every shard whose
    /// (immutable) range covers it. More than one is a dual primary:
    /// e.g. a split parent still serving while a committed child also
    /// serves.
    fn willing_for_key(&self, key: &AppKey) -> usize {
        self.ranges
            .iter()
            .filter(|(_, range)| range.contains(key))
            .map(|(shard, _)| {
                self.hosts
                    .iter()
                    .filter(|(s, h)| self.fleet.is_up(**s) && h.willing_direct(*shard))
                    .count()
            })
            .sum()
    }

    /// Learns any newly minted shard's immutable range, then resolves
    /// the orchestrator's current spec and map into the client router
    /// (service discovery refresh). Map versions only grow and a
    /// version names one content, so rebuilding never goes back.
    fn refresh_router(&mut self) {
        let spec = self.cp.sharding_spec();
        for (range, shard) in spec.iter().flat_map(|s| s.iter()) {
            self.ranges.entry(*shard).or_insert_with(|| range.clone());
        }
        self.router = ResolvedMap::build(spec, &self.cp.current_map());
    }

    /// True inside the viral window.
    fn stormy(&self, now: SimTime) -> bool {
        now >= STORM_START && now < STORM_END
    }

    fn client_tick(&mut self, client: u32, cx: &mut Cx<'_, '_>) {
        let now = cx.now();
        if now < TRAFFIC_END {
            cx.schedule_in(REQUEST_INTERVAL, SplitEvent::ClientTick(client));
        }
        // The viral window: 80% of keys land in one narrow slice.
        let key = if self.stormy(now) && cx.rng().chance(0.8) {
            HOT_LO + cx.rng().range_u64(0, HOT_SPAN)
        } else {
            cx.rng().next_u64()
        };
        self.next_req += 1;
        let req = Req {
            id: self.next_req,
            client,
            key,
            tries: Try::default(),
        };
        cx.oracle.request_issued(req.id);
        self.route(req, cx);
    }

    /// Routes (or re-routes) a request through the client's router —
    /// key to shard to primary, on whatever spec + map version the last
    /// refresh pulled.
    fn route(&mut self, req: Req, cx: &mut Cx<'_, '_>) {
        if cx.oracle.already_served(req.id) {
            return; // a duplicated copy already completed this request
        }
        let src = Endpoint::Client(req.client);
        let key = AppKey::from_u64(req.key);
        match self.router.route(&key, &mut self.rr_cursor) {
            Ok(d) => self.transmit(req, src, d.shard, d.server, cx),
            Err(_) => self.next_try(req, src, None, cx),
        }
    }

    /// Puts one hop of `req` for `shard` on the wire from `src` toward
    /// `target`.
    fn transmit(
        &mut self,
        req: Req,
        src: Endpoint,
        shard: ShardId,
        target: ServerId,
        cx: &mut Cx<'_, '_>,
    ) {
        let dst = Endpoint::Server(target.raw());
        if !cx.send(src, dst, || SplitEvent::Deliver { req, shard, target }) {
            self.next_try(req, src, None, cx);
        }
    }

    /// Takes the client's next step for `req`, a try at `at` that was
    /// not served; `forward` is the shard and server a `Forward` named.
    fn next_try(
        &mut self,
        mut req: Req,
        at: Endpoint,
        forward: Option<(ShardId, ServerId)>,
        cx: &mut Cx<'_, '_>,
    ) {
        if cx.oracle.already_served(req.id) {
            return;
        }
        match (req.tries.next(&RETRY, forward.map(|(_, to)| to)), forward) {
            (Step::Send(to), Some((shard, _))) => {
                self.stats.forwards += 1;
                self.transmit(req, at, shard, to, cx);
            }
            (Step::After(backoff), _) => {
                self.stats.retries += 1;
                cx.schedule_in(backoff, SplitEvent::Retry { req });
            }
            // Spent (a `Send` answers only a forward).
            _ => {
                self.stats.dropped += 1;
                let now = cx.now();
                cx.oracle.request_dropped(now, req.id);
            }
        }
    }

    fn deliver(&mut self, req: Req, shard: ShardId, target: ServerId, cx: &mut Cx<'_, '_>) {
        if cx.oracle.already_served(req.id) {
            return;
        }
        let key = AppKey::from_u64(req.key);
        let decision = match self.hosts.get(&target) {
            Some(h) if self.fleet.is_up(target) => {
                h.host.admit_key(shard, &key, req.tries.hops > 0)
            }
            _ => (shard, AppResponse::NotMine),
        };
        let at = Endpoint::Server(target.raw());
        match decision {
            (_, AppResponse::Serve) => {
                let now = cx.now();
                // The dual-primary invariant is checked at the moment
                // it matters: when a request is actually served.
                let willing = self.willing_for_key(&key);
                cx.oracle.primaries_observed(now, shard.raw(), willing);
                if cx.oracle.request_served(req.id) {
                    self.stats.served += 1;
                    let hot = req.key >= HOT_LO && req.key - HOT_LO < HOT_SPAN;
                    if self.stormy(now) && hot {
                        self.stats.storm_served += 1;
                    }
                }
                if let Some(h) = self.hosts.get_mut(&target) {
                    *h.served.entry(shard).or_insert(0) += 1;
                }
            }
            (shard, AppResponse::Forward(to)) => self.next_try(req, at, Some((shard, to)), cx),
            (_, AppResponse::NotMine) => self.next_try(req, at, None, cx),
        }
    }

    /// Load collection + resharding round: every live host reports its
    /// per-shard request counts since the last round, then the scaler
    /// runs against the fresh numbers.
    fn reshard_tick(&mut self, cx: &mut Cx<'_, '_>) {
        if cx.now() < TRAFFIC_END {
            cx.schedule_in(RESHARD_INTERVAL, SplitEvent::ReshardTick);
        }
        let mut overloaded = false;
        for (srv, h) in self.hosts.iter_mut() {
            if !self.fleet.is_up(*srv) {
                continue;
            }
            let loads = h.report_load();
            h.served.clear();
            for (_, load) in &loads {
                let count = load.get(Metric::Synthetic.id()) as u64;
                self.stats.peak_tick_load = self.stats.peak_tick_load.max(count);
                overloaded |= count as f64 > self.scaler.config().split_above;
            }
            self.cp.report_load(*srv, loads);
        }
        self.stats.overload_ticks += u64::from(overloaded);
        if self.cfg.adaptive {
            self.cp.run_reshard(&self.scaler);
        }
        self.stats.orch_errors += self.cp.drain_errors().len() as u64;
        cx.flush(self.cp.take_commands());
        cx.state_changed();
    }

    /// Audits the coverage invariant on the authoritative spec: its
    /// ranges must partition the key space at every instant — split and
    /// merge commits are atomic spec swaps, so no intermediate state is
    /// ever visible here.
    fn audit_coverage(&self, now: SimTime, oracle: &mut Oracle) {
        let Some(spec) = self.cp.sharding_spec() else {
            return;
        };
        let ranges: Vec<(u64, Vec<u8>, Option<Vec<u8>>)> = spec
            .iter()
            .map(|(range, shard)| {
                (
                    shard.raw(),
                    range.start.as_bytes().to_vec(),
                    range.end.as_ref().map(|e| e.as_bytes().to_vec()),
                )
            })
            .collect();
        oracle.keyspace_coverage(now, &ranges);
    }

    /// Folds the orchestrator's resharding counters and the current
    /// shard count into the stats; returns the shard count.
    fn sync_stats(&mut self) -> u64 {
        let cp = self.cp.stats();
        self.stats.splits_completed = cp.splits_completed;
        self.stats.splits_aborted = cp.splits_aborted;
        self.stats.merges_completed = cp.merges_completed;
        self.stats.merges_aborted = cp.merges_aborted;
        let shards = self
            .cp
            .sharding_spec()
            .map_or(0, |s| s.shard_count() as u64);
        self.stats.peak_shards = self.stats.peak_shards.max(shards);
        shards
    }
}

impl Fleet for Split {
    fn fleet(&mut self) -> (&mut FleetState, &mut Orchestrator) {
        (&mut self.fleet, &mut self.cp)
    }

    fn on(&mut self, change: Change) {
        let (s, wipe, fenced) = match change {
            // A process restart: all soft state (shards held,
            // forwarding rules, tombstones) is gone, and the new
            // process establishes a fresh session.
            Change::Restarted(s) => (s, true, false),
            // By the time the control plane's detector fires, the
            // server's own §3.2 self-fence timer (strictly shorter than
            // the session timeout) has already made it wipe its leases
            // — otherwise re-placement would create a second willing
            // primary.
            Change::Islanded(s) => {
                self.stats.self_fences += 1;
                (s, true, true)
            }
            // The session re-establishes; the (wiped) server may accept
            // grants again.
            Change::Rejoined(s) => (s, false, false),
            // This world's floors only count the resharding protocol's
            // own RPCs (plain migration steps also flow through here).
            Change::Interrupted(
                ServerRpc::PrepareAddShard { .. }
                | ServerRpc::SplitForward { .. }
                | ServerRpc::MergeForward { .. },
            ) => {
                self.stats.reshard_rpc_interrupted += 1;
                return;
            }
            _ => return,
        };
        if let Some(host) = self.hosts.get_mut(&s) {
            if wipe {
                host.wipe();
            }
            host.fenced = fenced;
        }
    }
}

impl Scenario for Split {
    const WORLD: &'static str = "split";
    const MUTATION: &'static str = "skip_cutover_ack";
    const DRAINS: bool = false;
    type Config = SplitConfig;
    type Event = SplitEvent;
    type Host = SplitHost;
    type Stats = SplitStats;
    type Extra = ();

    fn params(cfg: &SplitConfig) -> Params {
        Params {
            seed: cfg.seed,
            servers: SERVERS,
            end: END,
        }
    }

    fn cell(seed: u64, profile: FaultProfile, mutate: bool) -> SplitConfig {
        SplitConfig {
            skip_cutover_ack: mutate,
            ..SplitConfig::dst(seed, profile)
        }
    }

    fn key(cfg: &SplitConfig) -> (&'static str, bool) {
        (cfg.profile.name(), cfg.skip_cutover_ack)
    }

    /// Registers the fleet and the initial uniform spec, places every
    /// shard, and settles the initial placement synchronously.
    fn build(cfg: SplitConfig) -> Self {
        let caps = MoveCaps {
            max_total: 1000,
            max_per_server: 1000,
            max_per_shard: 1,
        };
        let mut orch = kit::orch_config(Metric::Synthetic.id(), caps);
        orch.skip_cutover_ack = cfg.skip_cutover_ack;
        let mut cp = Orchestrator::new(APP, AppPolicy::primary_only(), orch);
        let mut hosts = BTreeMap::new();
        for id in (0..SERVERS).map(ServerId) {
            let capacity = LoadVector::single(Metric::Synthetic.id(), 1e9);
            cp.register_server(id, kit::loc(id.raw()), capacity);
            hosts.insert(id, SplitHost::default());
        }
        cp.register_shards((0..SHARDS).map(ShardId));
        cp.register_spec(ShardingSpec::uniform_u64(SHARDS));
        cp.run_emergency();
        let mut world = Self {
            cfg,
            cp,
            scaler: scaler_for(),
            hosts,
            fleet: FleetState::default(),
            router: ResolvedMap::default(),
            rr_cursor: 0,
            next_req: 0,
            ranges: BTreeMap::new(),
            stats: SplitStats::default(),
        };
        world.settle();
        world.refresh_router();
        world
    }

    /// No mini-SMs in this world: the plan covers servers and the
    /// network only.
    fn default_plan(&self) -> Plan {
        let cfg = &self.cfg;
        fault_plan(&cfg.profile.config(cfg.seed, SERVERS, 0))
    }

    fn script(&self) -> Vec<(SimTime, SplitEvent)> {
        let clients = (0..CLIENTS).map(|c| {
            let at = SimTime::from_millis(5_000 + 37 * u64::from(c));
            (at, SplitEvent::ClientTick(c))
        });
        clients
            .chain([
                (SimTime::from_secs(1), SplitEvent::RetryTick),
                (SimTime::from_secs(2), SplitEvent::ReshardTick),
                (SimTime::from_millis(700), SplitEvent::RouterRefresh),
            ])
            .collect()
    }

    fn handle(&mut self, cx: &mut Cx<'_, '_>, event: SplitEvent) {
        match event {
            SplitEvent::ClientTick(c) => self.client_tick(c, cx),
            SplitEvent::Deliver { req, shard, target } => self.deliver(req, shard, target, cx),
            SplitEvent::Retry { req } => self.route(req, cx),
            // Nacked and timed-out protocol steps leave here on a fixed
            // 500ms backoff (see [`kit::fleet_resolved`]), alongside
            // replacement planning for failed-over shards.
            SplitEvent::RetryTick => {
                if cx.now() < END {
                    cx.schedule_in(SimDuration::from_millis(500), SplitEvent::RetryTick);
                }
                self.cp.run_emergency();
                cx.flush(self.cp.take_commands());
            }
            SplitEvent::ReshardTick => self.reshard_tick(cx),
            SplitEvent::RouterRefresh => {
                if cx.now() < END {
                    cx.schedule_in(REFRESH_INTERVAL, SplitEvent::RouterRefresh);
                }
                self.refresh_router();
            }
        }
    }

    fn take_commands(&mut self) -> impl Iterator<Item = OrchCommand> {
        self.cp.take_commands().into_iter()
    }

    fn host(&mut self, server: ServerId, rpc: &ServerRpc) -> Host<'_, SplitHost> {
        Self::gate(&mut self.hosts, &self.fleet, &self.cp, server, rpc)
    }

    fn resolved(&mut self, cx: &mut Cx<'_, '_>, server: ServerId, rpc: ServerRpc, how: Resolution) {
        kit::fleet_resolved(self, cx, server, rpc, how);
    }

    fn fault(&mut self, cx: &mut Cx<'_, '_>, fault: Fault) {
        kit::fleet_fault(self, cx, fault);
    }

    fn detect_down(&mut self, cx: &mut Cx<'_, '_>, i: u32) {
        kit::fleet_detect_down(self, cx, i);
    }

    /// Audit key-space coverage on the authoritative spec, count
    /// completed/aborted operations, and record trace points.
    fn scan(&mut self, cx: &mut Cx<'_, '_>) {
        let now = cx.now();
        self.audit_coverage(now, &mut cx.oracle);
        let shards = self.sync_stats();
        for (series, value) in [
            ("shards", shards),
            ("splits_completed", self.stats.splits_completed),
            ("merges_completed", self.stats.merges_completed),
            ("in_flight_reshards", self.cp.in_flight_reshards() as u64),
            ("served", self.stats.served),
            ("dropped", self.stats.dropped),
        ] {
            cx.trace.record(series, now, value as f64);
        }
    }

    /// Quiescence: heal everything, settle the control plane against
    /// the healthy fleet, then run the final audits — coverage,
    /// convergence, router agreement, and the request drain.
    fn finish(mut self, wire: &mut Wire) -> Outcome<SplitStats, ()> {
        let at = END;
        // Defensive heal (the plan pairs every fault with a recovery,
        // but a shrunk plan may have dropped one).
        wire.net.heal_partition();
        wire.net.heal_degradation();
        let (down, islanded) = self.fleet.revive_all();
        for (s, h) in self.hosts.iter_mut() {
            h.fenced = false;
            if down.contains(s) {
                h.wipe();
                self.cp.reconcile_server(*s);
            } else {
                self.cp.server_up(*s);
            }
        }
        for s in islanded {
            self.cp.reconcile_server(s);
        }
        self.settle();
        self.refresh_router();
        // Final audits.
        self.audit_coverage(at, &mut wire.oracle);
        self.stats.final_shards = self.sync_stats();
        self.stats.orch_errors += self.cp.drain_errors().len() as u64;
        let unplaced = self.unplaced_count();
        let in_flight = self.cp.in_flight_migrations() + self.cp.in_flight_reshards();
        let divergence = self.router_divergence();
        wire.oracle
            .convergence_check(at, unplaced, in_flight, divergence);
        // Every issued request must have resolved by now: the client's
        // tries (`RETRY`: 40 × 500 ms) fit inside the post-traffic
        // tail, so anything still outstanding was lost track of — a
        // lost request.
        wire.oracle.quiescent_drain_check(at);
        Outcome {
            converged: self.converged(),
            unplaced,
            stats: SplitStats {
                rpc_timeouts: self.fleet.rpc_timeouts,
                rpc_nacks: self.fleet.rpc_nacks,
                server_crashes: self.fleet.server_crashes,
                session_expiries: self.fleet.session_expiries,
                net_partitions: self.fleet.net_partitions,
                ..self.stats
            },
            extra: (),
        }
    }
}

/// Runs one seeded skew-storm experiment to completion.
pub fn run_split(cfg: SplitConfig) -> SplitReport {
    kit::run::<Split>(cfg, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(cfg: SplitConfig) -> SplitReport {
        kit::run::<Split>(cfg, Some(Vec::new()))
    }

    #[test]
    fn a_split_parent_forwards_by_key_and_a_merged_source_to_the_union() {
        let (parent, left, right, union) = (ShardId(1), ShardId(10), ShardId(11), ShardId(20));
        let (a, b, c) = (ServerId(1), ServerId(2), ServerId(3));
        let at = AppKey::from_u64(1 << 63);
        let key = |k: u64| AppKey::from_u64(k);
        let mut h = SplitHost::default();
        h.add_shard(parent, ReplicaRole::Primary).unwrap();
        // The RPC carries no split point: without the stash it is an
        // aborted operation's straggler.
        assert!(h.split_forward(parent, left, a, right, b).is_err());
        h.split_point = Some(at.clone());
        h.split_forward(parent, left, a, right, b).unwrap();
        assert!(!h.willing_direct(parent), "the parent stopped serving");
        let admit = |h: &SplitHost, shard, k| h.host.admit_key(shard, &key(k), false);
        assert_eq!(admit(&h, parent, 0), (left, AppResponse::Forward(a)));
        assert_eq!(
            admit(&h, parent, (1 << 63) - 1),
            (left, AppResponse::Forward(a))
        );
        assert_eq!(admit(&h, parent, 1 << 63), (right, AppResponse::Forward(b)));
        // Without the key there is no telling which child.
        assert_eq!(h.host.admit(parent, false), AppResponse::NotMine);
        // The drop leaves the rule behind as the tombstone.
        h.drop_shard(parent).unwrap();
        assert_eq!(
            admit(&h, parent, u64::MAX),
            (right, AppResponse::Forward(b))
        );

        // A merge source forwards every key to the union, under its id.
        h.add_shard(left, ReplicaRole::Primary).unwrap();
        h.merge_forward(left, union, c).unwrap();
        assert_eq!(admit(&h, left, 7), (union, AppResponse::Forward(c)));
        // An abort hands the source back: it serves again.
        h.add_shard(left, ReplicaRole::Primary).unwrap();
        assert_eq!(admit(&h, left, 7), (left, AppResponse::Serve));
        assert!(h.willing_direct(left));
    }

    #[test]
    fn world_bootstraps_with_every_shard_placed() {
        let mut w = Split::build(SplitConfig::dst(1, FaultProfile::SplitChaos));
        assert_eq!(w.unplaced_count(), 0, "every shard gets a primary");
        assert!(w.converged());
        assert_eq!(
            w.cp.sharding_spec().map(|s| s.shard_count()),
            Some(8),
            "initial uniform spec registered"
        );
        assert!(
            !w.default_plan().is_empty(),
            "profile derives a fault schedule"
        );
        // The client router already agrees with the assignment.
        assert_eq!(w.router_divergence(), 0);
    }

    #[test]
    fn quiet_storm_splits_then_merges_and_stays_clean() {
        // No faults at all: the viral window alone must drive real
        // splits through the generalized protocol, the cooldown must
        // drive merges, and nothing may be lost.
        let r = quiet(SplitConfig::dst(7, FaultProfile::SplitChaos));
        assert_eq!(r.total_violations, 0, "oracle: {:?}", r.violations);
        assert!(r.converged, "{} unplaced", r.unplaced);
        assert!(
            r.stats.splits_completed >= 2,
            "the storm must trigger splits: {:?}",
            r.stats
        );
        assert!(
            r.stats.merges_completed >= 1,
            "the cooldown must trigger merges: {:?}",
            r.stats
        );
        assert!(
            r.stats.peak_shards > 8 && r.stats.final_shards < r.stats.peak_shards,
            "shard count must rise and fall: {:?}",
            r.stats
        );
        assert!(r.stats.served > 1_000, "{:?}", r.stats);
        assert_eq!(r.stats.dropped, 0, "{:?}", r.stats);
        assert!(r.stats.forwards > 0, "graceful handoffs forward requests");
    }

    #[test]
    fn static_sharding_never_resplits() {
        let mut cfg = SplitConfig::dst(7, FaultProfile::SplitChaos);
        cfg.adaptive = false;
        let r = quiet(cfg);
        assert_eq!(r.stats.splits_completed, 0);
        assert_eq!(r.stats.peak_shards, 8);
        assert_eq!(r.total_violations, 0, "static is safe, just overloaded");
    }
}
