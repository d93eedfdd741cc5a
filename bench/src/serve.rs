//! The request-plane workloads: `serve_steady` and `serve_churn`.
//!
//! One client thread drives 16,384 shards on 64 `KvServer`s through
//! `RouterHandle::route` → `KvServer::admit` → `get`/`put`, 90% gets
//! and 10% puts over 65,536 preloaded keys. The request stream is a
//! seeded LCG restarted every round, so every round does the same work.
//!
//! `serve_steady` never changes the map. `serve_churn` runs the same
//! stream while a second thread installs a new map version into the
//! shared `ConcurrentRouter` every 20 ms; the client thread walks the
//! hosts of each version's moved shard through the §4.3 steps around
//! the install, so some requests take the `Forward` path. Its traced
//! run also hands 256 shards over at once, which the 20 ms schedule
//! has no time for, to weigh that path.

use crate::stats;
use crate::trace::{Name, Off, Probe, Tracer};
use crate::{host, Args, Report};
use sm_apps::{AppResponse, ExternalStore, KvServer};
use sm_core::ShardServer;
use sm_routing::{ConcurrentRouter, ResolvedMap, RouterHandle};
use sm_sim::SimRng;
use sm_types::{
    AppId, AppKey, Assignment, ReplicaAssignment, ReplicaRole, ServerId, ShardId, ShardMap,
    ShardingSpec,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const APP: AppId = AppId(0);
const SHARDS: u64 = 16_384;
const SERVERS: u32 = 64;
const KEYS: usize = 65_536;
const VALUE_BYTES: usize = 64;
/// Requests in one round (~8 ms), and the windows a round is timed in:
/// short, so that each often runs undisturbed.
const ROUND: usize = 10_000;
const ROUND_WINDOWS: usize = 10;
const WINDOW: usize = ROUND / ROUND_WINDOWS;
/// `serve_churn` times this many windows of every cycle: with the host
/// steps before them they leave half of the installer's period free, so
/// that a client on a disturbed host still keeps up with the schedule.
const CHURN_WINDOWS: usize = 4;
const PUT_ONE_IN: u64 = 10;
/// A request is failed after this many forward or retry hops.
const MAX_HOPS: u32 = 2;
/// One replay of either script is a set-up and this much work on the
/// fleet it built (~2 s), so set-up is sampled all through the run.
const ROUNDS_PER_REPLAY: usize = 200;
const CYCLES_PER_REPLAY: usize = 100;
/// Untimed rounds after a set-up, to fill the caches.
const WARMUP_ROUNDS: usize = 3;

/// `serve_churn`: the installer's fixed schedule.
const INSTALL_PERIOD: Duration = Duration::from_millis(20);
/// `serve_churn`: the client looks for the new version this often.
const CHUNK: usize = 250;
/// Replays of `ResolvedMap::build` in the traced run.
const BUILD_REPLAYS: usize = 40;
/// `serve_churn`, traced run: shards one bulk version hands over at
/// once, so that 1 request in 64 is forwarded while it is prepared.
const BULK_MOVES: u64 = 256;
/// Share of the traced time spent on churn cycles; bulk versions get
/// the rest.
const TRACED_CYCLES_SHARE: f64 = 0.6;

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// One shard handed from `src` to `dst` by one map version.
#[derive(Clone, Copy)]
struct Move {
    shard: ShardId,
    src: ServerId,
    dst: ServerId,
}

/// Everything set-up builds: the router, the servers, and the client's
/// model of what every key must read.
struct Fleet {
    router: Arc<ConcurrentRouter>,
    handle: RouterHandle,
    spec: Rc<ShardingSpec>,
    servers: Vec<KvServer>,
    keys: Vec<AppKey>,
    /// The version last put under each key.
    versions: Vec<u64>,
    /// The installed map (the installer thread's working copy).
    map: ShardMap,
    stream: u64,
    attempted: u64,
    failed: u64,
    forwarded: u64,
    /// Routes that saw another map version than the route before.
    refreshes: u64,
    seen_version: u64,
}

impl Fleet {
    /// Builds the map, installs it, starts the servers and preloads the
    /// keys through the request path. All inputs come from `seed`.
    fn set_up(seed: u64) -> Result<Fleet, String> {
        let mut rng = SimRng::seeded(seed);
        let spec = ShardingSpec::uniform_u64(SHARDS);
        let mut assignment = Assignment::new();
        for s in 0..SHARDS {
            let server = ServerId(rng.index(SERVERS as usize) as u32);
            assignment
                .add_replica(ShardId(s), server, ReplicaRole::Primary)
                .expect("one primary per shard");
        }
        let map = ShardMap::from_assignment(1, &assignment);
        let router = Arc::new(ConcurrentRouter::new());
        router.register_app(APP, spec.clone());
        router.install_map(APP, map.clone());
        let handle = router.handle().expect("a free reader slot");

        let spec = Rc::new(spec);
        let external = Rc::new(RefCell::new(ExternalStore::new()));
        let mut servers: Vec<KvServer> = (0..SERVERS)
            .map(|i| KvServer::new(ServerId(i), spec.clone(), external.clone()))
            .collect();
        for (shard, replica) in assignment.iter() {
            servers[replica.server.raw() as usize]
                .add_shard(shard, replica.role)
                .expect("add_shard");
        }
        let keys: Vec<AppKey> = (0..KEYS)
            .map(|_| AppKey::from_u64(rng.next_u64()))
            .collect();
        let mut fleet = Fleet {
            router,
            handle,
            spec,
            servers,
            keys,
            versions: vec![0; KEYS],
            map,
            stream: rng.next_u64(),
            attempted: 0,
            failed: 0,
            forwarded: 0,
            refreshes: 0,
            seen_version: 1,
        };
        for idx in 0..KEYS {
            fleet.request(&mut Off, idx, Some(0));
        }
        if fleet.failed > 0 {
            return Err(format!("{} preloading puts failed", fleet.failed));
        }
        fleet.attempted = 0;
        Ok(fleet)
    }

    /// One request for key `idx`: a put of `put` or a get checked
    /// against the last put.
    #[inline]
    fn request<P: Probe>(&mut self, p: &mut P, idx: usize, put: Option<u64>) {
        let root = p.enter(Name::Request);
        self.attempted += 1;
        let key = &self.keys[idx];
        let mut hops = 0;
        let mut forwarded = false;
        let mut took_forward = false;
        let mut target = None;
        let ok = loop {
            let (shard, server) = match target {
                Some(t) => t,
                None => {
                    let s = p.enter(Name::Route);
                    let decision = self.handle.route(APP, key);
                    p.exit(s);
                    let Ok(d) = decision else { break false };
                    if d.map_version != self.seen_version {
                        self.seen_version = d.map_version;
                        self.refreshes += 1;
                    }
                    (d.shard, d.server)
                }
            };
            let srv = &mut self.servers[server.raw() as usize];
            let s = p.enter(Name::Admit);
            let answer = srv.admit(shard, forwarded);
            p.exit(s);
            match answer {
                AppResponse::Serve => match put {
                    Some(version) => {
                        let mut value = vec![0u8; VALUE_BYTES];
                        value[..8].copy_from_slice(&(idx as u64).to_le_bytes());
                        value[8..16].copy_from_slice(&version.to_le_bytes());
                        let s = p.enter(Name::KvPut);
                        srv.put(shard, key.clone(), value);
                        p.exit(s);
                        self.versions[idx] = version;
                        break true;
                    }
                    None => {
                        let s = p.enter(Name::KvGet);
                        let got = srv.get(shard, key);
                        p.exit(s);
                        break got.is_some_and(|v| {
                            v.len() == VALUE_BYTES
                                && v[..8] == (idx as u64).to_le_bytes()
                                && v[8..16] == self.versions[idx].to_le_bytes()
                        });
                    }
                },
                _ if hops == MAX_HOPS => break false,
                AppResponse::Forward(to) => {
                    forwarded = true;
                    took_forward = true;
                    target = Some((shard, to));
                }
                // A stale map: ask the router again.
                AppResponse::NotMine => {
                    forwarded = false;
                    target = None;
                }
            }
            hops += 1;
        };
        self.forwarded += u64::from(took_forward);
        self.failed += u64::from(!ok);
        if took_forward {
            p.rename(root, Name::Forwarded);
        }
        p.exit(root);
    }

    /// The next `n` requests of the stream at `*x`; puts write `version`.
    #[inline]
    fn requests<P: Probe>(&mut self, p: &mut P, x: &mut u64, n: usize, version: u64) {
        for _ in 0..n {
            *x = lcg(*x);
            let idx = (*x >> 33) as usize % KEYS;
            let put = (*x >> 13).is_multiple_of(PUT_ONE_IN).then_some(version);
            self.request(p, idx, put);
        }
    }

    /// One round: the stream restarted, `ROUND` requests.
    fn round<P: Probe>(&mut self, p: &mut P, version: u64) {
        let mut x = self.stream;
        self.requests(p, &mut x, ROUND, version);
    }

    /// The next `windows` windows of `WINDOW` requests of the stream at
    /// `*x`, and the seconds each took. Restarted from `self.stream`,
    /// window `w` holds the same requests every time.
    fn timed_windows<P: Probe>(
        &mut self,
        p: &mut P,
        x: &mut u64,
        windows: usize,
        version: u64,
    ) -> Vec<f64> {
        (0..windows)
            .map(|_| {
                let t = Instant::now();
                self.requests(p, x, WINDOW, version);
                t.elapsed().as_secs_f64()
            })
            .collect()
    }

    fn server(&mut self, id: ServerId) -> &mut KvServer {
        &mut self.servers[id.raw() as usize]
    }
}

/// Counters summed over the fleets of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    forwarded: u64,
    refreshes: u64,
}

impl Tally {
    fn add(&mut self, fleet: &Fleet) {
        self.attempted += fleet.attempted;
        self.failed += fleet.failed;
        self.forwarded += fleet.forwarded;
        self.refreshes += fleet.refreshes;
    }

    fn report(&self, report: &mut Report) {
        let n = self.attempted as f64;
        report.set("sm-apps.forwarded_ratio", self.forwarded as f64 / n);
        report.set("sm-routing.refresh_ratio", self.refreshes as f64 / n);
        report.attempted = self.attempted;
        report.failed = self.failed;
    }
}

/// A timed set-up and the untimed warm-up rounds after it.
fn timed_set_up(seed: u64, setup_s: &mut Vec<f64>) -> Result<Fleet, String> {
    let t = Instant::now();
    let mut fleet = Fleet::set_up(seed)?;
    setup_s.push(t.elapsed().as_secs_f64());
    for _ in 0..WARMUP_ROUNDS {
        fleet.round(&mut Off, 1);
    }
    Ok(fleet)
}

/// Per-request layer times of one traced window, in ns.
#[derive(Default)]
struct LayerSamples {
    route: Vec<f64>,
    admit: Vec<f64>,
    get: Vec<f64>,
    put: Vec<f64>,
    host_step: Vec<f64>,
    /// Whole requests that were not forwarded.
    direct: Vec<f64>,
}

impl LayerSamples {
    fn push(&mut self, t: &crate::trace::OpTotals) {
        self.route.push(t.self_ns_per_call(Name::Route));
        self.admit.push(t.self_ns_per_call(Name::Admit));
        self.get.push(t.self_ns_per_call(Name::KvGet));
        self.put.push(t.self_ns_per_call(Name::KvPut));
        self.host_step.push(t.self_ns_per_call(Name::HostStep));
        self.direct.push(t.span_ns_per_call(Name::Request));
    }

    fn report(&self, report: &mut Report) {
        report.set("sm-routing.route_ns", stats::floor_of(&self.route).floor);
        report.set("sm-apps.admit_ns", stats::floor_of(&self.admit).floor);
        report.set("sm-apps.kv_get_ns", stats::floor_of(&self.get).floor);
        report.set("sm-apps.kv_put_ns", stats::floor_of(&self.put).floor);
        report.set("sm-apps.direct_req_ns", stats::floor_of(&self.direct).floor);
    }
}

/// Per round, the seconds each of its windows took.
type Rounds = Vec<Vec<f64>>;

/// Samples of the steady script, replayed until `budget` is spent and
/// `min_rounds` are in: seconds per set-up, and seconds per window of
/// each round. Returns the last fleet too.
fn steady_replays<P: Probe>(
    seed: u64,
    budget: Duration,
    min_rounds: usize,
    p: &mut P,
    mut end_round: impl FnMut(&mut P),
    tally: &mut Tally,
) -> Result<(Vec<f64>, Rounds, Fleet), String> {
    let start = Instant::now();
    let (mut setup_s, mut rounds) = (Vec::new(), Vec::new());
    loop {
        let mut fleet = timed_set_up(seed, &mut setup_s)?;
        for round in 0..ROUNDS_PER_REPLAY {
            let mut x = fleet.stream;
            rounds.push(fleet.timed_windows(p, &mut x, ROUND_WINDOWS, round as u64 + 2));
            end_round(p);
            if start.elapsed() >= budget && rounds.len() >= min_rounds {
                host::replay_done();
                tally.add(&fleet);
                return Ok((setup_s, rounds, fleet));
            }
        }
        host::replay_done();
        tally.add(&fleet);
    }
}

pub fn steady(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tally = Tally::default();
    let (setup_s, rounds, fleet) = steady_replays(
        args.seed,
        args.untraced_seconds(),
        stats::MIN_SINGLE,
        &mut Off,
        |_| {},
        &mut tally,
    )?;
    report.set("setup_s", stats::floor_of(&setup_s).floor);
    // A round is short enough to count as a single window, so it needs
    // as many replays as one; its ten windows each keep their own floor.
    let round = stats::windowed(&rounds, stats::MIN_SINGLE)?;
    report.set("work_per_s", ROUND as f64 / round.floor);
    report.set("bench.p50_over_floor", round.p50 / round.floor);
    let whole: Vec<f64> = rounds.iter().map(|r| r.iter().sum()).collect();
    report.note(format!(
        "{} set-ups, {} rounds of {ROUND} requests in {ROUND_WINDOWS} windows, s/round: {}",
        setup_s.len(),
        rounds.len(),
        stats::spread(&whole)
    ));
    drop(fleet);

    if args.trace {
        let mut tracer = Tracer::new(1);
        report.set("bench.span_cost_ns", tracer.span_cost_ns());
        let mut layers = LayerSamples::default();
        let (_, traced, mut fleet) = steady_replays(
            args.seed,
            args.traced_seconds(),
            stats::MIN_WINDOWED,
            &mut tracer,
            |tracer| layers.push(&tracer.end_op()),
            &mut tally,
        )?;
        layers.report(&mut report);
        report.set(
            "bench.trace_overhead_ratio",
            stats::windowed(&traced, stats::MIN_WINDOWED)?.floor / round.floor,
        );
        let failed_before = fleet.failed;
        let allocs = host::count_allocs(|| fleet.round(&mut Off, 1));
        tally.attempted += ROUND as u64;
        tally.failed += fleet.failed - failed_before;
        report.set("sm-apps.allocs_per_req", allocs as f64 / ROUND as f64);
        report.tracer = Some(tracer);
    }

    // The map never changed, so nothing was forwarded and no route saw
    // a second version.
    if tally.forwarded != 0 || tally.refreshes != 0 {
        report.problem(format!(
            "steady state forwarded {} requests and refreshed {} routes",
            tally.forwarded, tally.refreshes
        ));
    }
    tally.report(&mut report);
    Ok(report)
}

/// What the client and the installer thread share.
struct Shared {
    /// Hosts are ready for every version up to this one.
    prepared: AtomicU64,
    /// The installer has returned or panicked: no version follows.
    installer_gone: AtomicBool,
    /// The client has returned or panicked: no host gets ready.
    client_gone: AtomicBool,
}

/// Sets its flag however the thread holding it ends, so that neither
/// thread waits for one that is gone.
struct GoneOnDrop<'a>(&'a AtomicBool);

impl Drop for GoneOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

#[derive(Default)]
struct InstallerSamples {
    install_ms: Vec<f64>,
    late_ms: Vec<f64>,
}

fn move_in_map(map: &mut ShardMap, mv: &Move, version: u64) {
    map.version = version;
    if let Some(entry) = map.entries.get_mut(&mv.shard) {
        entry.replicas = vec![ReplicaAssignment {
            server: mv.dst,
            role: ReplicaRole::Primary,
        }];
    }
}

/// The installer thread: a version is due one period after the one
/// before it was (open loop), or at once when that moment has passed
/// already, so that one stall of the host makes one install late and
/// not the hundred after it. A version is installed once the hosts are
/// ready for it, and its lateness is recorded.
fn installer(
    router: &ConcurrentRouter,
    map: &mut ShardMap,
    moves: &[Move],
    first: u64,
    shared: &Shared,
) -> InstallerSamples {
    let _gone = GoneOnDrop(&shared.installer_gone);
    let mut samples = InstallerSamples::default();
    let mut due = Instant::now();
    for (i, mv) in moves.iter().enumerate() {
        let version = first + i as u64;
        let mut next = map.clone();
        move_in_map(&mut next, mv, version);
        due = (due + INSTALL_PERIOD).max(Instant::now());
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        while shared.prepared.load(Ordering::Acquire) < version {
            if shared.client_gone.load(Ordering::Acquire) {
                return samples;
            }
            std::thread::yield_now();
        }
        let t = Instant::now();
        router.install_map(APP, next);
        samples.install_ms.push(t.elapsed().as_secs_f64() * 1e3);
        samples
            .late_ms
            .push(t.duration_since(due).as_secs_f64() * 1e3);
        move_in_map(map, mv, version);
    }
    samples
}

/// Seeded moves for versions 2.., each of a shard to another server.
fn plan_moves(seed: u64, map: &ShardMap, versions: usize) -> Vec<Move> {
    let mut rng = SimRng::seed_from(seed, 1);
    let mut owner: Vec<ServerId> = (0..SHARDS)
        .map(|s| {
            map.entry(ShardId(s))
                .and_then(|e| e.primary())
                .expect("every shard has a primary")
        })
        .collect();
    (0..versions)
        .map(|_| {
            let shard = rng.index(SHARDS as usize);
            let src = owner[shard];
            let dst = ServerId((src.raw() + 1 + rng.index(SERVERS as usize - 1) as u32) % SERVERS);
            owner[shard] = dst;
            Move {
                shard: ShardId(shard as u64),
                src,
                dst,
            }
        })
        .collect()
}

/// The §4.3 calls of one move, in order.
enum HostStep {
    PrepareAdd,
    PrepareDrop,
    Add,
    Drop,
}

/// Per-cycle samples of the churn client.
#[derive(Default)]
struct CycleSamples {
    /// Per cycle, the seconds in each of the four host steps of its
    /// move: every step scans the whole store, whichever shard moves.
    host_s: Vec<Vec<f64>>,
    /// Per cycle, the seconds in each of the `CHURN_WINDOWS` windows
    /// served right after the old owner began to forward.
    round_s: Vec<Vec<f64>>,
}

/// Runs one churn cycle per move, versions from 2 and until `enough`,
/// beside an installer thread of its own. One cycle: walk the moved
/// shard's hosts through `prepare_add_shard`, `prepare_drop_shard`
/// (requests to the old owner are forwarded from here on) and
/// `add_shard`; serve `CHURN_WINDOWS` timed windows, then on, untimed,
/// until this client's handle sees the version installed; `drop_shard`.
fn churn_cycles<P: Probe>(
    fleet: &mut Fleet,
    p: &mut P,
    moves: &[Move],
    cycles: &mut CycleSamples,
    mut end_cycle: impl FnMut(&mut P, &Fleet),
    enough: impl Fn(&CycleSamples) -> bool,
) -> Result<InstallerSamples, String> {
    const FIRST: u64 = 2;
    let shared = Shared {
        prepared: AtomicU64::new(FIRST - 1),
        installer_gone: AtomicBool::new(false),
        client_gone: AtomicBool::new(false),
    };
    let router = fleet.router.clone();
    let mut map = std::mem::take(&mut fleet.map);
    let installed = std::thread::scope(|scope| {
        let installer = scope.spawn(|| installer(&router, &mut map, moves, FIRST, &shared));
        let gone = GoneOnDrop(&shared.client_gone);
        for (i, mv) in moves.iter().enumerate() {
            let version = FIRST + i as u64;
            let root = p.enter(Name::Cycle);
            let role = ReplicaRole::Primary;
            let mut host_s = Vec::with_capacity(4);
            let mut host_step = |fleet: &mut Fleet, p: &mut P, step: HostStep| {
                let s = p.enter(Name::HostStep);
                let t = Instant::now();
                let done = match step {
                    HostStep::PrepareAdd => fleet
                        .server(mv.dst)
                        .prepare_add_shard(mv.shard, mv.src, role),
                    HostStep::PrepareDrop => fleet
                        .server(mv.src)
                        .prepare_drop_shard(mv.shard, mv.dst, role),
                    HostStep::Add => fleet.server(mv.dst).add_shard(mv.shard, role),
                    HostStep::Drop => fleet.server(mv.src).drop_shard(mv.shard),
                };
                host_s.push(t.elapsed().as_secs_f64());
                p.exit(s);
                fleet.failed += u64::from(done.is_err());
            };
            host_step(fleet, p, HostStep::PrepareAdd);
            host_step(fleet, p, HostStep::PrepareDrop);
            host_step(fleet, p, HostStep::Add);
            shared.prepared.store(version, Ordering::Release);

            let mut x = fleet.stream;
            let timed = fleet.timed_windows(p, &mut x, CHURN_WINDOWS, version);
            cycles.round_s.push(timed);
            while fleet.handle.map_version(APP) < version {
                if shared.installer_gone.load(Ordering::Acquire) {
                    break;
                }
                fleet.requests(p, &mut x, CHUNK, version);
            }
            host_step(fleet, p, HostStep::Drop);
            p.exit(root);
            cycles.host_s.push(host_s);
            end_cycle(p, fleet);
            if fleet.handle.map_version(APP) < version {
                return Err(format!("the installer ended before version {version}"));
            }
            if enough(cycles) {
                break;
            }
        }
        // The installer may be waiting for the hosts of a next version.
        drop(gone);
        installer
            .join()
            .map_err(|_| "the installer thread panicked".to_string())
    });
    fleet.map = map;
    installed
}

/// Samples of the churn script, replayed until `budget` is spent and
/// `min_cycles` are in. Returns the last fleet too.
fn churn_replays<P: Probe>(
    seed: u64,
    budget: Duration,
    min_cycles: usize,
    p: &mut P,
    mut end_cycle: impl FnMut(&mut P, &Fleet),
    tally: &mut Tally,
) -> Result<(Vec<f64>, CycleSamples, InstallerSamples, Fleet), String> {
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut cycles = CycleSamples::default();
    let mut installs = InstallerSamples::default();
    loop {
        let mut fleet = timed_set_up(seed, &mut setup_s)?;
        let moves = plan_moves(seed, &fleet.map, CYCLES_PER_REPLAY);
        let enough = |c: &CycleSamples| start.elapsed() >= budget && c.round_s.len() >= min_cycles;
        let installed = churn_cycles(&mut fleet, p, &moves, &mut cycles, &mut end_cycle, enough)?;
        installs.install_ms.extend(installed.install_ms);
        installs.late_ms.extend(installed.late_ms);
        host::replay_done();
        tally.add(&fleet);
        if enough(&cycles) {
            return Ok((setup_s, cycles, installs, fleet));
        }
    }
}

/// What one bulk version measured.
struct BulkSample {
    /// Requests of the round served while the shards were handed over,
    /// and how many of them were forwarded (exact).
    requests: u64,
    forwarded: u64,
    /// Mean whole time of a forwarded request of that round, in ns.
    forwarded_req_ns: f64,
}

/// One traced §4.3 host call; a refusal counts as a failed operation.
fn host_step(
    fleet: &mut Fleet,
    tracer: &mut Tracer,
    step: impl FnOnce(&mut Fleet) -> Result<(), sm_types::SmError>,
) {
    let s = tracer.enter(Name::HostStep);
    let done = step(fleet);
    tracer.exit(s);
    fleet.failed += u64::from(done.is_err());
}

/// One bulk version, on the client thread alone and traced: hands
/// `BULK_MOVES` shards over at once. While they are prepared, a round is
/// served with 1 request in 64 going to a shard whose old owner
/// forwards it; then the map is installed, a round is served by it, and
/// the old owners drop their shards. This is the weight of the
/// `Forward` path that one moved shard per 20 ms version cannot show
/// (the four host steps of 256 shards take most of a second).
fn bulk_version(fleet: &mut Fleet, tracer: &mut Tracer, seed: u64) -> BulkSample {
    let version = fleet.handle.map_version(APP) + 1;
    let mut rng = SimRng::seed_from(seed, version);
    let stride = SHARDS / BULK_MOVES;
    let first = rng.index(stride as usize) as u64;
    let moves: Vec<Move> = (0..BULK_MOVES)
        .map(|i| {
            let shard = ShardId(first + i * stride);
            let src = fleet
                .map
                .entry(shard)
                .and_then(|e| e.primary())
                .expect("every shard has a primary");
            let dst = ServerId((src.raw() + 1 + rng.index(SERVERS as usize - 1) as u32) % SERVERS);
            Move { shard, src, dst }
        })
        .collect();
    let role = ReplicaRole::Primary;
    for mv in &moves {
        host_step(fleet, tracer, |f| {
            f.server(mv.dst).prepare_add_shard(mv.shard, mv.src, role)
        });
        host_step(fleet, tracer, |f| {
            f.server(mv.src).prepare_drop_shard(mv.shard, mv.dst, role)
        });
        host_step(fleet, tracer, |f| {
            f.server(mv.dst).add_shard(mv.shard, role)
        });
    }
    tracer.end_op();

    let forwarded_before = fleet.forwarded;
    fleet.round(tracer, version);
    let handing_over = tracer.end_op();

    for mv in &moves {
        move_in_map(&mut fleet.map, mv, version);
    }
    fleet.router.install_map(APP, fleet.map.clone());
    fleet.round(tracer, version);
    for mv in &moves {
        host_step(fleet, tracer, |f| f.server(mv.src).drop_shard(mv.shard));
    }
    tracer.end_op();
    BulkSample {
        requests: ROUND as u64,
        forwarded: fleet.forwarded - forwarded_before,
        forwarded_req_ns: handing_over.span_ns_per_call(Name::Forwarded),
    }
}

pub fn churn(args: &Args) -> Result<Report, String> {
    if host::cores() < 2 {
        return Err("serve_churn runs two threads and needs two cores".into());
    }
    let mut report = Report::default();
    let mut tally = Tally::default();
    // Requests attempted and failed in the traced run's bulk versions.
    let mut bulk_requests = (0, 0);
    let (setup_s, cycles, installed, fleet) = churn_replays(
        args.seed,
        args.untraced_seconds(),
        stats::MIN_SINGLE,
        &mut Off,
        |_, _| {},
        &mut tally,
    )?;
    drop(fleet);
    report.set("setup_s", stats::floor_of(&setup_s).floor);
    // One period of the script: the host steps of one move, then
    // requests for the rest of the period. Every step and every window
    // of the round keeps its own floor; the rate is the requests that
    // fit in a period.
    let host_s = stats::windowed(&cycles.host_s, stats::MIN_SINGLE)?;
    let round = stats::windowed(&cycles.round_s, stats::MIN_SINGLE)?;
    let install_ms = stats::single(&installed.install_ms)?;
    let period = INSTALL_PERIOD.as_secs_f64();
    if host_s.floor >= period {
        return Err(format!(
            "host steps take {} s, a whole period",
            host_s.floor
        ));
    }
    let rate = (period - host_s.floor) / period * (CHURN_WINDOWS * WINDOW) as f64 / round.floor;
    report.set("work_per_s", rate);
    report.set("op.map_install_ms", install_ms.floor);
    report.set("bench.p50_over_floor", round.p50 / round.floor);
    let late = stats::floor_of(&installed.late_ms).p50;
    report.set("bench.installer_late_p50_ms", late);
    if late >= 5.0 {
        report.problem(format!("installer ran {late} ms late at the median"));
    }
    report.note(format!(
        "{} set-ups, {} cycles, host steps {:.3} ms per cycle, install p50 {:.3} ms, \
         installer late p50 {late:.3} ms, max {:.3} ms",
        setup_s.len(),
        cycles.host_s.len(),
        host_s.floor * 1e3,
        install_ms.p50,
        installed.late_ms.iter().copied().fold(0.0, f64::max)
    ));

    if args.trace {
        let mut tracer = Tracer::new(1);
        report.set("bench.span_cost_ns", tracer.span_cost_ns());
        let mut layers = LayerSamples::default();
        let mut backlog_max = 0;
        let start = Instant::now();
        let (_, traced, _, mut fleet) = churn_replays(
            args.seed,
            args.traced_seconds().mul_f64(TRACED_CYCLES_SHARE),
            1,
            &mut tracer,
            |tracer, fleet| {
                layers.push(&tracer.end_op());
                backlog_max = backlog_max.max(fleet.router.retired_backlog());
            },
            &mut tally,
        )?;
        layers.report(&mut report);
        let per_step = stats::floor_of(&layers.host_step).floor;
        report.set("sm-apps.host_step_us", per_step / 1e3);
        report.set("sm-routing.retired_backlog_max", backlog_max as f64);
        report.set(
            "bench.trace_overhead_ratio",
            stats::windowed(&traced.round_s, 1)?.floor / round.floor,
        );
        let build_ms: Vec<f64> = (0..BUILD_REPLAYS)
            .map(|_| {
                let t = Instant::now();
                let resolved = ResolvedMap::build(Some(&fleet.spec), &fleet.map);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                std::hint::black_box(resolved);
                ms
            })
            .collect();
        report.set(
            "sm-routing.resolved_build_ms",
            stats::floor_of(&build_ms).floor,
        );

        // Bulk versions for the rest of the traced time. Their
        // requests count as attempted, but stay out of the ratios of
        // the 20 ms schedule.
        let before = (fleet.attempted, fleet.failed);
        let mut bulk = Vec::new();
        while bulk.is_empty() || start.elapsed() < args.traced_seconds() {
            bulk.push(bulk_version(&mut fleet, &mut tracer, args.seed));
        }
        bulk_requests = (fleet.attempted - before.0, fleet.failed - before.1);
        let forwarded: u64 = bulk.iter().map(|b| b.forwarded).sum();
        let requests: u64 = bulk.iter().map(|b| b.requests).sum();
        let ratio = forwarded as f64 / requests as f64;
        report.set("sm-apps.bulk_forwarded_ratio", ratio);
        if ratio < 0.005 {
            report.problem(format!(
                "a bulk version forwarded only {ratio} of the requests"
            ));
        }
        let forwarded_ns: Vec<f64> = bulk.iter().map(|b| b.forwarded_req_ns).collect();
        report.set(
            "sm-apps.forwarded_req_ns",
            stats::floor_of(&forwarded_ns).floor,
        );
        report.note(format!(
            "{} bulk versions of {BULK_MOVES} shards forwarded {forwarded} of {requests} requests",
            bulk.len()
        ));
        report.tracer = Some(tracer);
    }

    // Non-vacuity: the churn reached the request path.
    if tally.forwarded == 0 || tally.refreshes == 0 {
        report.problem(format!(
            "churn forwarded {} requests and refreshed {} routes",
            tally.forwarded, tally.refreshes
        ));
    }
    tally.report(&mut report);
    report.attempted += bulk_requests.0;
    report.failed += bulk_requests.1;
    Ok(report)
}
