//! Seeded fault schedules for chaos experiments.
//!
//! A chaos run injects failures — server crashes, ZK session expiries,
//! mini-SM crashes and restarts — at randomized times. For the run to
//! be reproducible byte-for-byte, the schedule must be a pure function
//! of its seed and configuration, generated up front rather than rolled
//! during the run. [`fault_plan`] produces exactly that: a time-sorted
//! list of [`Fault`]s with deterministic tie-breaking.
//!
//! Faults name targets by *index* (the i-th server, the i-th mini-SM);
//! the embedding world maps indices to concrete ids. Every entity that
//! goes down is brought back by a paired recovery fault, so a plan
//! always converges to a fully-healthy fleet. The same pairing rule
//! applies to network faults: every [`Fault::PartitionStart`] has a
//! later [`Fault::PartitionHeal`], every [`Fault::NetDegrade`] a later
//! [`Fault::NetHeal`], and partition/degradation windows never overlap
//! their own kind (the plan slots them), because the simulated net
//! models one partition at a time.
//!
//! [`FaultProfile`] names the plan shapes the swarm runner explores —
//! crash-only, symmetric/asymmetric partitions, lossy network, and a
//! mixed profile — each a deterministic function of `(profile, seed)`.

use crate::net::PartitionSpec;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// One injected failure or recovery, aimed at an entity index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Crash the i-th application server's container (process dies;
    /// its ZK session expires with it).
    ServerCrash(u32),
    /// Restart the i-th server's container after a crash.
    ServerRestart(u32),
    /// Expire the i-th server's ZK session while the process stays up —
    /// the server must self-fence (§3.2) and re-register later.
    SessionExpiry(u32),
    /// The i-th server re-registers after a bare session expiry.
    SessionRestore(u32),
    /// Crash the i-th mini-SM (process and session die together).
    MiniSmCrash(u32),
    /// Restart the i-th mini-SM as an empty process.
    MiniSmRestart(u32),
    /// Partition the server island `[lo, lo+len)` off from the rest of
    /// the world (see [`PartitionSpec`] for the asymmetric semantics).
    PartitionStart(PartitionSpec),
    /// Heal the active partition.
    PartitionHeal,
    /// Degrade the network: drop / duplicate each message with the
    /// given percent probabilities.
    NetDegrade {
        /// Drop probability, in percent.
        drop_pct: u8,
        /// Duplication probability, in percent.
        dup_pct: u8,
    },
    /// End the degradation window.
    NetHeal,
}

impl Fault {
    /// A stable short label for traces.
    pub fn label(self) -> &'static str {
        match self {
            Fault::ServerCrash(_) => "server_crash",
            Fault::ServerRestart(_) => "server_restart",
            Fault::SessionExpiry(_) => "session_expiry",
            Fault::SessionRestore(_) => "session_restore",
            Fault::MiniSmCrash(_) => "minism_crash",
            Fault::MiniSmRestart(_) => "minism_restart",
            Fault::PartitionStart(_) => "partition_start",
            Fault::PartitionHeal => "partition_heal",
            Fault::NetDegrade { .. } => "net_degrade",
            Fault::NetHeal => "net_heal",
        }
    }

    /// True for the "something breaks" half of a fault pair (the other
    /// half being its recovery).
    pub fn is_hit(self) -> bool {
        matches!(
            self,
            Fault::ServerCrash(_)
                | Fault::SessionExpiry(_)
                | Fault::MiniSmCrash(_)
                | Fault::PartitionStart(_)
                | Fault::NetDegrade { .. }
        )
    }
}

/// Shape of a chaos schedule, built by [`FaultPlanConfig::covering`] or
/// [`FaultProfile::config`].
#[derive(Clone, Copy, Debug)]
pub struct FaultPlanConfig {
    /// RNG seed; the plan is a pure function of this config.
    seed: u64,
    /// Number of application servers (indices `0..n_servers`).
    n_servers: u32,
    /// Number of mini-SMs (indices `0..n_minisms`).
    n_minisms: u32,
    /// Faults start no earlier than this (let the world bootstrap).
    start: SimTime,
    /// Faults are injected within `[start, start + window)`; recoveries
    /// may land up to one `downtime` past the window.
    window: SimDuration,
    /// How long a crashed/expired entity stays down before recovery.
    downtime: SimDuration,
    /// Server crashes to inject.
    server_crashes: u32,
    /// Bare session expiries to inject (process survives). At least
    /// 10% of servers is the chaos harness's acceptance floor.
    session_expiries: u32,
    /// Symmetric partitions to inject (each paired with a heal).
    partitions: u32,
    /// Asymmetric (outbound-blocked) partitions to inject.
    asym_partitions: u32,
    /// How long each partition stays up before its heal. Must exceed
    /// the embedding world's ZK session timeout for the partition to
    /// exercise the full expiry → failover → re-register cycle.
    partition_downtime: SimDuration,
    /// Degradation windows to inject (each paired with a heal).
    degrade_windows: u32,
    /// Message drop probability during a degradation window (percent).
    drop_pct: u8,
    /// Message duplication probability during a window (percent).
    dup_pct: u8,
}

impl FaultPlanConfig {
    /// A plan sized for `n_servers`/`n_minisms` meeting the chaos
    /// harness's coverage floors: every mini-SM crashes at least once
    /// and at least 10% (min 1) of server sessions expire. Injects no
    /// network faults (the PR 3 crash/expiry-only shape).
    pub fn covering(seed: u64, n_servers: u32, n_minisms: u32) -> Self {
        Self {
            seed,
            n_servers,
            n_minisms,
            start: SimTime::from_secs(30),
            window: SimDuration::from_secs(300),
            downtime: SimDuration::from_secs(25),
            server_crashes: (n_servers / 4).max(1),
            session_expiries: n_servers.div_ceil(10).max(1),
            partitions: 0,
            asym_partitions: 0,
            partition_downtime: SimDuration::from_secs(18),
            degrade_windows: 0,
            drop_pct: 0,
            dup_pct: 0,
        }
    }
}

/// A named fault-plan shape the swarm runner explores. Each profile is
/// a deterministic function of `(profile, seed, fleet size)`; together
/// they cover the failure modes the paper's safety arguments must
/// survive.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum FaultProfile {
    /// Crashes and session expiries only (the PR 3 baseline).
    CrashOnly,
    /// Symmetric partitions: an island of servers fully cut off.
    SymPartition,
    /// Asymmetric partitions: islanded servers still *hear* traffic
    /// but nothing they send gets out — the worst case for fencing.
    AsymPartition,
    /// Probabilistic message drop and duplication windows.
    LossyNet,
    /// Everything at once.
    Mixed,
    /// Reconfiguration chaos: dense crashes, session expiries, and one
    /// symmetric plus one asymmetric partition with short downtimes —
    /// tuned so faults land while the embedding world is continuously
    /// driving replica-set reconfigurations, hitting joint membership
    /// changes mid-flight.
    ReconfigChaos,
    /// Split chaos: the skew-storm world's shape — dense crashes,
    /// expiries, and short partitions timed so they land while the
    /// orchestrator is mid-split or mid-merge, hitting the resharding
    /// protocol's prepare/forward/cutover windows.
    SplitChaos,
}

impl FaultProfile {
    /// All profiles, in grid order.
    pub const ALL: [FaultProfile; 7] = [
        FaultProfile::CrashOnly,
        FaultProfile::SymPartition,
        FaultProfile::AsymPartition,
        FaultProfile::LossyNet,
        FaultProfile::Mixed,
        FaultProfile::ReconfigChaos,
        FaultProfile::SplitChaos,
    ];

    /// Stable name used in reports and reproducer files.
    pub fn name(self) -> &'static str {
        match self {
            FaultProfile::CrashOnly => "crash_only",
            FaultProfile::SymPartition => "sym_partition",
            FaultProfile::AsymPartition => "asym_partition",
            FaultProfile::LossyNet => "lossy_net",
            FaultProfile::Mixed => "mixed",
            FaultProfile::ReconfigChaos => "reconfig_chaos",
            FaultProfile::SplitChaos => "split_chaos",
        }
    }

    /// Parses a profile name back (reproducer files, CLI).
    pub fn parse(s: &str) -> Option<FaultProfile> {
        FaultProfile::ALL.into_iter().find(|p| p.name() == s.trim())
    }

    /// The compact plan shape the DST harness runs: faults inside a
    /// one-minute window so a run (plus convergence slack) stays cheap
    /// enough for a many-seed swarm.
    pub fn config(self, seed: u64, n_servers: u32, n_minisms: u32) -> FaultPlanConfig {
        let mut cfg = FaultPlanConfig {
            seed,
            n_servers,
            n_minisms,
            start: SimTime::from_secs(20),
            window: SimDuration::from_secs(60),
            downtime: SimDuration::from_secs(15),
            server_crashes: (n_servers / 5).max(1),
            session_expiries: 1,
            partitions: 0,
            asym_partitions: 0,
            partition_downtime: SimDuration::from_secs(18),
            degrade_windows: 0,
            drop_pct: 0,
            dup_pct: 0,
        };
        match self {
            FaultProfile::CrashOnly => {}
            FaultProfile::SymPartition => cfg.partitions = 2,
            FaultProfile::AsymPartition => cfg.asym_partitions = 2,
            FaultProfile::LossyNet => {
                cfg.degrade_windows = 2;
                cfg.drop_pct = 5;
                cfg.dup_pct = 3;
            }
            FaultProfile::Mixed => {
                cfg.partitions = 1;
                cfg.asym_partitions = 1;
                cfg.degrade_windows = 1;
                cfg.drop_pct = 3;
                cfg.dup_pct = 2;
            }
            FaultProfile::ReconfigChaos => {
                // Dense, short-downtime faults so several land inside
                // in-flight membership changes: the embedding world
                // churns reconfigurations continuously through the
                // whole fault window.
                cfg.server_crashes = (n_servers / 3).max(2);
                cfg.session_expiries = 2.min(n_servers);
                cfg.downtime = SimDuration::from_secs(10);
                cfg.partitions = 1;
                cfg.asym_partitions = 1;
                cfg.partition_downtime = SimDuration::from_secs(12);
            }
            FaultProfile::SplitChaos => {
                // Dense, short-downtime faults so several land inside
                // in-flight splits and merges: the skew-storm world
                // keeps the adaptive scaler resharding through the
                // whole fault window. The lossy window additionally
                // eats individual protocol RPCs (a lost cutover ack is
                // the exact hazard the all-or-nothing commit defends
                // against).
                cfg.server_crashes = (n_servers / 3).max(2);
                cfg.session_expiries = 2.min(n_servers);
                cfg.downtime = SimDuration::from_secs(10);
                cfg.partitions = 1;
                cfg.asym_partitions = 1;
                cfg.partition_downtime = SimDuration::from_secs(12);
                cfg.degrade_windows = 2;
                cfg.drop_pct = 12;
                cfg.dup_pct = 3;
            }
        }
        cfg
    }
}

/// Generates the time-sorted fault schedule for `cfg`.
///
/// Guarantees, all deterministic in `cfg`:
/// - every mini-SM index in `0..n_minisms` appears in at least one
///   [`Fault::MiniSmCrash`];
/// - exactly `cfg.session_expiries` distinct servers get a bare
///   [`Fault::SessionExpiry`];
/// - every crash/expiry has a matching recovery `downtime` later;
/// - events are sorted by time with a stable generation-order
///   tie-break, so equal timestamps replay identically.
pub fn fault_plan(cfg: &FaultPlanConfig) -> Vec<(SimTime, Fault)> {
    let mut rng = SimRng::seed_from(cfg.seed, 0xFA171);
    let window_ms = cfg.window.as_millis_f64().max(1.0);
    let mut plan: Vec<(SimTime, Fault)> = Vec::new();
    let inject = |rng: &mut SimRng, plan: &mut Vec<(SimTime, Fault)>, hit: Fault, heal: Fault| {
        let at = cfg.start + SimDuration::from_millis_f64(rng.f64() * window_ms);
        plan.push((at, hit));
        plan.push((at + cfg.downtime, heal));
    };

    // Every mini-SM crashes once, in random order.
    let mut minisms: Vec<u32> = (0..cfg.n_minisms).collect();
    rng.shuffle(&mut minisms);
    for m in minisms {
        inject(
            &mut rng,
            &mut plan,
            Fault::MiniSmCrash(m),
            Fault::MiniSmRestart(m),
        );
    }
    // Server crashes on random servers (repeats allowed; the world
    // treats a crash of an already-down server as a no-op).
    for _ in 0..cfg.server_crashes {
        let s = rng.index(cfg.n_servers.max(1) as usize) as u32;
        inject(
            &mut rng,
            &mut plan,
            Fault::ServerCrash(s),
            Fault::ServerRestart(s),
        );
    }
    // Bare session expiries on *distinct* servers, so the ≥10% floor
    // counts unique sessions.
    let expiring = rng.sample_indices(cfg.n_servers as usize, cfg.session_expiries as usize);
    for s in expiring {
        inject(
            &mut rng,
            &mut plan,
            Fault::SessionExpiry(s as u32),
            Fault::SessionRestore(s as u32),
        );
    }

    // Partitions: the simulated net models one partition at a time, so
    // each gets its own time slot — windows of the same kind never
    // overlap, and every start has a heal inside its slot. Islands are
    // 1 to a quarter of the fleet (at least 1) wide.
    let total_partitions = cfg.partitions + cfg.asym_partitions;
    if total_partitions > 0 && cfg.n_servers > 0 {
        let slot_ms = window_ms / f64::from(total_partitions);
        let free_ms = (slot_ms - cfg.partition_downtime.as_millis_f64()).max(0.0);
        let widest = (cfg.n_servers / 4).max(1) as usize;
        for i in 0..total_partitions {
            let asym = i >= cfg.partitions;
            let len = 1 + rng.index(widest) as u32;
            let lo = rng.index((cfg.n_servers - len + 1) as usize) as u32;
            let at = cfg.start
                + SimDuration::from_millis_f64(f64::from(i) * slot_ms + rng.f64() * free_ms);
            plan.push((at, Fault::PartitionStart(PartitionSpec { lo, len, asym })));
            plan.push((at + cfg.partition_downtime, Fault::PartitionHeal));
        }
    }
    // Degradation windows, slotted the same way.
    if cfg.degrade_windows > 0 {
        let slot_ms = window_ms / f64::from(cfg.degrade_windows);
        let free_ms = (slot_ms - cfg.downtime.as_millis_f64()).max(0.0);
        for i in 0..cfg.degrade_windows {
            let at = cfg.start
                + SimDuration::from_millis_f64(f64::from(i) * slot_ms + rng.f64() * free_ms);
            plan.push((
                at,
                Fault::NetDegrade {
                    drop_pct: cfg.drop_pct,
                    dup_pct: cfg.dup_pct,
                },
            ));
            plan.push((at + cfg.downtime, Fault::NetHeal));
        }
    }

    // Stable sort: ties resolve by generation order, identically on
    // every run with the same config.
    plan.sort_by_key(|(at, _)| *at);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn cfg(seed: u64) -> FaultPlanConfig {
        FaultPlanConfig::covering(seed, 24, 3)
    }

    #[test]
    fn plan_is_deterministic_per_seed() {
        assert_eq!(fault_plan(&cfg(7)), fault_plan(&cfg(7)));
        assert_ne!(fault_plan(&cfg(7)), fault_plan(&cfg(8)));
    }

    #[test]
    fn every_minism_crashes_at_least_once() {
        let plan = fault_plan(&cfg(42));
        let crashed: BTreeSet<u32> = plan
            .iter()
            .filter_map(|(_, f)| match f {
                Fault::MiniSmCrash(m) => Some(*m),
                _ => None,
            })
            .collect();
        assert_eq!(crashed, (0..3).collect::<BTreeSet<u32>>());
    }

    #[test]
    fn expiries_hit_distinct_servers_meeting_the_floor() {
        let c = cfg(42);
        let plan = fault_plan(&c);
        let expired: BTreeSet<u32> = plan
            .iter()
            .filter_map(|(_, f)| match f {
                Fault::SessionExpiry(s) => Some(*s),
                _ => None,
            })
            .collect();
        let count = plan
            .iter()
            .filter(|(_, f)| matches!(f, Fault::SessionExpiry(_)))
            .count();
        assert_eq!(expired.len(), count, "expiries must be distinct");
        assert!(
            expired.len() * 10 >= c.n_servers as usize,
            "floor: ≥10% of {} servers, got {}",
            c.n_servers,
            expired.len()
        );
    }

    /// Asserts every hit fault in `plan` has a later matching recovery
    /// and returns the hits seen, for coverage checks.
    fn check_pairing(plan: &[(SimTime, Fault)]) -> Vec<Fault> {
        let mut down: Vec<Fault> = Vec::new();
        let mut hits: Vec<Fault> = Vec::new();
        for (_, f) in plan {
            match f {
                Fault::ServerCrash(_)
                | Fault::SessionExpiry(_)
                | Fault::MiniSmCrash(_)
                | Fault::PartitionStart(_)
                | Fault::NetDegrade { .. } => {
                    down.push(*f);
                    hits.push(*f);
                }
                Fault::ServerRestart(s) => {
                    let i = down
                        .iter()
                        .position(|d| *d == Fault::ServerCrash(*s))
                        .expect("restart pairs with a crash");
                    down.remove(i);
                }
                Fault::SessionRestore(s) => {
                    let i = down
                        .iter()
                        .position(|d| *d == Fault::SessionExpiry(*s))
                        .expect("restore pairs with an expiry");
                    down.remove(i);
                }
                Fault::MiniSmRestart(m) => {
                    let i = down
                        .iter()
                        .position(|d| *d == Fault::MiniSmCrash(*m))
                        .expect("restart pairs with a crash");
                    down.remove(i);
                }
                Fault::PartitionHeal => {
                    let i = down
                        .iter()
                        .position(|d| matches!(d, Fault::PartitionStart(_)))
                        .expect("heal pairs with a partition start");
                    down.remove(i);
                }
                Fault::NetHeal => {
                    let i = down
                        .iter()
                        .position(|d| matches!(d, Fault::NetDegrade { .. }))
                        .expect("heal pairs with a degrade");
                    down.remove(i);
                }
            }
        }
        assert!(down.is_empty(), "unrecovered faults: {down:?}");
        hits
    }

    #[test]
    fn every_fault_has_a_later_recovery() {
        check_pairing(&fault_plan(&cfg(3)));
    }

    #[test]
    fn profile_plans_pair_and_cover_their_fault_kinds() {
        for profile in FaultProfile::ALL {
            for seed in [1, 2, 3] {
                let c = profile.config(seed, 12, 3);
                let plan = fault_plan(&c);
                let hits = check_pairing(&plan);
                let parts: Vec<PartitionSpec> = hits
                    .iter()
                    .filter_map(|f| match f {
                        Fault::PartitionStart(p) => Some(*p),
                        _ => None,
                    })
                    .collect();
                let n_sym = parts.iter().filter(|p| !p.asym).count() as u32;
                let n_asym = parts.iter().filter(|p| p.asym).count() as u32;
                assert_eq!(n_sym, c.partitions, "{profile:?} seed {seed}");
                assert_eq!(n_asym, c.asym_partitions, "{profile:?} seed {seed}");
                for p in &parts {
                    assert!(p.len >= 1 && p.lo + p.len <= c.n_servers, "{p:?}");
                }
                let degrades = hits
                    .iter()
                    .filter(|f| matches!(f, Fault::NetDegrade { .. }))
                    .count() as u32;
                assert_eq!(degrades, c.degrade_windows, "{profile:?} seed {seed}");
            }
        }
    }

    #[test]
    fn same_kind_windows_never_overlap() {
        // The net models one partition (and one degradation level) at a
        // time, so the plan must serialize windows of the same kind.
        for seed in 0..20 {
            let c = FaultProfile::Mixed.config(seed, 12, 3);
            let plan = fault_plan(&c);
            let mut partition_open = false;
            let mut degrade_open = false;
            for (_, f) in &plan {
                match f {
                    Fault::PartitionStart(_) => {
                        assert!(!partition_open, "overlapping partitions, seed {seed}");
                        partition_open = true;
                    }
                    Fault::PartitionHeal => partition_open = false,
                    Fault::NetDegrade { .. } => {
                        assert!(!degrade_open, "overlapping degrades, seed {seed}");
                        degrade_open = true;
                    }
                    Fault::NetHeal => degrade_open = false,
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn profile_names_round_trip() {
        for p in FaultProfile::ALL {
            assert_eq!(FaultProfile::parse(p.name()), Some(p));
        }
        assert_eq!(FaultProfile::parse("no_such_profile"), None);
    }

    #[test]
    fn covering_plan_shape_is_unchanged_by_net_fault_support() {
        // PR 3's chaos gate replays covering plans; adding net faults
        // must not disturb the crash/expiry draw sequence.
        let plan = fault_plan(&cfg(7));
        assert!(plan.iter().all(|(_, f)| !matches!(
            f,
            Fault::PartitionStart(_) | Fault::PartitionHeal | Fault::NetDegrade { .. }
        )));
    }

    #[test]
    fn plan_is_time_sorted_within_bounds() {
        let c = cfg(9);
        let plan = fault_plan(&c);
        for w in plan.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        let end = c.start + c.window + c.downtime;
        for (at, _) in &plan {
            assert!(*at >= c.start && *at <= end);
        }
    }
}
