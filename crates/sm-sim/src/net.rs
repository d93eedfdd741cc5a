//! The simulated network: a region-pair latency model plus a
//! message-level [`SimNet`] with seeded fault injection.
//!
//! §8.3 runs the geo-failover experiment across FRC (east-coast US),
//! PRN (west-coast US), and ODN (Odense, Denmark). The latency figures
//! there show intra-region accesses at a few milliseconds and
//! cross-region accesses several tens of milliseconds higher.
//! [`LatencyModel`] captures exactly that: a symmetric one-way latency
//! matrix plus a multiplicative jitter.
//!
//! [`SimNet`] layers delivery semantics on top for deterministic
//! simulation testing: messages travel between named
//! [`Endpoint`]s, each transmission sampling its delay from the latency
//! model, and the net can be degraded mid-run — symmetric or asymmetric
//! partitions of a server island, probabilistic message drop and
//! duplication, and (via independent per-message jitter) reordering.
//! All randomness comes from one dedicated [`SimRng`] stream derived
//! from the run seed, so a run is a pure function of `(seed, fault
//! plan)` and replays byte-identically.

use crate::rng::SimRng;
use crate::time::SimDuration;
use sm_types::RegionId;

/// Symmetric one-way latency between regions, with jitter.
#[derive(Clone, Debug)]
pub struct LatencyModel {
    /// `matrix[a][b]` = base one-way latency in ms between regions a, b.
    matrix: Vec<Vec<f64>>,
    /// Jitter fraction: samples are uniform in `[base, base * (1 + jitter)]`.
    jitter: f64,
}

impl LatencyModel {
    /// Builds a model from a base matrix (milliseconds).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or not symmetric.
    pub fn new(matrix: Vec<Vec<f64>>, jitter: f64) -> Self {
        let n = matrix.len();
        for row in &matrix {
            assert_eq!(row.len(), n, "latency matrix must be square");
        }
        for (i, row) in matrix.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                assert!(
                    (v - matrix[j][i]).abs() < 1e-9,
                    "latency matrix must be symmetric"
                );
            }
        }
        Self { matrix, jitter }
    }

    /// A uniform model: `intra` ms within a region, `inter` ms across
    /// any pair of distinct regions.
    pub fn uniform(regions: usize, intra_ms: f64, inter_ms: f64) -> Self {
        let matrix = (0..regions)
            .map(|i| {
                (0..regions)
                    .map(|j| if i == j { intra_ms } else { inter_ms })
                    .collect()
            })
            .collect();
        Self::new(matrix, 0.1)
    }

    /// The three-region geometry of §8.3.
    ///
    /// Region 0 = FRC (Forest City, NC), region 1 = PRN (Prineville, OR),
    /// region 2 = ODN (Odense, Denmark). One-way base latencies: 1 ms
    /// intra-region, 35 ms FRC–PRN, 45 ms FRC–ODN, 75 ms PRN–ODN.
    pub fn frc_prn_odn() -> Self {
        Self::new(
            vec![
                vec![1.0, 35.0, 45.0],
                vec![35.0, 1.0, 75.0],
                vec![45.0, 75.0, 1.0],
            ],
            0.1,
        )
    }

    /// Base one-way latency between two regions, without jitter.
    ///
    /// Regions outside the matrix are treated as maximally distant
    /// (the matrix's largest entry), which keeps experiments that add
    /// regions late fail-safe rather than fail-fast.
    pub fn base_ms(&self, a: RegionId, b: RegionId) -> f64 {
        let (i, j) = (a.raw() as usize, b.raw() as usize);
        if i < self.matrix.len() && j < self.matrix.len() {
            // sm-lint: allow(P1) — bounds checked above; matrix is square
            self.matrix[i][j]
        } else {
            self.matrix.iter().flatten().copied().fold(1.0, f64::max)
        }
    }

    /// Samples a one-way latency between two regions.
    pub fn sample(&self, a: RegionId, b: RegionId, rng: &mut SimRng) -> SimDuration {
        let base = self.base_ms(a, b);
        let ms = base * (1.0 + self.jitter * rng.f64());
        SimDuration::from_millis_f64(ms)
    }
}

/// A named participant in the simulated network.
///
/// The set is deliberately small: it names exactly the parties the
/// worlds in this workspace wire together. ZooKeeper and the control
/// plane are single logical endpoints (the registry and its mini-SMs
/// are colocated processes); application servers and clients are
/// indexed fleets.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Endpoint {
    /// The ZooKeeper ensemble.
    Zk,
    /// The control plane (partition registry + mini-SM fleet).
    ControlPlane,
    /// The i-th application server.
    Server(u32),
    /// The i-th client / request generator.
    Client(u32),
}

/// An active network partition: a contiguous island of servers
/// `[lo, lo+len)` cut off from everything else (ZK, the control plane,
/// clients, and servers outside the island).
///
/// A *symmetric* partition blocks both directions. An *asymmetric*
/// one (`asym = true`) blocks only traffic **leaving** the island:
/// requests still reach an islanded server, but nothing it sends —
/// heartbeats, acks, responses — gets out. That is the nastiest shape
/// for fencing: the server looks alive to clients while ZooKeeper
/// times its session out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PartitionSpec {
    /// First server index in the island.
    pub lo: u32,
    /// Island width (number of servers).
    pub len: u32,
    /// True to block only island→outside traffic.
    pub asym: bool,
}

impl PartitionSpec {
    /// True when `ep` is inside the island.
    pub fn contains(&self, ep: Endpoint) -> bool {
        matches!(ep, Endpoint::Server(i) if i >= self.lo && i < self.lo + self.len)
    }

    /// True when a message `src → dst` is blocked by this partition.
    pub fn blocks(&self, src: Endpoint, dst: Endpoint) -> bool {
        let (s, d) = (self.contains(src), self.contains(dst));
        if self.asym {
            s && !d
        } else {
            s != d
        }
    }
}

/// Delivery counters; part of a run's report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages delivered (one per transmission that got through).
    pub delivered: u64,
    /// Messages lost to probabilistic drop.
    pub dropped: u64,
    /// Extra copies injected by probabilistic duplication.
    pub duplicated: u64,
    /// Messages blocked by an active partition.
    pub blocked: u64,
}

/// The delivered copies of one transmission, stored inline.
///
/// A transmission yields at most two copies (the original plus one
/// duplicate), so the delays live in a fixed two-slot array instead of
/// a heap `Vec` — the simulator's hottest allocation site, gone.
/// Dereferences to a slice, so indexing, `len`, `iter`, and `is_empty`
/// all work as they did on the `Vec`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CopySet {
    buf: [SimDuration; 2],
    len: u8,
}

impl CopySet {
    /// Appends a copy's delay.
    ///
    /// # Panics
    ///
    /// Panics if two copies are already present.
    pub(crate) fn push(&mut self, d: SimDuration) {
        assert!(
            (self.len as usize) < 2,
            "a transmission has at most 2 copies"
        );
        self.buf[self.len as usize] = d;
        self.len += 1;
    }
}

impl std::ops::Deref for CopySet {
    type Target = [SimDuration];
    fn deref(&self) -> &[SimDuration] {
        &self.buf[..self.len as usize]
    }
}

impl PartialEq for CopySet {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}
impl Eq for CopySet {}

impl IntoIterator for CopySet {
    type Item = SimDuration;
    type IntoIter = std::iter::Take<std::array::IntoIter<SimDuration, 2>>;
    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(self.len as usize)
    }
}

/// The outcome of one transmission: zero, one, or two delivery delays.
///
/// Empty means the message was lost (dropped or blocked); two entries
/// mean it was duplicated, each copy with its own sampled delay.
/// Because every copy samples delay independently, jitter alone
/// reorders messages between the same pair of endpoints.
#[derive(Clone, Copy, Debug, Default)]
pub struct Transmission {
    /// One sampled delay per delivered copy.
    pub copies: CopySet,
    /// True when an active partition blocked the message.
    pub blocked: bool,
}

/// Dedicated RNG stream for network randomness, independent of the
/// world's own draws — adding or removing a transmission never shifts
/// traffic or fault-plan randomness.
const NET_STREAM: u64 = 0x7E7;

/// Every endpoint sits in one region: the worlds on `SimNet` study
/// faults, not geography (the geo figures sample [`LatencyModel`]
/// themselves).
const REGION: RegionId = RegionId(0);

/// Message-level simulated network.
///
/// Construct it from the run seed (`SimNet` derives its own RNG stream
/// via [`SimRng::seed_from`]) and route every inter-process message
/// through [`SimNet::transmit`]. Fault injection —
/// [`SimNet::start_partition`], [`SimNet::set_degradation`] — is driven
/// by the `sm_sim::faults` plan DSL, never ad hoc, so the whole failure
/// schedule stays a pure function of the plan config.
#[derive(Clone, Debug)]
pub struct SimNet {
    latency: LatencyModel,
    rng: SimRng,
    partition: Option<PartitionSpec>,
    drop_p: f64,
    dup_p: f64,
    stats: NetStats,
}

impl SimNet {
    /// Builds a healthy net over `latency`, seeded from the run seed.
    pub fn new(latency: LatencyModel, seed: u64) -> Self {
        Self {
            latency,
            rng: SimRng::seed_from(seed, NET_STREAM),
            partition: None,
            drop_p: 0.0,
            dup_p: 0.0,
            stats: NetStats::default(),
        }
    }

    /// Starts (or replaces) a partition.
    pub fn start_partition(&mut self, spec: PartitionSpec) {
        self.partition = Some(spec);
    }

    /// Heals any active partition.
    pub fn heal_partition(&mut self) {
        self.partition = None;
    }

    /// The active partition, if any.
    pub fn partition(&self) -> Option<PartitionSpec> {
        self.partition
    }

    /// Sets probabilistic degradation: each transmission is dropped
    /// with probability `drop_p` and duplicated with `dup_p`.
    pub fn set_degradation(&mut self, drop_p: f64, dup_p: f64) {
        self.drop_p = drop_p.clamp(0.0, 1.0);
        self.dup_p = dup_p.clamp(0.0, 1.0);
    }

    /// Clears probabilistic degradation.
    pub fn heal_degradation(&mut self) {
        self.drop_p = 0.0;
        self.dup_p = 0.0;
    }

    /// Delivery counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Transmits one message `src → dst`, returning the delays of the
    /// delivered copies (possibly none). The RNG draw sequence is fixed
    /// per outcome class, so the same seed always yields the same
    /// schedule.
    pub fn transmit(&mut self, src: Endpoint, dst: Endpoint) -> Transmission {
        if let Some(p) = &self.partition {
            if p.blocks(src, dst) {
                self.stats.blocked += 1;
                return Transmission {
                    copies: CopySet::default(),
                    blocked: true,
                };
            }
        }
        if self.drop_p > 0.0 && self.rng.chance(self.drop_p) {
            self.stats.dropped += 1;
            return Transmission::default();
        }
        let mut copies = CopySet::default();
        copies.push(self.latency.sample(REGION, REGION, &mut self.rng));
        if self.dup_p > 0.0 && self.rng.chance(self.dup_p) {
            copies.push(self.latency.sample(REGION, REGION, &mut self.rng));
            self.stats.duplicated += 1;
        }
        self.stats.delivered += 1;
        Transmission {
            copies,
            blocked: false,
        }
    }

    /// Delay on the *ordered, reliable* channel between ZooKeeper and
    /// the control plane: the base latency with no jitter, no drop, and
    /// no duplication.
    ///
    /// This models a session-oriented transport (the ZK client's TCP
    /// connection): notifications are never lost or reordered while the
    /// session lives — sessions *die* instead, which the heartbeat
    /// machinery models separately. Partitions do not block this
    /// channel because in this workspace the control plane is colocated
    /// with ZK and neither is ever islanded.
    pub fn ordered_delay(&self) -> SimDuration {
        SimDuration::from_millis_f64(self.latency.base_ms(REGION, REGION))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_matches_paper_geometry() {
        let m = LatencyModel::frc_prn_odn();
        let frc = RegionId(0);
        let prn = RegionId(1);
        let odn = RegionId(2);
        assert_eq!(m.base_ms(frc, frc), 1.0);
        assert_eq!(m.base_ms(frc, prn), 35.0);
        assert_eq!(m.base_ms(frc, odn), 45.0);
        assert_eq!(m.base_ms(prn, odn), 75.0);
        assert_eq!(m.base_ms(prn, frc), m.base_ms(frc, prn));
    }

    #[test]
    fn samples_stay_within_jitter_band() {
        let m = LatencyModel::frc_prn_odn();
        let mut rng = SimRng::seeded(9);
        for _ in 0..1000 {
            let d = m.sample(RegionId(0), RegionId(1), &mut rng).as_millis_f64();
            assert!((35.0..=38.6).contains(&d), "latency {d} outside band");
        }
    }

    #[test]
    fn unknown_region_is_maximally_distant() {
        let m = LatencyModel::frc_prn_odn();
        assert_eq!(m.base_ms(RegionId(0), RegionId(9)), 75.0);
    }

    #[test]
    fn uniform_model() {
        let m = LatencyModel::uniform(4, 0.5, 40.0);
        assert_eq!(m.base_ms(RegionId(2), RegionId(2)), 0.5);
        assert_eq!(m.base_ms(RegionId(0), RegionId(3)), 40.0);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_matrix_rejected() {
        LatencyModel::new(vec![vec![1.0, 2.0], vec![3.0, 1.0]], 0.1);
    }

    fn net(seed: u64) -> SimNet {
        SimNet::new(LatencyModel::uniform(1, 10.0, 10.0), seed)
    }

    #[test]
    fn healthy_net_delivers_exactly_once_with_jitter() {
        let seed = 11;
        let mut n = net(seed);
        for _ in 0..500 {
            let t = n.transmit(Endpoint::Client(0), Endpoint::Server(3));
            assert_eq!(t.copies.len(), 1);
            let ms = t.copies[0].as_millis_f64();
            assert!((10.0..=11.0).contains(&ms), "delay {ms} outside band");
        }
        let s = n.stats();
        assert_eq!(s.delivered, 500);
        assert_eq!(s.dropped + s.duplicated + s.blocked, 0);
    }

    #[test]
    fn transmissions_are_deterministic_per_seed() {
        let seed = 42;
        let (mut a, mut b) = (net(seed), net(seed));
        a.set_degradation(0.2, 0.2);
        b.set_degradation(0.2, 0.2);
        for i in 0..300 {
            let src = Endpoint::Server(i % 7);
            let ta = a.transmit(src, Endpoint::Zk);
            let tb = b.transmit(src, Endpoint::Zk);
            assert_eq!(ta.copies, tb.copies);
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn symmetric_partition_blocks_both_directions() {
        let seed = 3;
        let mut n = net(seed);
        n.start_partition(PartitionSpec {
            lo: 2,
            len: 3,
            asym: false,
        });
        // Island server 3 ↔ everything outside: both ways blocked.
        assert!(n.transmit(Endpoint::Server(3), Endpoint::Zk).blocked);
        assert!(n.transmit(Endpoint::Zk, Endpoint::Server(3)).blocked);
        assert!(n.transmit(Endpoint::Client(0), Endpoint::Server(4)).blocked);
        // Within the island and wholly outside it: unblocked.
        assert_eq!(
            n.transmit(Endpoint::Server(2), Endpoint::Server(4))
                .copies
                .len(),
            1
        );
        assert_eq!(
            n.transmit(Endpoint::Client(1), Endpoint::Server(0))
                .copies
                .len(),
            1
        );
        n.heal_partition();
        assert!(!n.transmit(Endpoint::Server(3), Endpoint::Zk).blocked);
    }

    #[test]
    fn asymmetric_partition_blocks_only_outbound() {
        let seed = 5;
        let mut n = net(seed);
        n.start_partition(PartitionSpec {
            lo: 0,
            len: 2,
            asym: true,
        });
        // Inbound still flows: the islanded server keeps hearing
        // requests...
        assert_eq!(
            n.transmit(Endpoint::Client(0), Endpoint::Server(1))
                .copies
                .len(),
            1
        );
        // ...but nothing it says gets out (heartbeats, acks).
        assert!(n.transmit(Endpoint::Server(1), Endpoint::Zk).blocked);
        assert!(n.transmit(Endpoint::Server(0), Endpoint::Client(0)).blocked);
    }

    #[test]
    fn degradation_drops_and_duplicates_at_roughly_the_set_rates() {
        let seed = 7;
        let mut n = net(seed);
        n.set_degradation(0.3, 0.2);
        for _ in 0..2000 {
            n.transmit(Endpoint::Client(0), Endpoint::Server(0));
        }
        let s = n.stats();
        let drop_rate = s.dropped as f64 / 2000.0;
        assert!((0.25..=0.35).contains(&drop_rate), "drop rate {drop_rate}");
        let dup_rate = s.duplicated as f64 / s.delivered as f64;
        assert!((0.15..=0.25).contains(&dup_rate), "dup rate {dup_rate}");
        n.heal_degradation();
        let before = n.stats().delivered;
        for _ in 0..100 {
            assert_eq!(
                n.transmit(Endpoint::Client(0), Endpoint::Server(0))
                    .copies
                    .len(),
                1
            );
        }
        assert_eq!(n.stats().delivered, before + 100);
    }

    #[test]
    fn ordered_channel_is_jitter_free_and_unblocked() {
        let seed = 13;
        let mut n = net(seed);
        n.start_partition(PartitionSpec {
            lo: 0,
            len: 9,
            asym: false,
        });
        let d = n.ordered_delay();
        assert_eq!(d.as_millis_f64(), 10.0);
        assert_eq!(d, n.ordered_delay());
    }
}
