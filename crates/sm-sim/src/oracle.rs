//! The always-on invariant oracle for deterministic simulation testing.
//!
//! A chaos run that only asserts at the end can miss a violation that
//! heals itself — a dual primary that exists for two seconds and then
//! resolves, a stale read sandwiched between correct ones. The
//! [`Oracle`] instead accumulates violations *as the world reports its
//! observations*, event by event, and the verdict is the full list.
//!
//! The invariants are the paper's safety claims:
//!
//! - **At-most-one unfenced primary** per shard (§3.2 self-fencing):
//!   reported via [`Oracle::primaries_observed`], both on every served
//!   request (the moment it matters) and on periodic full sweeps.
//! - **No acknowledged-then-lost request** (§4.1 graceful migration):
//!   every issued request must be served or the run fails
//!   ([`Oracle::request_dropped`]); every read must observe the latest
//!   acknowledged write of its key ([`Oracle::read_served`]).
//! - **Registry/ZK agreement at quiescence**: the in-memory partition
//!   registry must equal the fenced `/sm/registry` snapshot once the
//!   run settles ([`Oracle::quiescent_registry`]).
//! - **Convergence bound after heal**: past a configured deadline
//!   (last planned recovery plus slack), every shard must be placed
//!   and the client-visible routing table must agree with the
//!   orchestrators' assignment ([`Oracle::convergence_check`]).
//!
//! The oracle is domain-light on purpose — it sees ids, counters, and
//! byte snapshots, not control-plane types — so it lives in `sm-sim`
//! beside the engine and every world can use it.

use crate::time::SimTime;

/// Which paper invariant a violation breaks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum InvariantKind {
    /// More than one unfenced server willing to serve a shard.
    DualPrimary,
    /// A request exhausted its retry budget (acknowledged-then-lost
    /// capacity: the system dropped traffic it accepted).
    LostRequest,
    /// A read observed a value older than the latest acknowledged
    /// write of its key.
    StaleRead,
    /// In-memory registry and durable ZK snapshot disagree at
    /// quiescence.
    RegistryDivergence,
    /// Shards still unplaced (or migrations stuck) past the
    /// convergence deadline.
    Unconverged,
    /// The client-visible routing table disagrees with the
    /// orchestrators' assignment past the convergence deadline.
    RouterDivergence,
    /// Replica-set reconfiguration safety broke: either the committed
    /// configuration history contains adjacent configurations whose
    /// quorums can be disjoint (two leaders could commit independently
    /// — the hazard joint consensus exists to prevent), or replicas'
    /// views of the committed configuration fail to converge at
    /// quiescence.
    ReplicaSetAgreement,
    /// The union of live shard key ranges fails to partition the
    /// keyspace: a gap (keys no shard owns) or an overlap (keys two
    /// shards own). Splits and merges must preserve this at every
    /// observable instant.
    KeyspaceCoverage,
}

impl InvariantKind {
    /// Stable short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            InvariantKind::DualPrimary => "dual_primary",
            InvariantKind::LostRequest => "lost_request",
            InvariantKind::StaleRead => "stale_read",
            InvariantKind::RegistryDivergence => "registry_divergence",
            InvariantKind::Unconverged => "unconverged",
            InvariantKind::RouterDivergence => "router_divergence",
            InvariantKind::ReplicaSetAgreement => "replica_set_agreement",
            InvariantKind::KeyspaceCoverage => "keyspace_coverage",
        }
    }
}

/// True when voter sets `a` and `b` admit a pair of disjoint quorums —
/// i.e. a majority of `a` and a majority of `b` that share no member,
/// so two leaders could commit independently. Adjacent configurations
/// in a safe reconfiguration history must never admit this; the joint
/// phase (`C_old,new`) exists precisely to bridge two such sets.
pub(crate) fn quorums_can_be_disjoint(
    a: &std::collections::BTreeSet<u64>,
    b: &std::collections::BTreeSet<u64>,
) -> bool {
    if a.is_empty() || b.is_empty() {
        return true;
    }
    let quorum_a = a.len() / 2 + 1;
    let quorum_b = b.len() / 2 + 1;
    let a_only = a.difference(b).count();
    let b_only = b.difference(a).count();
    let shared = a.intersection(b).count();
    // Build the quorums from private members first; they collide only
    // over what each still needs from the intersection.
    let need_a = quorum_a.saturating_sub(a_only);
    let need_b = quorum_b.saturating_sub(b_only);
    need_a + need_b <= shared
}

/// One observed invariant violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OracleViolation {
    /// Simulation time of the observation.
    pub at: SimTime,
    /// Which invariant broke.
    pub kind: InvariantKind,
    /// Deterministic human-readable detail (ids and counts only — no
    /// wall-clock, no addresses — so reports replay byte-identically).
    pub detail: String,
}

/// Caps the violation list so a catastrophically broken run stays
/// cheap to report; the count keeps the true total.
const MAX_RECORDED: usize = 64;

/// One live shard's key range as reported to
/// [`Oracle::keyspace_coverage`]: `(shard, start, end)`, keys as byte
/// strings in lexicographic order, `end == None` meaning unbounded.
pub(crate) type ShardRange = (u64, Vec<u8>, Option<Vec<u8>>);

/// Accumulates invariant observations over one simulated run.
#[derive(Clone, Debug, Default)]
pub struct Oracle {
    violations: Vec<OracleViolation>,
    /// Total violations observed, including those past the record cap.
    total: u64,
    /// Latest acknowledged write tag per key.
    acked: std::collections::BTreeMap<u64, u64>,
    /// Requests issued but not yet served, by id.
    outstanding: std::collections::BTreeSet<u64>,
    /// Requests served at least once, by id.
    served: std::collections::BTreeSet<u64>,
    /// Observations processed (cheap liveness counter for reports).
    observations: u64,
}

impl Oracle {
    /// A fresh oracle.
    pub fn new() -> Self {
        Self::default()
    }

    fn violate(&mut self, at: SimTime, kind: InvariantKind, detail: String) {
        self.total += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(OracleViolation { at, kind, detail });
        }
    }

    /// Violations recorded so far (capped at an internal maximum;
    /// [`Oracle::total_violations`] has the uncapped count).
    pub fn violations(&self) -> &[OracleViolation] {
        &self.violations
    }

    /// Total violations observed, uncapped.
    pub fn total_violations(&self) -> u64 {
        self.total
    }

    /// True when no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Observations processed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Reports the number of *unfenced* servers willing to serve
    /// `shard` right now. More than one is the §3.2 violation.
    pub fn primaries_observed(&mut self, at: SimTime, shard: u64, willing: usize) {
        self.observations += 1;
        if willing > 1 {
            self.violate(
                at,
                InvariantKind::DualPrimary,
                format!("shard {shard}: {willing} unfenced willing primaries"),
            );
        }
    }

    /// Records a client request entering the system.
    pub fn request_issued(&mut self, id: u64) {
        self.observations += 1;
        self.outstanding.insert(id);
    }

    /// Records a request served; returns true the first time (the
    /// world counts a request served once even if the net duplicated
    /// its delivery).
    pub fn request_served(&mut self, id: u64) -> bool {
        self.observations += 1;
        self.outstanding.remove(&id);
        self.served.insert(id)
    }

    /// True when `id` has already been served (a duplicate delivery's
    /// retry chain can be abandoned without counting a drop).
    pub fn already_served(&self, id: u64) -> bool {
        self.served.contains(&id)
    }

    /// Records a request dropped after exhausting its retries — always
    /// a violation.
    pub fn request_dropped(&mut self, at: SimTime, id: u64) {
        self.observations += 1;
        self.outstanding.remove(&id);
        self.violate(
            at,
            InvariantKind::LostRequest,
            format!("request {id} exhausted its retry budget"),
        );
    }

    /// Records a write acknowledged to the client: `tag` becomes the
    /// floor every later read of `key` must observe. Tags are the
    /// world's monotone write counter, so "newer" is a plain compare.
    pub fn write_acked(&mut self, key: u64, tag: u64) {
        self.observations += 1;
        let slot = self.acked.entry(key).or_insert(tag);
        if tag > *slot {
            *slot = tag;
        }
    }

    /// Checks a served read of `key` against the acknowledgement
    /// history: observing nothing, or a tag older than the latest
    /// acknowledged write, is a lost acknowledged write.
    pub fn read_served(&mut self, at: SimTime, key: u64, observed_tag: Option<u64>) {
        self.observations += 1;
        let Some(&latest) = self.acked.get(&key) else {
            return; // never acknowledged a write for this key
        };
        match observed_tag {
            Some(tag) if tag >= latest => {}
            Some(tag) => self.violate(
                at,
                InvariantKind::StaleRead,
                format!("key {key}: read tag {tag} < acked {latest}"),
            ),
            None => self.violate(
                at,
                InvariantKind::StaleRead,
                format!("key {key}: acked write {latest} missing entirely"),
            ),
        }
    }

    /// At quiescence, compares the in-memory registry snapshot with
    /// the durable one read back from ZK.
    pub fn quiescent_registry(&mut self, at: SimTime, in_memory: &[u8], durable: Option<&[u8]>) {
        self.observations += 1;
        match durable {
            Some(d) if d == in_memory => {}
            Some(d) => self.violate(
                at,
                InvariantKind::RegistryDivergence,
                format!(
                    "registry: memory {}B != durable {}B",
                    in_memory.len(),
                    d.len()
                ),
            ),
            None => self.violate(
                at,
                InvariantKind::RegistryDivergence,
                "registry znode missing at quiescence".to_string(),
            ),
        }
    }

    /// Past the convergence deadline, every shard must be placed, no
    /// migration stuck, and the client-visible router must agree with
    /// the assignment (`router_divergence` = number of disagreeing
    /// shards).
    pub fn convergence_check(
        &mut self,
        at: SimTime,
        unplaced: usize,
        in_flight: usize,
        router_divergence: usize,
    ) {
        self.observations += 1;
        if unplaced > 0 || in_flight > 0 {
            self.violate(
                at,
                InvariantKind::Unconverged,
                format!("{unplaced} unplaced shards, {in_flight} stuck migrations"),
            );
        }
        if router_divergence > 0 {
            self.violate(
                at,
                InvariantKind::RouterDivergence,
                format!("router disagrees with assignment on {router_divergence} shards"),
            );
        }
    }

    /// Audits one shard's committed configuration history. Each
    /// configuration is the list of voter sets a commit needs a quorum
    /// in (one set when stable, two during a joint change). Adjacent
    /// configurations must share at least one pair of voter sets whose
    /// quorums always intersect; otherwise the reconfiguration stepped
    /// between memberships that could elect two independent leaders —
    /// the single-step hazard.
    pub fn replica_config_chain(
        &mut self,
        at: SimTime,
        shard: u64,
        chain: &[Vec<std::collections::BTreeSet<u64>>],
    ) {
        self.observations += 1;
        for (i, pair) in chain.windows(2).enumerate() {
            let (prev, next) = (&pair[0], &pair[1]);
            let bridged = prev
                .iter()
                .any(|x| next.iter().any(|y| !quorums_can_be_disjoint(x, y)));
            if !bridged {
                self.violate(
                    at,
                    InvariantKind::ReplicaSetAgreement,
                    format!(
                        "shard {shard}: committed configs {i}->{} admit disjoint quorums",
                        i + 1
                    ),
                );
            }
        }
    }

    /// At quiescence, every replica of a shard must hold the same view
    /// of the committed configuration (`views` carries one entry per
    /// live replica). Divergence past convergence means the membership
    /// change never reached agreement.
    pub fn replica_views_converged(
        &mut self,
        at: SimTime,
        shard: u64,
        views: &[Vec<std::collections::BTreeSet<u64>>],
    ) {
        self.observations += 1;
        let distinct: std::collections::BTreeSet<&Vec<std::collections::BTreeSet<u64>>> =
            views.iter().collect();
        if distinct.len() > 1 {
            self.violate(
                at,
                InvariantKind::ReplicaSetAgreement,
                format!(
                    "shard {shard}: {} distinct committed-config views across {} replicas",
                    distinct.len(),
                    views.len()
                ),
            );
        }
    }

    /// Audits keyspace coverage: `ranges` carries each live shard as a
    /// [`ShardRange`] `(shard, start, end)` where keys are byte strings in
    /// lexicographic order and `end == None` means unbounded. The
    /// ranges must partition the keyspace — sorted by start, the first
    /// starting at the empty (minimum) key, each range's end equal to
    /// the next range's start, and exactly the last unbounded. A gap
    /// means requests with no owner; an overlap means two owners — both
    /// violations. An empty set of ranges is also a violation (the
    /// whole keyspace is a gap).
    pub fn keyspace_coverage(&mut self, at: SimTime, ranges: &[ShardRange]) {
        self.observations += 1;
        let mut sorted: Vec<&ShardRange> = ranges.iter().collect();
        sorted.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        let Some(first) = sorted.first() else {
            self.violate(
                at,
                InvariantKind::KeyspaceCoverage,
                "no live shard ranges: the whole keyspace is a gap".to_string(),
            );
            return;
        };
        if !first.1.is_empty() {
            self.violate(
                at,
                InvariantKind::KeyspaceCoverage,
                format!(
                    "gap before shard {}: keyspace starts at {:02x?}",
                    first.0, first.1
                ),
            );
        }
        for pair in sorted.windows(2) {
            let (prev, next) = (pair[0], pair[1]);
            match &prev.2 {
                None => self.violate(
                    at,
                    InvariantKind::KeyspaceCoverage,
                    format!(
                        "overlap: shard {} is unbounded but shard {} starts at {:02x?}",
                        prev.0, next.0, next.1
                    ),
                ),
                Some(end) if *end < next.1 => self.violate(
                    at,
                    InvariantKind::KeyspaceCoverage,
                    format!(
                        "gap between shard {} (ends {:02x?}) and shard {} (starts {:02x?})",
                        prev.0, end, next.0, next.1
                    ),
                ),
                Some(end) if *end > next.1 => self.violate(
                    at,
                    InvariantKind::KeyspaceCoverage,
                    format!(
                        "overlap between shard {} (ends {:02x?}) and shard {} (starts {:02x?})",
                        prev.0, end, next.0, next.1
                    ),
                ),
                Some(_) => {}
            }
        }
        if let Some(last) = sorted.last() {
            if let Some(end) = &last.2 {
                self.violate(
                    at,
                    InvariantKind::KeyspaceCoverage,
                    format!("gap at the top: shard {} ends at {:02x?}", last.0, end),
                );
            }
        }
    }

    /// At the end of a fully-drained run, any request still
    /// outstanding was silently lost — neither served nor explicitly
    /// dropped — which is its own `lost_request` violation.
    pub fn quiescent_drain_check(&mut self, at: SimTime) {
        self.observations += 1;
        let lost: Vec<u64> = self.outstanding.iter().copied().collect();
        for id in lost {
            self.outstanding.remove(&id);
            self.violate(
                at,
                InvariantKind::LostRequest,
                format!("request {id} vanished: never served, never dropped"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn clean_run_stays_clean() {
        let mut o = Oracle::new();
        o.primaries_observed(t(1), 3, 1);
        o.primaries_observed(t(2), 3, 0);
        o.request_issued(1);
        assert!(o.request_served(1));
        o.write_acked(9, 1);
        o.read_served(t(3), 9, Some(1));
        o.read_served(t(3), 100, None); // never written: fine
        o.quiescent_registry(t(4), b"snap", Some(b"snap"));
        o.convergence_check(t(5), 0, 0, 0);
        assert!(o.is_clean(), "{:?}", o.violations());
        assert!(o.outstanding.is_empty());
    }

    #[test]
    fn dual_primary_is_flagged() {
        let mut o = Oracle::new();
        o.primaries_observed(t(10), 7, 2);
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, InvariantKind::DualPrimary);
    }

    #[test]
    fn stale_and_missing_reads_are_flagged() {
        let mut o = Oracle::new();
        o.write_acked(5, 10);
        o.write_acked(5, 12);
        o.write_acked(5, 11); // late duplicate must not regress the floor
        o.read_served(t(1), 5, Some(12));
        assert!(o.is_clean());
        o.read_served(t(2), 5, Some(10));
        o.read_served(t(3), 5, None);
        assert_eq!(o.violations().len(), 2);
        assert!(o
            .violations()
            .iter()
            .all(|v| v.kind == InvariantKind::StaleRead));
    }

    #[test]
    fn dropped_and_duplicate_served_requests() {
        let mut o = Oracle::new();
        o.request_issued(1);
        o.request_issued(2);
        assert!(o.request_served(1));
        assert!(!o.request_served(1), "second serve of the same id");
        assert!(o.already_served(1));
        o.request_dropped(t(9), 2);
        assert_eq!(o.violations()[0].kind, InvariantKind::LostRequest);
        assert!(o.outstanding.is_empty());
    }

    #[test]
    fn registry_and_convergence_checks() {
        let mut o = Oracle::new();
        o.quiescent_registry(t(1), b"a", Some(b"b"));
        o.quiescent_registry(t(1), b"a", None);
        o.convergence_check(t(2), 3, 1, 0);
        o.convergence_check(t(2), 0, 0, 2);
        let kinds: Vec<InvariantKind> = o.violations().iter().map(|v| v.kind).collect();
        assert_eq!(
            kinds,
            vec![
                InvariantKind::RegistryDivergence,
                InvariantKind::RegistryDivergence,
                InvariantKind::Unconverged,
                InvariantKind::RouterDivergence,
            ]
        );
    }

    #[test]
    fn drain_check_flags_vanished_requests() {
        let mut o = Oracle::new();
        o.request_issued(1);
        o.request_issued(2);
        o.request_served(1);
        o.quiescent_drain_check(t(99));
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, InvariantKind::LostRequest);
        assert!(o.outstanding.is_empty());
    }

    #[test]
    fn disjoint_quorum_math() {
        use std::collections::BTreeSet;
        let s = |ids: &[u64]| ids.iter().copied().collect::<BTreeSet<u64>>();
        // A set against itself: majorities always intersect.
        assert!(!quorums_can_be_disjoint(&s(&[1, 2, 3]), &s(&[1, 2, 3])));
        // One-member swap in a 3-set: {1,2} vs {3,4} are disjoint
        // majorities of {1,2,3} and {2,3,4}.
        assert!(quorums_can_be_disjoint(&s(&[1, 2, 3]), &s(&[2, 3, 4])));
        // Overlap of one: trivially separable.
        assert!(quorums_can_be_disjoint(&s(&[1, 2, 3]), &s(&[3, 4, 5])));
        // Supersets that share a majority cannot be split.
        assert!(!quorums_can_be_disjoint(&s(&[1, 2, 3]), &s(&[1, 2, 3, 4])));
        // Degenerate empty set counts as breakable.
        assert!(quorums_can_be_disjoint(&s(&[]), &s(&[1])));
    }

    #[test]
    fn config_chain_requires_joint_bridges() {
        use std::collections::BTreeSet;
        let s = |ids: &[u64]| ids.iter().copied().collect::<BTreeSet<u64>>();
        let mut o = Oracle::new();
        // Safe history: old → joint(old,new) → new.
        o.replica_config_chain(
            t(1),
            7,
            &[
                vec![s(&[1, 2, 3])],
                vec![s(&[1, 2, 3]), s(&[2, 3, 4])],
                vec![s(&[2, 3, 4])],
            ],
        );
        assert!(o.is_clean(), "{:?}", o.violations());
        // Single-step history: old → new with no joint bridge.
        o.replica_config_chain(t(2), 7, &[vec![s(&[1, 2, 3])], vec![s(&[2, 3, 4])]]);
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, InvariantKind::ReplicaSetAgreement);
    }

    #[test]
    fn replica_view_convergence() {
        use std::collections::BTreeSet;
        let s = |ids: &[u64]| ids.iter().copied().collect::<BTreeSet<u64>>();
        let mut o = Oracle::new();
        let agreed = vec![s(&[1, 2, 3])];
        o.replica_views_converged(t(1), 9, &[agreed.clone(), agreed.clone(), agreed.clone()]);
        assert!(o.is_clean());
        o.replica_views_converged(t(2), 9, &[agreed, vec![s(&[2, 3, 4])]]);
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, InvariantKind::ReplicaSetAgreement);
    }

    #[test]
    fn keyspace_coverage_accepts_a_partition_and_flags_everything_else() {
        let r =
            |s: u64, start: &[u8], end: Option<&[u8]>| (s, start.to_vec(), end.map(<[u8]>::to_vec));
        let mut o = Oracle::new();
        // A clean three-way partition, deliberately unsorted.
        o.keyspace_coverage(
            t(1),
            &[
                r(2, &[0x80], None),
                r(0, &[], Some(&[0x40])),
                r(1, &[0x40], Some(&[0x80])),
            ],
        );
        assert!(o.is_clean(), "{:?}", o.violations());

        // Gap in the middle.
        o.keyspace_coverage(t(2), &[r(0, &[], Some(&[0x40])), r(1, &[0x50], None)]);
        assert_eq!(o.violations().len(), 1);
        // Overlap in the middle.
        o.keyspace_coverage(t(3), &[r(0, &[], Some(&[0x41])), r(1, &[0x40], None)]);
        // Missing bottom, bounded top, empty set.
        o.keyspace_coverage(t(4), &[r(0, &[0x01], None)]);
        o.keyspace_coverage(t(5), &[r(0, &[], Some(&[0xff]))]);
        o.keyspace_coverage(t(6), &[]);
        assert_eq!(o.total_violations(), 5);
        assert!(o
            .violations()
            .iter()
            .all(|v| v.kind == InvariantKind::KeyspaceCoverage));
    }

    #[test]
    fn violation_list_is_capped_but_total_is_not() {
        let mut o = Oracle::new();
        for i in 0..200 {
            o.primaries_observed(t(i), i, 2);
        }
        assert_eq!(o.violations().len(), MAX_RECORDED);
        assert_eq!(o.total_violations(), 200);
    }
}
