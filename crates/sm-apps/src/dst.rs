//! Fault-plan shrinking and the reproducer JSON primitives the world
//! kit ([`crate::kit`]) builds its `shrink` and codec on.
//!
//! [`shrink_plan`] reduces a failing fault plan to a minimal
//! reproducer: ddmin-style binary-search removal of whole fault groups
//! (a fault and its paired recovery travel together, so every candidate
//! plan is well-formed), then per-group time-window narrowing that
//! binary-searches each surviving recovery toward its fault. The JSON
//! half is a hand-rolled value parser plus the [`Fault`] codec — the
//! workspace is std-only.

use sm_sim::faults::Fault;
use sm_sim::net::PartitionSpec;
use sm_sim::SimTime;
use std::collections::BTreeSet;

/// A fault and the recovery that undoes it, kept atomic during
/// shrinking so every candidate plan stays well-formed (no unhealed
/// partition, no permanently-expired session).
type FaultGroup = Vec<(SimTime, Fault)>;

/// Splits a time-sorted plan into atomic hit+recovery groups. Each hit
/// is paired with the *first* later recovery of the matching kind (and
/// target index, for per-server and per-mini-SM faults); anything left
/// unpaired becomes a singleton group.
fn group_plan(plan: &[(SimTime, Fault)]) -> Vec<FaultGroup> {
    // Indices of recoveries already claimed by an earlier hit.
    let mut claimed = BTreeSet::new();
    let mut groups = Vec::new();
    for (i, &(at, fault)) in plan.iter().enumerate() {
        if claimed.contains(&i) {
            continue;
        }
        let recovery = |g: &Fault| match (fault, g) {
            (Fault::ServerCrash(a), Fault::ServerRestart(b)) => a == *b,
            (Fault::SessionExpiry(a), Fault::SessionRestore(b)) => a == *b,
            (Fault::MiniSmCrash(a), Fault::MiniSmRestart(b)) => a == *b,
            (Fault::PartitionStart(_), Fault::PartitionHeal) => true,
            (Fault::NetDegrade { .. }, Fault::NetHeal) => true,
            _ => false,
        };
        let mut group = vec![(at, fault)];
        if fault.is_hit() {
            let mut later = plan.iter().enumerate().skip(i + 1);
            let paired = later.find(|(j, (_, g))| !claimed.contains(j) && recovery(g));
            if let Some((j, &entry)) = paired {
                claimed.insert(j);
                group.push(entry);
            }
        }
        groups.push(group);
    }
    groups
}

fn flatten(groups: &[FaultGroup]) -> Vec<(SimTime, Fault)> {
    let mut plan: Vec<(SimTime, Fault)> = groups.iter().flatten().copied().collect();
    plan.sort_by_key(|(at, _)| *at);
    plan
}

/// The world-agnostic shrinking core: driven entirely by the caller's
/// `still_fails` predicate, so any harness that executes a
/// `(SimTime, Fault)` plan can shrink its failures through it.
///
/// Stage 1 is ddmin-style group removal: fault+recovery pairs are
/// removed in binary-search-sized chunks, keeping any candidate the
/// predicate accepts, down to chunks of a single group. Stage 2 narrows
/// time windows: for each surviving pair, the recovery time is
/// binary-searched toward the fault (to 1 s resolution), so the
/// reproducer also tells you *how long* the fault must last.
///
/// `still_fails` must return true for a candidate plan that still
/// reproduces the original failure; the shrinker never assumes
/// monotonicity, it only keeps candidates the predicate accepts.
/// Returns `None` when the predicate rejects the full plan (nothing to
/// shrink).
pub(crate) fn shrink_plan(
    plan: &[(SimTime, Fault)],
    mut still_fails: impl FnMut(&[(SimTime, Fault)]) -> bool,
) -> Option<Vec<(SimTime, Fault)>> {
    if !still_fails(plan) {
        return None;
    }

    // Stage 1: ddmin over atomic groups.
    let mut groups = group_plan(plan);
    let mut chunks = 2usize;
    while groups.len() >= 2 {
        let chunk_len = groups.len().div_ceil(chunks);
        let mut reduced = false;
        for start in (0..groups.len()).step_by(chunk_len) {
            let candidate: Vec<FaultGroup> = groups
                .iter()
                .enumerate()
                .filter(|(i, _)| *i < start || *i >= start + chunk_len)
                .map(|(_, g)| g.clone())
                .collect();
            if candidate.is_empty() {
                continue;
            }
            if still_fails(&flatten(&candidate)) {
                groups = candidate;
                chunks = chunks.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
        }
        if !reduced {
            if chunks >= groups.len() {
                break;
            }
            chunks = (chunks * 2).min(groups.len());
        }
    }

    // Stage 2: narrow each pair's window by moving the recovery
    // earlier while the plan still fails.
    let resolution = 1_000_000; // 1 s in µs
    for gi in 0..groups.len() {
        let Some(&[(hit, _), (recovery, _)]) = groups.get(gi).map(Vec::as_slice) else {
            continue;
        };
        // Replaying the plan with group `gi`'s recovery moved to `at`.
        let moved = |groups: &mut [FaultGroup], at: u64| {
            if let Some((when, _)) = groups.get_mut(gi).and_then(|g| g.get_mut(1)) {
                *when = SimTime(at);
            }
        };
        let mut lo = hit.0; // known-passing boundary (zero-length fault)
        let mut hi = recovery.0; // known-failing recovery time
        while hi - lo > resolution {
            let mid = lo + (hi - lo) / 2;
            let mut candidate = groups.clone();
            moved(&mut candidate, mid);
            if still_fails(&flatten(&candidate)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        moved(&mut groups, hi);
    }

    Some(flatten(&groups))
}

// ---------------------------------------------------------------------
// Replayable reproducer JSON (hand-rolled: the workspace is std-only).
// ---------------------------------------------------------------------

pub(crate) fn fault_to_json(fault: Fault) -> String {
    let mut fields = format!("\"kind\":\"{}\"", fault.label());
    match fault {
        Fault::ServerCrash(i)
        | Fault::ServerRestart(i)
        | Fault::SessionExpiry(i)
        | Fault::SessionRestore(i)
        | Fault::MiniSmCrash(i)
        | Fault::MiniSmRestart(i) => fields.push_str(&format!(",\"id\":{i}")),
        Fault::PartitionStart(p) => fields.push_str(&format!(
            ",\"lo\":{},\"len\":{},\"asym\":{}",
            p.lo, p.len, p.asym
        )),
        Fault::NetDegrade { drop_pct, dup_pct } => {
            fields.push_str(&format!(",\"drop_pct\":{drop_pct},\"dup_pct\":{dup_pct}"))
        }
        Fault::PartitionHeal | Fault::NetHeal => {}
    }
    format!("{{{fields}}}")
}

/// A minimal JSON value — just enough for reproducer documents.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

pub(crate) struct Parser<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.bytes.get(self.pos).copied()
    }

    fn lit(&mut self, s: &str) -> Option<()> {
        self.ws();
        if self.bytes.get(self.pos..)?.starts_with(s.as_bytes()) {
            self.pos += s.len();
            Some(())
        } else {
            None
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s = std::str::from_utf8(self.bytes.get(start..self.pos)?).ok()?;
                // Reproducer strings are plain identifiers; escapes are
                // out of scope for this parser.
                if s.contains('\\') {
                    return None;
                }
                self.pos += 1;
                return Some(s.to_string());
            }
            self.pos += 1;
        }
        None
    }

    fn number(&mut self) -> Option<f64> {
        self.ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(self.bytes.get(start..self.pos)?)
            .ok()?
            .parse()
            .ok()
    }

    pub(crate) fn value(&mut self) -> Option<Json> {
        match self.peek()? {
            b'"' => Some(Json::Str(self.string()?)),
            b'{' => {
                self.eat(b'{')?;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.eat(b'}')?;
                    return Some(Json::Obj(fields));
                }
                loop {
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    match self.peek()? {
                        b',' => self.eat(b',')?,
                        b'}' => {
                            self.eat(b'}')?;
                            return Some(Json::Obj(fields));
                        }
                        _ => return None,
                    }
                }
            }
            b'[' => {
                self.eat(b'[')?;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.eat(b']')?;
                    return Some(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.eat(b',')?,
                        b']' => {
                            self.eat(b']')?;
                            return Some(Json::Arr(items));
                        }
                        _ => return None,
                    }
                }
            }
            b't' => {
                self.lit("true")?;
                Some(Json::Bool(true))
            }
            b'f' => {
                self.lit("false")?;
                Some(Json::Bool(false))
            }
            b'n' => {
                self.lit("null")?;
                Some(Json::Null)
            }
            _ => Some(Json::Num(self.number()?)),
        }
    }
}

pub(crate) fn fault_from_json(v: &Json) -> Option<Fault> {
    let id = || v.get("id").and_then(Json::as_u64).map(|i| i as u32);
    match v.get("kind")?.as_str()? {
        "server_crash" => Some(Fault::ServerCrash(id()?)),
        "server_restart" => Some(Fault::ServerRestart(id()?)),
        "session_expiry" => Some(Fault::SessionExpiry(id()?)),
        "session_restore" => Some(Fault::SessionRestore(id()?)),
        "minism_crash" => Some(Fault::MiniSmCrash(id()?)),
        "minism_restart" => Some(Fault::MiniSmRestart(id()?)),
        "partition_start" => Some(Fault::PartitionStart(PartitionSpec {
            lo: v.get("lo")?.as_u64()? as u32,
            len: v.get("len")?.as_u64()? as u32,
            asym: v.get("asym")?.as_bool()?,
        })),
        "partition_heal" => Some(Fault::PartitionHeal),
        "net_degrade" => Some(Fault::NetDegrade {
            drop_pct: v.get("drop_pct")?.as_u64()? as u8,
            dup_pct: v.get("dup_pct")?.as_u64()? as u8,
        }),
        "net_heal" => Some(Fault::NetHeal),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_pairs_hits_with_their_recoveries() {
        let plan = vec![
            (SimTime::from_secs(1), Fault::ServerCrash(0)),
            (
                SimTime::from_secs(2),
                Fault::PartitionStart(PartitionSpec {
                    lo: 0,
                    len: 2,
                    asym: false,
                }),
            ),
            (SimTime::from_secs(3), Fault::ServerRestart(0)),
            (SimTime::from_secs(4), Fault::PartitionHeal),
        ];
        let groups = group_plan(&plan);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 2, "crash pairs with restart");
        assert_eq!(groups[1].len(), 2, "partition pairs with heal");
        // Flatten restores time order across interleaved groups.
        assert_eq!(flatten(&groups), plan);
    }
}
