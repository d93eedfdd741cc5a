//! Outside-in tracing: spans recorded by the benchmark around every
//! call it makes into a layer. Nothing inside the crates is
//! instrumented.
//!
//! Workload code is generic over [`Probe`]. [`Off`] compiles to
//! nothing and is what every end-to-end number is measured with;
//! [`Tracer`] records `(name, start, end, parent, op)` in memory, sums
//! each layer's self time (its span minus the part its children cover)
//! when an operation ends, and keeps the spans of the first few
//! operations for the trace file written at exit.

use std::io::Write;
use std::time::Instant;

macro_rules! span_names {
    ($($id:ident = $text:literal,)*) => {
        /// What a span was recorded around: a benchmark-side root, or
        /// one call into the named layer.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Name { $($id,)* }
        const TEXT: &[&str] = &[$($text,)*];
    };
}

span_names! {
    Request = "bench.request",
    Forwarded = "bench.forwarded_request",
    Cycle = "bench.churn_cycle",
    Op = "bench.control_op",
    Settle = "bench.settle",
    Window = "bench.sim_window",
    Route = "sm-routing.route",
    InstallMap = "sm-routing.install_map",
    Publish = "sm-routing.discovery_publish",
    Admit = "sm-apps.admit",
    KvGet = "sm-apps.kv_get",
    KvPut = "sm-apps.kv_put",
    HostStep = "sm-apps.host_step",
    WorldStep = "sm-apps.world_step",
    ServerDown = "sm-core.server_down",
    RunEmergency = "sm-core.run_emergency",
    ReportLoad = "sm-core.report_load",
    RunPeriodic = "sm-core.run_periodic",
    DrainServer = "sm-core.drain_server",
    TakeCommands = "sm-core.take_commands",
    RpcAcked = "sm-core.rpc_acked",
    CurrentMap = "sm-core.current_map",
}

const NAMES: usize = TEXT.len();
const NO_PARENT: u32 = u32::MAX;

impl Name {
    pub fn text(self) -> &'static str {
        TEXT[self as usize]
    }
}

/// Span recorder interface; see the module docs.
pub trait Probe {
    /// Opens a span under the innermost open one.
    fn enter(&mut self, name: Name) -> u32;
    /// Closes the span `enter` returned.
    fn exit(&mut self, span: u32);
    /// Gives the open span `span` another name: what a request turned
    /// out to be is known only once it has been answered.
    fn rename(&mut self, span: u32, name: Name);
}

/// Tracing off: both calls are empty and inline away.
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn enter(&mut self, _name: Name) -> u32 {
        0
    }
    #[inline(always)]
    fn exit(&mut self, _span: u32) {}
    #[inline(always)]
    fn rename(&mut self, _span: u32, _name: Name) {}
}

#[derive(Clone, Copy)]
struct Span {
    name: Name,
    parent: u32,
    op: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over the spans of one operation.
#[derive(Clone, Copy, Default, Debug)]
pub struct Totals {
    pub count: u64,
    /// Span time not covered by child spans.
    pub self_ns: f64,
    /// Whole span time.
    pub span_ns: f64,
}

/// What [`Tracer::end_op`] returns: totals indexed by [`Name`].
#[derive(Clone, Debug)]
pub struct OpTotals([Totals; NAMES]);

impl OpTotals {
    pub fn get(&self, name: Name) -> Totals {
        self.0[name as usize]
    }

    /// Mean self time of one `name` span, 0 when there were none.
    pub fn self_ns_per_call(&self, name: Name) -> f64 {
        let t = self.get(name);
        if t.count == 0 {
            0.0
        } else {
            t.self_ns / t.count as f64
        }
    }

    /// Mean whole time of one `name` span, 0 when there were none.
    pub fn span_ns_per_call(&self, name: Name) -> f64 {
        let t = self.get(name);
        if t.count == 0 {
            0.0
        } else {
            t.span_ns / t.count as f64
        }
    }
}

/// Tracing on.
pub struct Tracer {
    epoch: Instant,
    /// Spans of the operation in progress.
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    /// Spans of the first `keep_ops` operations, for the trace file.
    kept: Vec<Span>,
    keep_ops: u32,
}

impl Tracer {
    /// A tracer that keeps the spans of the first `keep_ops` operations
    /// for the trace file and only the totals of the rest.
    pub fn new(keep_ops: u32) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(16),
            op: 0,
            kept: Vec::new(),
            keep_ops,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Ends the operation in progress: returns its per-name totals and
    /// starts the next one with an empty span buffer.
    pub fn end_op(&mut self) -> OpTotals {
        assert!(self.open.is_empty(), "end_op with a span still open");
        let mut totals = [Totals::default(); NAMES];
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, covered) in self.spans.iter().zip(&covered) {
            let span = s.end_ns - s.start_ns;
            let t = &mut totals[s.name as usize];
            t.count += 1;
            t.span_ns += span as f64;
            t.self_ns += span.saturating_sub(*covered) as f64;
        }
        if self.op < self.keep_ops {
            let base = self.kept.len() as u32;
            self.kept.extend(self.spans.iter().map(|s| Span {
                parent: if s.parent == NO_PARENT {
                    NO_PARENT
                } else {
                    s.parent + base
                },
                ..*s
            }));
        }
        self.spans.clear();
        self.op += 1;
        OpTotals(totals)
    }

    /// Mean duration of an empty span: what being traced adds to every
    /// span's parent, and roughly half of it to the span itself.
    pub fn span_cost_ns(&mut self) -> f64 {
        const N: usize = 20_000;
        for _ in 0..N {
            let s = self.enter(Name::Request);
            self.exit(s);
        }
        let total: u64 = self.spans.iter().map(|s| s.end_ns - s.start_ns).sum();
        self.spans.clear();
        total as f64 / N as f64
    }

    /// Writes the kept spans as one JSON object: a `names` table and
    /// one `[name, start_ns, end_ns, parent, op]` row per span
    /// (`parent` is a row index, -1 for a root).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"names\": [")?;
        for (i, text) in TEXT.iter().enumerate() {
            write!(out, "{}\"{text}\"", if i == 0 { "" } else { ", " })?;
        }
        writeln!(
            out,
            "],\n \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"op\"],\n \"spans\": ["
        )?;
        for (i, s) in self.kept.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let comma = if i + 1 == self.kept.len() { "" } else { "," };
            writeln!(
                out,
                "  [{}, {}, {}, {parent}, {}]{comma}",
                s.name as u8, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(out, " ]}}")?;
        out.flush()
    }
}

impl Probe for Tracer {
    #[inline]
    fn enter(&mut self, name: Name) -> u32 {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(idx);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op: self.op,
            start_ns,
            end_ns: start_ns,
        });
        idx
    }

    #[inline]
    fn exit(&mut self, span: u32) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(span), "spans must nest");
        self.spans[span as usize].end_ns = end_ns;
    }

    #[inline]
    fn rename(&mut self, span: u32, name: Name) {
        self.spans[span as usize].name = name;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(1);
        let root = t.enter(Name::Op);
        let a = t.enter(Name::ServerDown);
        t.exit(a);
        let b = t.enter(Name::Settle);
        let c = t.enter(Name::RpcAcked);
        t.exit(c);
        t.exit(b);
        t.exit(root);
        // Overwrite the clock readings with known ones.
        let at = [(0, 100), (10, 30), (40, 90), (50, 70)];
        for (s, (start, end)) in t.spans.iter_mut().zip(at) {
            s.start_ns = start;
            s.end_ns = end;
        }
        let totals = t.end_op();
        assert_eq!(totals.get(Name::Op).self_ns, 100.0 - 20.0 - 50.0);
        assert_eq!(totals.get(Name::Settle).self_ns, 30.0);
        assert_eq!(totals.get(Name::Settle).span_ns, 50.0);
        assert_eq!(totals.self_ns_per_call(Name::RpcAcked), 20.0);
        assert_eq!(totals.self_ns_per_call(Name::Route), 0.0);
        // The first op is kept with parents as row indices.
        assert_eq!(t.kept.len(), 4);
        assert_eq!(t.kept[3].parent, 2);
        // The second op is not kept.
        let s = t.enter(Name::Op);
        t.exit(s);
        t.end_op();
        assert_eq!(t.kept.len(), 4);
    }

    #[test]
    fn a_renamed_span_counts_under_its_new_name() {
        let mut t = Tracer::new(0);
        for forwarded in [false, true, false] {
            let s = t.enter(Name::Request);
            if forwarded {
                t.rename(s, Name::Forwarded);
            }
            t.exit(s);
        }
        let totals = t.end_op();
        assert_eq!(totals.get(Name::Request).count, 2);
        assert_eq!(totals.get(Name::Forwarded).count, 1);
    }
}
