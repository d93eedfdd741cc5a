//! Machine-readable adaptive-sharding benchmark: emits one JSON
//! document on stdout comparing three runs of the skew-storm world
//! over a seed grid.
//!
//! - `static`: `adaptive: false`, no faults. The layout never changes,
//!   so the viral key slice concentrates on one shard — the run stays
//!   *safe* (zero violations, nothing lost) but the hottest shard eats
//!   the whole storm. `peak_tick_load` records the worst single-shard
//!   request count in any one load-report window.
//! - `adaptive`: the [`sm_core::SplitScaler`] on, same seeds, no
//!   faults. Splits chase the hot slice until per-shard load falls back
//!   under the split threshold, then merges fold the cold children away
//!   (`final_shards` returns to the starting count).
//! - `adaptive_chaos`: adaptive under the full
//!   [`FaultProfile::SplitChaos`] plan — crashes, expiries, and
//!   partitions landing mid-split — showing the headline ratio holds
//!   with the graceful protocol genuinely being aborted and retried.
//!
//! The headline number is `overload_ratio`: mean rounds-over-threshold
//! (`overload_ticks`, each one 2 s reshard round spent with some shard
//! over the split threshold) for static divided by adaptive — how much
//! of the storm each design spends out of the per-shard load SLO.
//! `scripts/bench.sh split` records the output as `BENCH_split.json`.
//! The simulated workload is seeded — output is byte-identical run to
//! run.

use sm_apps::{run, run_split, Split, SplitConfig, SplitReport};
use sm_sim::faults::FaultProfile;
use std::fmt::Write as _;

/// Seed grid; small because each cell is a full 135s simulated run.
const SEEDS: u64 = 6;

/// Aggregates over one mode's seed grid.
struct Agg {
    peak_load_max: u64,
    peak_load_mean: f64,
    overload_ticks_mean: f64,
    peak_shards_max: u64,
    final_shards_max: u64,
    splits: u64,
    merges: u64,
    served: u64,
    violations: u64,
    converged: bool,
}

fn aggregate(reports: &[SplitReport]) -> Agg {
    let n = reports.len() as f64;
    Agg {
        peak_load_max: reports
            .iter()
            .map(|r| r.stats.peak_tick_load)
            .max()
            .unwrap_or(0),
        peak_load_mean: reports
            .iter()
            .map(|r| r.stats.peak_tick_load as f64)
            .sum::<f64>()
            / n,
        overload_ticks_mean: reports
            .iter()
            .map(|r| r.stats.overload_ticks as f64)
            .sum::<f64>()
            / n,
        peak_shards_max: reports
            .iter()
            .map(|r| r.stats.peak_shards)
            .max()
            .unwrap_or(0),
        final_shards_max: reports
            .iter()
            .map(|r| r.stats.final_shards)
            .max()
            .unwrap_or(0),
        splits: reports.iter().map(|r| r.stats.splits_completed).sum(),
        merges: reports.iter().map(|r| r.stats.merges_completed).sum(),
        served: reports.iter().map(|r| r.stats.served).sum(),
        violations: reports.iter().map(|r| r.total_violations).sum(),
        converged: reports.iter().all(|r| r.converged),
    }
}

fn emit(out: &mut String, name: &str, agg: &Agg) {
    let _infallible = writeln!(
        out,
        "  \"{name}\": {{\"peak_tick_load_max\": {}, \"peak_tick_load_mean\": {:.1}, \
         \"overload_ticks_mean\": {:.1}, \
         \"peak_shards_max\": {}, \"final_shards_max\": {}, \"splits\": {}, \
         \"merges\": {}, \"served\": {}, \"violations\": {}, \"converged\": {}}},",
        agg.peak_load_max,
        agg.peak_load_mean,
        agg.overload_ticks_mean,
        agg.peak_shards_max,
        agg.final_shards_max,
        agg.splits,
        agg.merges,
        agg.served,
        agg.violations,
        agg.converged,
    );
}

fn main() {
    let grid = |adaptive: bool, chaos: bool| -> Vec<SplitReport> {
        (0..SEEDS)
            .map(|seed| {
                let mut cfg = SplitConfig::dst(seed, FaultProfile::SplitChaos);
                cfg.adaptive = adaptive;
                if chaos {
                    run_split(cfg)
                } else {
                    run::<Split>(cfg, Some(Vec::new()))
                }
            })
            .collect()
    };

    let fixed = aggregate(&grid(false, false));
    let adaptive = aggregate(&grid(true, false));
    let adaptive_chaos = aggregate(&grid(true, true));
    for (name, agg) in [
        ("static", &fixed),
        ("adaptive", &adaptive),
        ("adaptive_chaos", &adaptive_chaos),
    ] {
        assert_eq!(agg.violations, 0, "{name} grid must be violation-free");
        assert!(agg.converged, "{name} grid must converge");
        eprintln!(
            "fig_split: {name} overload_ticks mean={:.1} peak_load mean={:.1} max={} \
             shards peak={} splits={} merges={}",
            agg.overload_ticks_mean,
            agg.peak_load_mean,
            agg.peak_load_max,
            agg.peak_shards_max,
            agg.splits,
            agg.merges
        );
    }
    assert_eq!(fixed.splits, 0, "the static grid must never resplit");

    let mut out = String::from("{\n");
    let _infallible = writeln!(
        out,
        "  \"bench\": \"split\",\n  \"seeds\": {SEEDS},\n  \"storm_secs\": [25, 70],"
    );
    emit(&mut out, "static", &fixed);
    emit(&mut out, "adaptive", &adaptive);
    emit(&mut out, "adaptive_chaos", &adaptive_chaos);
    let _infallible = write!(
        out,
        "  \"overload_ratio\": {:.2},\n  \"overload_ratio_chaos\": {:.2},\n  \
         \"floors\": {{\"overload_ratio\": 1.5}}\n}}",
        fixed.overload_ticks_mean / adaptive.overload_ticks_mean,
        fixed.overload_ticks_mean / adaptive_chaos.overload_ticks_mean,
    );
    println!("{out}");
}
