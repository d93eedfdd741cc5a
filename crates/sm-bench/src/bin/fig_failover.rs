//! Control-plane failover under chaos: recovery time and availability
//! while every mini-SM crashes at least once and server sessions expire
//! (§6's fault-tolerance story, measured).
//!
//! Runs the seeded chaos harness ([`sm_apps::chaos`]) and reports, per
//! seed: mini-SM failover recovery times (crash → every shard placed,
//! no migration in flight), request outcomes, and fencing activity.
//! Reruns with the same seed are byte-identical.

use sm_apps::chaos::{run_chaos, ChaosConfig};
use sm_bench::{banner, compare, table, Scale};

fn main() {
    banner(
        "Failover",
        "control-plane recovery under a seeded fault schedule",
    );
    let seeds: Vec<u64> = match Scale::from_env() {
        Scale::Paper => (1..=5).collect(),
        Scale::Small => vec![1, 2],
    };

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut all_recoveries: Vec<f64> = Vec::new();
    let mut total_served = 0u64;
    let mut total_dropped = 0u64;
    let mut total_dual = 0u64;
    for &seed in &seeds {
        let r = run_chaos(ChaosConfig::covering(seed));
        let mean_ms = if r.extra.recoveries_ms.is_empty() {
            f64::NAN
        } else {
            r.extra.recoveries_ms.iter().sum::<f64>() / r.extra.recoveries_ms.len() as f64
        };
        let max_ms = r
            .extra
            .recoveries_ms
            .iter()
            .copied()
            .fold(f64::NAN, f64::max);
        rows.push(vec![
            seed.to_string(),
            r.stats.minism_crashes.to_string(),
            r.extra.ha.failovers.to_string(),
            format!("{:.0}", mean_ms),
            format!("{:.0}", max_ms),
            r.stats.served.to_string(),
            r.stats.dropped.to_string(),
            r.stats.dual_primary.to_string(),
            if r.converged { "yes" } else { "NO" }.to_string(),
        ]);
        all_recoveries.extend(r.extra.recoveries_ms.iter().copied());
        total_served += r.stats.served;
        total_dropped += r.stats.dropped;
        total_dual += r.stats.dual_primary;
    }
    println!(
        "{}",
        table(
            &[
                "seed",
                "mini-SM crashes",
                "failovers",
                "mean recovery (ms)",
                "max recovery (ms)",
                "served",
                "dropped",
                "dual primary",
                "converged",
            ],
            &rows,
        )
    );

    let mean = if all_recoveries.is_empty() {
        f64::NAN
    } else {
        all_recoveries.iter().sum::<f64>() / all_recoveries.len() as f64
    };
    compare(
        "control-plane recovery after mini-SM loss",
        "seconds (watch-driven detection + znode restore)",
        format!(
            "{:.1} s mean over {} recoveries",
            mean / 1000.0,
            all_recoveries.len()
        ),
    );
    compare(
        "requests dropped across all chaos runs",
        "0 (bounded retries ride out every outage)",
        total_dropped,
    );
    compare(
        "dual-primary observations",
        "0 (self-fencing + fenced znode writes)",
        total_dual,
    );
    compare("requests served", "all generated traffic", total_served);
}
