//! Numeric-property gates over the figure-regeneration binaries.
//!
//! Each figure binary prints the series the paper plots plus
//! `paper vs measured` footer lines. These tests execute the binaries
//! at `SM_SCALE=small` and assert at least one numeric property of the
//! output per figure — shape (monotonicity, spike-and-recover), bounds
//! (caps respected, rates near their paper values), or conservation
//! (percentages summing to ~100) — so a refactor that silently turns a
//! figure into noise fails the build instead of producing a wrong plot.
//!
//! Figures whose small-scale run still takes multiple seconds are
//! `#[ignore]`d from the default test pass and run via
//! `cargo test -p sm-bench --test figs -- --ignored` (CI's long lane).
//! `bench_solver` is a wall-clock microbenchmark with no plotted
//! series, so it has no property test here.

use std::process::Command;

/// Runs a figure binary at small scale and returns its stdout.
fn run(exe: &str) -> String {
    let out = Command::new(exe)
        .env("SM_SCALE", "small")
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} exited with {:?}\n--- stderr ---\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("figure output is utf-8")
}

/// First number in `s`, honoring a `K`/`M` magnitude suffix.
fn first_number(s: &str) -> Option<f64> {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let negative = bytes[i] == b'-' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit();
        if bytes[i].is_ascii_digit() || negative {
            let start = i;
            i += 1;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                i += 1;
            }
            let mut v: f64 = s[start..i].parse().ok()?;
            match bytes.get(i) {
                Some(b'K') => v *= 1e3,
                Some(b'M') => v *= 1e6,
                _ => {}
            }
            return Some(v);
        }
        i += 1;
    }
    None
}

/// The text after `measured:` on the footer line matching `what`.
fn measured_text<'a>(out: &'a str, what: &str) -> &'a str {
    let line = out
        .lines()
        .find(|l| l.contains(what) && l.contains("measured:"))
        .unwrap_or_else(|| panic!("no `{what}` footer in:\n{out}"));
    line.split("measured:")
        .nth(1)
        .expect("measured: suffix")
        .trim()
}

/// The measured value of the footer line matching `what`, as a number.
fn measured(out: &str, what: &str) -> f64 {
    let text = measured_text(out, what);
    first_number(text).unwrap_or_else(|| panic!("`{what}` measured `{text}` is not numeric"))
}

/// Parses the numeric columns of a figure table: every line whose first
/// token is an integer becomes a row of column values.
fn table_rows(out: &str, cols: usize) -> Vec<Vec<f64>> {
    out.lines()
        .filter_map(|l| {
            let cells: Vec<f64> = l.split_whitespace().filter_map(first_number).collect();
            let first = l.split_whitespace().next()?;
            (first.bytes().all(|b| b.is_ascii_digit()) && cells.len() >= cols)
                .then(|| cells[..cols].to_vec())
        })
        .collect()
}

#[test]
fn fig01_planned_stops_dominate_unplanned() {
    let out = run(env!("CARGO_BIN_EXE_fig01_planned_vs_unplanned"));
    let ratio = measured(&out, "planned / unplanned stop ratio");
    assert!(
        (200.0..=5_000.0).contains(&ratio),
        "planned/unplanned ratio {ratio} far from the paper's ~1000x"
    );
    // Every weekly row keeps planned >> unplanned.
    let rows: Vec<Vec<f64>> = out
        .lines()
        .filter(|l| l.trim_start().starts_with("week "))
        .map(|l| l.split_whitespace().filter_map(first_number).collect())
        .collect();
    assert!(rows.len() >= 3, "weekly rows missing:\n{out}");
    for row in &rows {
        // row = [week, planned, unplanned, ratio]
        assert!(
            row.len() >= 3 && row[1] > 100.0 * row[2].max(1.0),
            "weak week: {row:?}"
        );
    }
}

#[test]
fn fig02_adoption_grows_monotonically() {
    let out = run(env!("CARGO_BIN_EXE_fig02_adoption"));
    let rows = table_rows(&out, 2);
    assert!(rows.len() >= 8, "yearly rows missing:\n{out}");
    for pair in rows.windows(2) {
        assert!(pair[1][0] > pair[0][0], "years out of order");
        assert!(pair[1][1] >= pair[0][1], "adoption shrank: {pair:?}");
    }
    let last = rows.last().expect("rows")[1];
    assert!(last >= 100_000.0, "final machine count {last} too small");
}

#[test]
fn fig04_09_demographics_percentages_are_conserved() {
    let out = run(env!("CARGO_BIN_EXE_fig04_09_demographics"));
    // The four sharding schemes partition the app population.
    let scheme_total = measured(&out, "SM, by #application")
        + measured(&out, "static sharding, by #application")
        + measured(&out, "consistent hashing, by #application")
        + measured(&out, "custom sharding, by #application");
    assert!(
        (scheme_total - 100.0).abs() <= 3.0,
        "sharding-scheme shares sum to {scheme_total}%, not ~100%"
    );
    // SM stays the majority scheme, as in Figure 4.
    let sm = measured(&out, "SM, by #application");
    assert!((40.0..=70.0).contains(&sm), "SM share {sm}% off-census");
    // Every footer percentage is a valid fraction.
    for line in out.lines().filter(|l| l.contains("measured:")) {
        let v = first_number(line.split("measured:").nth(1).expect("suffix"))
            .unwrap_or_else(|| panic!("non-numeric footer: {line}"));
        assert!((0.0..=100.0).contains(&v), "impossible percentage: {line}");
    }
}

#[test]
fn fig15_app_scale_histogram_has_a_heavy_tail() {
    let out = run(env!("CARGO_BIN_EXE_fig15_app_scale"));
    let largest = measured(&out, "largest deployment servers");
    assert!(
        largest >= 1_000.0,
        "largest deployment only {largest} servers"
    );
    let over_1k = measured(&out, "deployments with >= 1,000 servers");
    assert!(
        (1.0..=50.0).contains(&over_1k),
        ">=1K-server share {over_1k}% outside the census shape"
    );
    // Max-shards-per-bin grows with the server bin: bigger deployments
    // hold more shards.
    let maxes: Vec<f64> = out
        .lines()
        .filter(|l| l.contains('-') && !l.starts_with('-'))
        .filter_map(|l| {
            let cells: Vec<&str> = l.split_whitespace().collect();
            (cells.len() == 3 && cells[0].contains('-'))
                .then(|| first_number(cells[2]))
                .flatten()
        })
        .collect();
    assert!(maxes.len() >= 4, "histogram bins missing:\n{out}");
    for pair in maxes.windows(2) {
        assert!(pair[1] > pair[0], "shard ceiling not growing: {maxes:?}");
    }
}

#[test]
fn fig20_colocation_latency_spikes_then_recovers() {
    let out = run(env!("CARGO_BIN_EXE_fig20_colocation"));
    let rows = table_rows(&out, 3);
    assert!(rows.len() >= 10, "timeline rows missing:\n{out}");
    let lat_min = rows.iter().map(|r| r[1]).fold(f64::INFINITY, f64::min);
    let lat_max = rows.iter().map(|r| r[1]).fold(0.0, f64::max);
    assert!(
        lat_max > 5.0 * lat_min,
        "no DB-migration latency spike (min {lat_min}, max {lat_max})"
    );
    let last = rows.last().expect("rows")[1];
    assert!(
        last <= lat_min * 1.5,
        "latency never recovered: ends at {last} ms vs floor {lat_min} ms"
    );
    let moves: f64 = rows.iter().map(|r| r[2]).sum();
    assert!(moves > 0.0, "no AppShard followed the DBShards");
}

#[test]
fn fig_failover_serves_everything_without_dual_primaries() {
    let out = run(env!("CARGO_BIN_EXE_fig_failover"));
    assert_eq!(
        measured(&out, "requests dropped across all chaos runs"),
        0.0
    );
    assert_eq!(measured(&out, "dual-primary observations"), 0.0);
    assert!(measured(&out, "requests served") > 1_000.0);
    // Every seed row converged.
    let rows: Vec<&str> = out
        .lines()
        .filter(|l| {
            l.split_whitespace()
                .next()
                .is_some_and(|t| t.bytes().all(|b| b.is_ascii_digit()) && !t.is_empty())
        })
        .collect();
    assert!(!rows.is_empty(), "no per-seed rows:\n{out}");
    for row in rows {
        assert!(row.trim_end().ends_with("yes"), "unconverged run: {row}");
    }
}

#[test]
fn fig16_minism_scale_respects_the_partition_caps() {
    let out = run(env!("CARGO_BIN_EXE_fig16_minism_scale"));
    assert!(measured(&out, "regional mini-SMs in service") >= 1.0);
    assert!(measured(&out, "geo-distributed mini-SMs in service") >= 1.0);
    // The registry caps: 50K servers / 1.5M replicas per mini-SM.
    assert!(measured(&out, "largest mini-SM, servers") <= 50_000.0);
    assert!(measured(&out, "largest mini-SM, shard replicas") <= 1_500_000.0);
}

// --- multi-second figures: CI's long lane ------------------------------

#[test]
#[ignore = "multi-second figure; run with --ignored"]
fn fig17_upgrade_availability_orders_the_three_modes() {
    let out = run(env!("CARGO_BIN_EXE_fig17_upgrade_availability"));
    let full = measured(&out, "success rate with full SM");
    let no_migration = measured(&out, "success rate without graceful migration");
    let no_controller = measured(&out, "success rate without TaskController");
    assert!(full >= 99.5, "full SM should be ~100%, got {full}%");
    assert!(full >= no_migration, "{full} < {no_migration}");
    assert!(
        no_migration > no_controller,
        "graceful-migration-only ({no_migration}%) should beat blind ({no_controller}%)"
    );
    assert!(measured(&out, "forwarded requests (graceful run only)") > 0.0);
}

#[test]
#[ignore = "multi-second figure; run with --ignored"]
fn fig18_queue_upgrades_keep_errors_flat() {
    let out = run(env!("CARGO_BIN_EXE_fig18_queue_upgrades"));
    assert!(measured(&out, "overall error rate") <= 0.001);
    let diurnal = measured(&out, "request rate follows a diurnal pattern");
    assert!((2.0..=4.0).contains(&diurnal), "diurnal ratio {diurnal}x");
    let concentration = measured(&out, "shard moves concentrated in upgrade windows");
    assert!(
        concentration >= 50.0,
        "moves not upgrade-driven: {concentration}%"
    );
}

#[test]
#[ignore = "multi-second figure; run with --ignored"]
fn fig19_geo_failover_latency_shape_holds() {
    let out = run(env!("CARGO_BIN_EXE_fig19_geo_failover"));
    let steady = measured(&out, "steady-state latency (local replicas)");
    let plateau = measured(&out, "latency while failed over to remote regions");
    let recovered = measured(&out, "latency after shards move back");
    assert!(plateau > 5.0 * steady, "no remote-region plateau");
    assert!(recovered < 3.0 * steady, "latency never came home");
    assert_eq!(measured_text(&out, "shape check"), "true");
}

#[test]
#[ignore = "multi-second figure; run with --ignored"]
fn fig21_solver_scales_with_threads() {
    let out = run(env!("CARGO_BIN_EXE_fig21_solver_scale"));
    assert_eq!(
        measured_text(&out, "all violations fixed at every scale"),
        "true"
    );
    let growth = measured(&out, "solve-time growth for a 5x problem");
    assert!(
        (1.0..=30.0).contains(&growth),
        "5x problem grew solve time {growth}x"
    );
}

#[test]
#[ignore = "multi-second figure; run with --ignored"]
fn fig22_ablation_separates_optimized_from_baseline() {
    let out = run(env!("CARGO_BIN_EXE_fig22_solver_ablation"));
    assert_eq!(
        measured_text(&out, "optimized fixes all violations in budget"),
        "true"
    );
    assert_eq!(
        measured_text(&out, "baseline finishes within the budget"),
        "false"
    );
}

#[test]
#[ignore = "multi-second figure; run with --ignored"]
fn fig23_continuous_lb_keeps_p99_under_control() {
    let out = run(env!("CARGO_BIN_EXE_fig23_continuous_lb"));
    let p99 = measured(&out, "P99 CPU utilization stays under control");
    assert!((0.0..80.0).contains(&p99), "P99 CPU {p99}% breached 80%");
}
