//! The names the benchmark prints; `../BENCHMARK.json` lists the same
//! ones (checked by the test below) and `README.md` defines them.

pub const WORKLOADS: &[&str] = &[
    "serve_steady",
    "serve_churn",
    "control_failover",
    "control_rebalance",
    "control_drain",
    "world_upgrade",
];

/// Printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_per_s", "1/s"),
];

/// Printed by every workload with `--trace 1`; a layer the workload
/// does not enter reads 0. A layer is a crate; `op.*` are numbers of
/// the workload's own operation that `work_per_s` does not hold, from
/// the untraced replays of the traced run, and `bench.*` qualify the
/// run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("op.map_install_ms", "ms"),
    ("op.upgrade_sim_s", "sim_s"),
    ("sm-routing.route_ns", "ns"),
    ("sm-routing.resolved_build_ms", "ms"),
    ("sm-routing.install_map_ms", "ms"),
    ("sm-routing.refresh_ratio", "ratio"),
    ("sm-routing.retired_backlog_max", "count"),
    ("sm-routing.discovery_publish_us", "us"),
    ("sm-apps.admit_ns", "ns"),
    ("sm-apps.kv_get_ns", "ns"),
    ("sm-apps.kv_put_ns", "ns"),
    ("sm-apps.forwarded_ratio", "ratio"),
    ("sm-apps.bulk_forwarded_ratio", "ratio"),
    ("sm-apps.direct_req_ns", "ns"),
    ("sm-apps.forwarded_req_ns", "ns"),
    ("sm-apps.host_step_us", "us"),
    ("sm-apps.allocs_per_req", "count"),
    ("sm-apps.world_step_us", "us"),
    ("sm-apps.world_forwarded", "count"),
    ("sm-apps.chaos_cell_ms", "ms"),
    ("sm-apps.reconfig_cell_ms", "ms"),
    ("sm-apps.split_cell_ms", "ms"),
    ("sm-core.server_down_ms", "ms"),
    ("sm-core.run_emergency_ms", "ms"),
    ("sm-core.report_load_ms", "ms"),
    ("sm-core.run_periodic_ms", "ms"),
    ("sm-core.drain_server_ms", "ms"),
    ("sm-core.drain_full_scale_ms", "ms"),
    ("sm-core.settle_ms", "ms"),
    ("sm-core.rpc_acked_us", "us"),
    ("sm-core.take_commands_us", "us"),
    ("sm-core.inflight_max", "count"),
    ("sm-core.current_map_ms", "ms"),
    ("sm-core.rpcs_per_move", "count"),
    ("sm-core.moves_per_op", "count"),
    ("sm-core.snapshot_ms", "ms"),
    ("sm-core.snapshot_bytes", "count"),
    ("sm-core.tc_review_us", "us"),
    ("sm-core.build_input_ms", "ms"),
    ("sm-allocator.plan_periodic_ms", "ms"),
    ("sm-allocator.plan_emergency_ms", "ms"),
    ("sm-solver.evals_per_plan", "count"),
    ("sm-solver.evals_per_s", "1/s"),
    ("sm-sim.engine_ns_per_event", "ns"),
    ("sm-sim.steps", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.p50_over_floor", "ratio"),
    ("bench.span_cost_ns", "ns"),
    ("bench.stage_coverage", "ratio"),
    ("bench.installer_late_p50_ms", "ms"),
    ("bench.cores", "count"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"`/`"unit"` pairs of the JSON array under `key`, in
    /// order; `why`s are skipped. Enough of a parser for a file this
    /// package owns.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect(key);
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array end")];
        let field = |object: &str, field: &str| {
            object
                .split(&format!("\"{field}\":"))
                .nth(1)
                .and_then(|rest| rest.split('"').nth(1))
                .map(str::to_string)
        };
        body.split('{')
            .skip(1)
            .map(|object| {
                (
                    field(object, "name").expect("name"),
                    field(object, "unit").unwrap_or_default(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_is_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        assert_eq!(listed(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<String> = listed(&json, "workloads")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
