//! Solver micro-benchmarks: the costs §5.3 is about.
//!
//! - `penalty_leaf_update`: one O(1) objective update (a leaf and the
//!   maintained sum).
//! - `eval_move`: one incremental move evaluation.
//! - `local_search_75_per_server`: a full solve at the paper's 75:1
//!   shard/server ratio (small scale).
//! - `greedy_place`: the hand-crafted-heuristic baseline on the same
//!   problem.

use sm_bench::bench_function;
use sm_solver::penalty_tree::PenaltyTree;
use sm_solver::{
    baseline, BalanceSpec, Bin, CapacitySpec, Entity, Evaluator, LocalSearch, Problem,
    SearchConfig, Spec, SpecSet, UtilizationCapSpec,
};
use sm_types::{LoadVector, Location, MachineId, Metric, RegionId};

fn cpu(v: f64) -> LoadVector {
    LoadVector::single(Metric::Cpu.id(), v)
}

fn loc(i: u32) -> Location {
    Location {
        region: RegionId((i % 3) as u16),
        datacenter: i % 3,
        rack: i / 2,
        machine: MachineId(i),
    }
}

fn build_problem(servers: u32, shards_per_server: u32) -> (Problem, SpecSet) {
    let mut p = Problem::new();
    for i in 0..servers {
        p.add_bin(Bin {
            capacity: cpu(shards_per_server as f64 * 2.0),
            location: loc(i),
            draining: false,
        });
    }
    let n = servers * shards_per_server;
    for i in 0..n {
        // Everything starts on the first 10% of servers: heavy skew.
        p.add_entity(
            Entity {
                load: cpu(1.0),
                group: None,
            },
            Some(sm_solver::BinId((i % (servers / 10).max(1)) as usize)),
        );
    }
    let mut specs = SpecSet::new();
    specs.add_constraint(CapacitySpec {
        metric: Metric::Cpu.id(),
    });
    specs.add_goal(Spec::UtilizationCap(UtilizationCapSpec {
        metric: Metric::Cpu.id(),
        threshold: 0.9,
        weight: 2.0,
        priority: 0,
    }));
    specs.add_goal(Spec::Balance(BalanceSpec {
        metric: Metric::Cpu.id(),
        tolerance: 0.1,
        weight: 1.0,
        priority: 1,
    }));
    (p, specs)
}

fn bench_penalty_tree() {
    let mut tree = PenaltyTree::new(4096);
    for i in 0..4096 {
        tree.set(i, (i % 17) as f64);
    }
    let mut i = 0usize;
    bench_function("penalty_leaf_update_4096", || {
        i = (i * 31 + 7) % 4096;
        tree.set(i, (i % 13) as f64);
        std::hint::black_box(tree.total());
    });
}

fn bench_eval_move() {
    let (p, specs) = build_problem(200, 75);
    let eval = Evaluator::new(&p, &specs, u8::MAX);
    let mut i = 0usize;
    bench_function("eval_move_15k_entities", || {
        i = (i * 131 + 13) % p.entity_count();
        let target = sm_solver::BinId((i * 7) % p.bin_count());
        std::hint::black_box(eval.eval_move(sm_solver::EntityId(i), target));
    });
}

fn bench_local_search() {
    for servers in [50u32, 100] {
        let (p, specs) = build_problem(servers, 75);
        bench_function(&format!("local_search_solve_{servers}x75"), || {
            let solver = LocalSearch::new(SearchConfig {
                seed: 3,
                ..Default::default()
            });
            std::hint::black_box(solver.solve(&p, &specs));
        });
    }
}

fn bench_greedy() {
    let (p, specs) = build_problem(100, 75);
    bench_function("greedy_place_7500", || {
        std::hint::black_box(baseline::greedy_place(&p, &specs));
    });
}

fn main() {
    bench_penalty_tree();
    bench_eval_move();
    bench_local_search();
    bench_greedy();
}
