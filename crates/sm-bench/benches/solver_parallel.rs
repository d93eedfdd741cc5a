//! Parallel-solver micro-benchmarks: the cost of the `ParallelSearch`
//! driver versus the sequential `LocalSearch` on the same problem.
//!
//! - `parallel_solve_*`: one full solve per worker count.
//! - `evaluator_entities_on`: the incremental per-bin entity index
//!   (O(1) slice borrow, formerly an O(n_entities) scan).
//! - `evaluator_group_key`: the cached (region, utilization band)
//!   target-group key (formerly recomputed per query).

use sm_bench::bench_function;
use sm_solver::{
    BalanceSpec, Bin, CapacitySpec, Entity, Evaluator, LocalSearch, ParallelSearch, Problem,
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

fn bench_parallel_solve() {
    let (p, specs) = build_problem(100, 75);
    bench_function("sequential_solve_100x75", || {
        let solver = LocalSearch::new(SearchConfig {
            seed: 3,
            ..Default::default()
        });
        std::hint::black_box(solver.solve(&p, &specs));
    });
    for threads in [2usize, 8] {
        bench_function(&format!("parallel_solve_{threads}w_100x75"), || {
            let solver = ParallelSearch::new(SearchConfig {
                seed: 3,
                threads,
                ..Default::default()
            });
            std::hint::black_box(solver.solve(&p, &specs));
        });
    }
}

fn bench_hot_path_indexes() {
    let (p, specs) = build_problem(200, 75);
    let eval = Evaluator::new(&p, &specs, u8::MAX);
    let mut i = 0usize;
    bench_function("evaluator_entities_on", || {
        i = (i * 31 + 7) % p.bin_count();
        std::hint::black_box(eval.entities_on(sm_solver::BinId(i)).len());
    });
    let mut j = 0usize;
    bench_function("evaluator_group_key", || {
        j = (j * 131 + 13) % p.bin_count();
        std::hint::black_box(eval.target_group_key(sm_solver::BinId(j)));
    });
}

fn main() {
    bench_parallel_solve();
    bench_hot_path_indexes();
}
