//! The baseline solver used as a comparison point: [`greedy_place`],
//! first-fit-decreasing onto the least-utilized feasible bin — the kind
//! of hand-crafted heuristic the paper's allocator used before switching
//! to a constraint solver (§5.2). (The exhaustive optimum local search is
//! tested against lives in this file's test module.)

use crate::eval::Evaluator;
use crate::problem::{BinId, EntityId, Problem};
use crate::specs::SpecSet;
use sm_types::{MetricId, METRIC_COUNT};

/// Greedily assigns every entity (placed or not) from scratch:
/// descending by total load, each onto the feasible bin with the lowest
/// maximum utilization. Returns `None` placements where no bin fits.
pub fn greedy_place(problem: &Problem, specs: &SpecSet) -> Vec<Option<BinId>> {
    // Start from an empty assignment.
    let empty = vec![None; problem.entity_count()];
    let mut eval = Evaluator::with_assignment(problem, specs, u8::MAX, &empty);

    let mut order: Vec<usize> = (0..problem.entity_count()).collect();
    let total_load = |e: usize| -> f64 {
        let load = &problem.entities()[e].load;
        (0..METRIC_COUNT).map(|m| load.get(MetricId(m))).sum()
    };
    order.sort_by(|&a, &b| {
        total_load(b)
            .partial_cmp(&total_load(a))
            .expect("loads are finite")
    });

    for e in order {
        let entity = EntityId(e);
        let mut best: Option<(f64, BinId)> = None;
        for b in 0..problem.bin_count() {
            let bin = BinId(b);
            if eval.violates_hard(entity, bin) {
                continue;
            }
            let util = eval
                .usage_of(bin)
                .max_utilization(&problem.bin(bin).capacity);
            if best.map(|(u, _)| util < u).unwrap_or(true) {
                best = Some((util, bin));
            }
        }
        if let Some((_, bin)) = best {
            eval.apply_move(entity, bin);
        }
    }
    eval.assignment()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Bin, Entity};
    use crate::search::{LocalSearch, SearchConfig};
    use crate::specs::{BalanceSpec, CapacitySpec, ExclusionSpec, Scope, Spec};
    use sm_types::{LoadVector, Location, MachineId, Metric, RegionId};

    /// Exhaustively finds the minimum-penalty assignment for a tiny problem.
    ///
    /// Returns `(assignment, penalty)`. The reference local search is
    /// compared against.
    ///
    /// # Panics
    ///
    /// Panics if `bins^entities` exceeds one million combinations.
    fn optimal_tiny(problem: &Problem, specs: &SpecSet) -> (Vec<Option<BinId>>, f64) {
        let n_e = problem.entity_count();
        let n_b = problem.bin_count();
        let combos = (n_b as f64).powi(n_e as i32);
        assert!(
            combos <= 1e6,
            "optimal_tiny is for tiny problems only ({combos} combos)"
        );
        let mut best_pen = f64::INFINITY;
        let mut best: Vec<Option<BinId>> = vec![None; n_e];
        let mut counter = vec![0usize; n_e];
        loop {
            let assignment: Vec<Option<BinId>> = counter.iter().map(|&b| Some(BinId(b))).collect();
            let eval = Evaluator::with_assignment(problem, specs, u8::MAX, &assignment);
            // Hard constraints: skip infeasible assignments.
            if eval.violations().capacity == 0 {
                let pen = eval.total_penalty();
                if pen < best_pen {
                    best_pen = pen;
                    best = assignment;
                }
            }
            // Increment the mixed-radix counter.
            let mut i = 0;
            loop {
                if i == n_e {
                    return (best, best_pen);
                }
                counter[i] += 1;
                if counter[i] < n_b {
                    break;
                }
                counter[i] = 0;
                i += 1;
            }
        }
    }

    fn cpu(v: f64) -> LoadVector {
        LoadVector::single(Metric::Cpu.id(), v)
    }

    fn loc(region: u16, machine: u32) -> Location {
        Location {
            region: RegionId(region),
            datacenter: u32::from(region),
            rack: machine,
            machine: MachineId(machine),
        }
    }

    fn small_problem() -> (Problem, SpecSet) {
        let mut p = Problem::new();
        for m in 0..3 {
            p.add_bin(Bin {
                capacity: cpu(10.0),
                location: loc(m as u16 % 2, m),
                draining: false,
            });
        }
        let g = p.new_group();
        p.add_entity(
            Entity {
                load: cpu(6.0),
                group: Some(g),
            },
            None,
        );
        p.add_entity(
            Entity {
                load: cpu(6.0),
                group: Some(g),
            },
            None,
        );
        p.add_entity(
            Entity {
                load: cpu(3.0),
                group: None,
            },
            None,
        );
        p.add_entity(
            Entity {
                load: cpu(3.0),
                group: None,
            },
            None,
        );
        let mut specs = SpecSet::new();
        specs.add_constraint(CapacitySpec {
            metric: Metric::Cpu.id(),
        });
        specs.add_goal(Spec::Balance(BalanceSpec {
            metric: Metric::Cpu.id(),
            tolerance: 0.1,
            weight: 1.0,
            priority: 0,
        }));
        specs.add_goal(Spec::Exclusion(ExclusionSpec {
            scope: Scope::Region,
            groups: vec![g],
            weight: 3.0,
            priority: 0,
        }));
        (p, specs)
    }

    #[test]
    fn greedy_respects_hard_constraints() {
        let (p, specs) = small_problem();
        let assignment = greedy_place(&p, &specs);
        assert!(assignment.iter().all(Option::is_some));
        let eval = Evaluator::with_assignment(&p, &specs, u8::MAX, &assignment);
        assert_eq!(eval.violations().capacity, 0);
    }

    #[test]
    fn greedy_leaves_oversized_entities_unplaced() {
        let mut p = Problem::new();
        p.add_bin(Bin {
            capacity: cpu(5.0),
            location: loc(0, 0),
            draining: false,
        });
        p.add_entity(
            Entity {
                load: cpu(9.0),
                group: None,
            },
            None,
        );
        let mut specs = SpecSet::new();
        specs.add_constraint(CapacitySpec {
            metric: Metric::Cpu.id(),
        });
        let assignment = greedy_place(&p, &specs);
        assert_eq!(assignment[0], None);
    }

    #[test]
    fn local_search_matches_brute_force_optimum() {
        let (p, specs) = small_problem();
        let (_, best_pen) = optimal_tiny(&p, &specs);
        let solver = LocalSearch::new(SearchConfig {
            seed: 23,
            ..Default::default()
        });
        let (_, stats) = solver.solve(&p, &specs);
        assert!(
            stats.final_penalty <= best_pen + 1e-9,
            "local search {} vs optimum {best_pen}",
            stats.final_penalty
        );
    }

    #[test]
    fn greedy_is_no_worse_than_random_on_penalty() {
        let (p, specs) = small_problem();
        let greedy = greedy_place(&p, &specs);
        let eval_g = Evaluator::with_assignment(&p, &specs, u8::MAX, &greedy);
        // Random-ish: everything on bin 0 (infeasible load ignored for
        // comparison of soft penalty only).
        let all_zero: Vec<Option<BinId>> = vec![Some(BinId(0)); p.entity_count()];
        let eval_r = Evaluator::with_assignment(&p, &specs, u8::MAX, &all_zero);
        assert!(eval_g.total_penalty() <= eval_r.total_penalty());
    }
}
