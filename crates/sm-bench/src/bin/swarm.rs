//! Seed-swarm DST runner: explores `(seed, fault profile)` grid cells,
//! shrinks any failure to a minimal reproducer, and emits it as
//! replayable JSON.
//!
//! ```text
//! swarm [--world chaos|reconfig|split] [--seeds N] [--start-seed S]
//!       [--profiles a,b,c] [--threads T] [--mutate] [--out DIR]
//!       [--replay FILE]
//! ```
//!
//! - Default grid: seeds `S..S+N` (N = 8) across every fault profile.
//! - `--world` picks the scenario the kit runs (`sm_apps::kit`): the
//!   ZooKeeper-backed chaos world (default), the joint-consensus
//!   reconfiguration world, or the skew-storm adaptive-sharding world.
//!   Everything below is one generic path over `Scenario`.
//! - `--mutate` enables the world's documented mutation — disabled
//!   §3.2 self-fencing (chaos), single-step membership swaps
//!   (reconfig), commit-at-cutover-send (split) — to demonstrate the
//!   oracle catching real violations and the shrinker reducing them.
//! - `--replay FILE` re-runs one reproducer JSON (as emitted by a
//!   failing swarm) and reports its oracle verdict. The file itself
//!   names the world it reproduces.
//!
//! Exit status: 0 when every cell is violation-free, 1 otherwise.

use sm_apps::kit::{repro_from_json, repro_to_json, run, run_grid, shrink, Scenario};
use sm_apps::{Chaos, Reconfig, Split};
use sm_sim::faults::FaultProfile;
use std::fmt::Debug;
use std::process::ExitCode;

struct Args {
    world: String,
    seeds: u64,
    start_seed: u64,
    profiles: Vec<FaultProfile>,
    threads: usize,
    mutate: bool,
    out: Option<String>,
    replay: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        world: Chaos::WORLD.to_string(),
        seeds: 8,
        start_seed: 0,
        profiles: FaultProfile::ALL.to_vec(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        mutate: false,
        out: None,
        replay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--world" => args.world = val("--world")?,
            "--seeds" => args.seeds = val("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--start-seed" => {
                args.start_seed = val("--start-seed")?.parse().map_err(|e| format!("{e}"))?
            }
            "--profiles" => {
                args.profiles = val("--profiles")?
                    .split(',')
                    .map(|s| FaultProfile::parse(s).ok_or(format!("unknown profile: {s}")))
                    .collect::<Result<_, _>>()?;
            }
            "--threads" => args.threads = val("--threads")?.parse().map_err(|e| format!("{e}"))?,
            "--mutate" => args.mutate = true,
            "--out" => args.out = Some(val("--out")?),
            "--replay" => args.replay = Some(val("--replay")?),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

/// Replays `text` if it is one of `S`'s reproducers.
fn replay_as<S: Scenario>(text: &str) -> Option<ExitCode> {
    let (cfg, plan) = repro_from_json::<S>(text)?;
    let (profile, mutated) = S::key(&cfg);
    println!(
        "replaying world={} seed={} profile={profile} mutation={mutated} ({} fault events)",
        S::WORLD,
        S::params(&cfg).seed,
        plan.len()
    );
    let report = run::<S>(cfg, Some(plan));
    print!("{}", report.verdict());
    Some(if report.failed() {
        ExitCode::FAILURE
    } else {
        println!("reproducer no longer fails");
        ExitCode::SUCCESS
    })
}

fn replay(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("swarm: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The reproducer names its world (documents older than the tag are
    // told apart by their mutation flag).
    replay_as::<Chaos>(&text)
        .or_else(|| replay_as::<Reconfig>(&text))
        .or_else(|| replay_as::<Split>(&text))
        .unwrap_or_else(|| {
            eprintln!("swarm: {path} is not a reproducer JSON");
            ExitCode::FAILURE
        })
}

fn swarm<S: Scenario>(args: &Args) -> ExitCode
where
    S::Config: Debug,
{
    let seeds = args.start_seed..args.start_seed + args.seeds;
    let jobs: Vec<S::Config> = args
        .profiles
        .iter()
        .flat_map(|&profile| {
            let cell = move |seed| S::cell(seed, profile, args.mutate);
            seeds.clone().map(cell)
        })
        .collect();
    println!(
        "swarm: world={}, {} cells ({} seeds x {} profiles), {} threads{}",
        S::WORLD,
        jobs.len(),
        args.seeds,
        args.profiles.len(),
        args.threads,
        if args.mutate {
            format!(", MUTATION {} ON", S::MUTATION)
        } else {
            String::new()
        }
    );

    let reports = run_grid::<S>(&jobs, args.threads);
    let mut failures = 0usize;
    for (cfg, report) in jobs.iter().zip(&reports) {
        let (seed, profile) = (S::params(cfg).seed, S::key(cfg).0);
        let tag = format!("seed={seed:<4} profile={profile:<14}");
        if !report.failed() {
            println!("  ok   {tag} {:?}", report.stats);
            continue;
        }
        failures += 1;
        println!(
            "  FAIL {tag} {} violation(s): {:?}",
            report.total_violations,
            report.violated_kinds()
        );
        // Shrink the failing plan to a minimal reproducer.
        let original = &report.plan;
        let minimal = shrink::<S>(*cfg, original).unwrap_or_else(|| original.clone());
        println!(
            "       shrunk {} -> {} fault events",
            original.len(),
            minimal.len()
        );
        let json = repro_to_json::<S>(cfg, &minimal);
        match &args.out {
            Some(dir) => {
                let file = format!("{dir}/repro-{}-{profile}-{seed}.json", S::WORLD);
                if let Err(e) =
                    std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, &json))
                {
                    eprintln!("swarm: writing {file}: {e}");
                } else {
                    println!("       reproducer: {file}");
                }
            }
            None => print!("{json}"),
        }
    }
    println!(
        "swarm: {}/{} cells violation-free",
        reports.len() - failures,
        reports.len()
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swarm: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.replay {
        return replay(path);
    }
    match args.world.as_str() {
        Chaos::WORLD => swarm::<Chaos>(&args),
        Reconfig::WORLD => swarm::<Reconfig>(&args),
        Split::WORLD => swarm::<Split>(&args),
        other => {
            eprintln!("swarm: unknown world: {other}");
            ExitCode::FAILURE
        }
    }
}
