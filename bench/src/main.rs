//! The repo benchmark: one process, one workload per run.
//!
//! `sm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints every metric of the run by name with its unit and, as the
//! last line, one JSON object. See `README.md` for the workloads, the
//! metrics and the timing estimator.

mod control;
mod host;
mod metrics;
mod serve;
mod stats;
mod trace;
mod world;

use std::collections::BTreeMap;
use std::time::Duration;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// The command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut argv = std::env::args().skip(1);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            flags.insert(flag, value);
        }
        let mut take = |flag: &str| flags.remove(flag).ok_or(format!("missing {flag}"));
        let args = Args {
            workload: take("--workload")?,
            seed: take("--seed")?
                .parse()
                .map_err(|e| format!("--seed: {e}"))?,
            seconds: take("--seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?,
            trace: match take("--trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace {other}: expected 0 or 1")),
            },
        };
        if let Some(unknown) = flags.keys().next() {
            return Err(format!("unknown flag {unknown}"));
        }
        if !(args.seconds > 0.0 && args.seconds <= 600.0) {
            return Err(format!("--seconds {}: out of range", args.seconds));
        }
        Ok(args)
    }

    /// Time for the untraced replays: all of it, or half in a traced run.
    pub fn untraced_seconds(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }

    /// Time for the traced replays of a traced run.
    pub fn traced_seconds(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 2.0)
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Failed correctness, determinism or non-vacuity checks.
    problems: Vec<String>,
    notes: Vec<String>,
    pub tracer: Option<trace::Tracer>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            metrics::unit_of(name).is_some(),
            "unregistered metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    pub fn note(&mut self, what: String) {
        self.notes.push(what);
    }
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "serve_steady" => serve::steady(args),
        "serve_churn" => serve::churn(args),
        "control_failover" => control::run(args, control::Kind::Failover),
        "control_rebalance" => control::run(args, control::Kind::Rebalance),
        "control_drain" => control::run(args, control::Kind::Drain),
        "world_upgrade" => world::run(args),
        other => Err(format!(
            "unknown workload {other}; one of {}",
            metrics::WORKLOADS.join(", ")
        )),
    }
}

fn main() -> std::process::ExitCode {
    let (args, mut report) = match Args::parse().and_then(|a| run(&a).map(|r| (a, r))) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("sm-perfbench: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    match host::peak_rss_after_first_replay() {
        Ok(mib) => report.set("peak_rss_mb", mib),
        Err(e) => report.problem(e),
    }
    report.set("bench.cores", host::cores() as f64);
    if let Some(tracer) = &report.tracer {
        let path = format!("bench/out/trace-{}.json", args.workload);
        match tracer.write_json(std::path::Path::new(&path)) {
            Ok(()) => report.note(format!("trace written to {path}")),
            Err(e) => report.problem(format!("{path}: {e}")),
        }
    }
    if report.failed > 0 {
        report.problem(format!(
            "{} of {} operations failed",
            report.failed, report.attempted
        ));
    }

    println!(
        "# workload={} seed={} seconds={} trace={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::cores()
    );
    for note in &report.notes {
        println!("# {note}");
    }
    if report.values.get("bench.p50_over_floor").copied() > Some(1.5) {
        println!("# noisy_host: raw-sample medians are over 1.5x the replay floors");
    }
    let printed = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let mut json = Vec::new();
    for &(name, unit) in printed {
        // A layer a workload does not enter reads 0.
        let value = match report.values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                report.problem(format!("{name} is {v}"));
                0.0
            }
            None if args.trace => 0.0,
            None => {
                report.problem(format!("{name} was not measured"));
                0.0
            }
        };
        println!("{name} {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for problem in &report.problems {
        println!("# FAILED CHECK: {problem}");
    }
    let correct = report.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        json.join(", ")
    );
    if correct {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
