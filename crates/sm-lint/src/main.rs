//! CLI driver: `cargo run -p sm-lint [-- --format json] [--root PATH]`.
//!
//! Exits 0 when the workspace has zero unwaived violations, 1
//! otherwise (and 2 on usage/IO errors).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut format_json = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("json") => format_json = true,
                Some("text") => format_json = false,
                other => {
                    eprintln!("sm-lint: unknown format {other:?} (want text|json)");
                    return ExitCode::from(2);
                }
            },
            "--json" => format_json = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("sm-lint: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "sm-lint: workspace determinism & robustness lints\n\
                     usage: sm-lint [--format text|json] [--root PATH]\n\
                     line rules:  D1 sim-time-only  D2 seeded-RNG-only  D3 ordered-iteration\n             \
                     D4 no-literal-seeds  R1 no-panic-control-plane\n             \
                     R2 no-silent-discards  R3 no-dropped-watch-events\n\
                     graph rules: P1 panic-reachability  L1 lock-order-cycles\n             \
                     D5 transitive-wall-clock  R4 hot-path-locks  W1 stale-waivers\n             \
                     U1 closed-public-surface\n\
                     waiver:  // sm-lint: allow(D3) — justification"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("sm-lint: unknown argument {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    // Default root: the workspace this binary was built from, so
    // `cargo run -p sm-lint` works from any subdirectory.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    });

    let report = match sm_lint::lint_workspace(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("sm-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if format_json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
