//! The repository benchmark.
//!
//! ```text
//! polybench --workload <discover|serve|cold-probe> --seed <n> --seconds <s>
//!           --trace <0|1> --store-bin <path to polygamy-store>
//! ```
//!
//! Generates every input from the seed, sets up the store, runs the
//! workload for at least `--seconds`, checks every answer against its
//! reference and prints, as the last line of standard output, one JSON
//! object: `correct`, `attempted`, `failed` and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! The line before it holds the host and corpus facts. A traced run also
//! writes its spans to `.polybench/traces/`. The exit code is 0 only when
//! every answer matched. See `polybench/README.md`.

mod common;
mod discover;
mod gen;
mod inproc;
mod probe;
mod serve;
mod setup;
mod trace;

use common::{Ctx, Report};
use polygamy_mapreduce::Cluster;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// The largest share of a workload's wall time its layers may leave
/// unaccounted for before the traced run fails (on `serve`, also the
/// largest share by which they may overshoot it).
pub const MAX_UNATTRIBUTED: f64 = 0.05;

/// A run that has not finished by then is stuck (a hung daemon or a
/// deadlock): the watchdog stops the daemon and exits without a result.
const WATCHDOG: Duration = Duration::from_secs(170);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("setup") {
        return setup::child_main(&args[1..]);
    }
    let ctx = match parse(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("polybench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = ctx.work.clone();
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG);
        eprintln!("polybench: no result after {WATCHDOG:?}; giving up");
        let pid = setup::DAEMON_PID.load(Ordering::Relaxed);
        if pid != 0 {
            let _ = std::process::Command::new("kill")
                .arg(pid.to_string())
                .status();
        }
        let _ = std::fs::remove_dir_all(&work);
        std::process::exit(3);
    });
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("polybench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::from(2);
    }
    let result = match ctx.workload.as_str() {
        "discover" => discover::run(&ctx),
        "serve" => serve::run(&ctx),
        "cold-probe" => probe::run(&ctx),
        other => Err(format!("unknown workload `{other}`")),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    match result {
        Ok(mut report) => {
            host_facts(&ctx, &mut report);
            if ctx.traced {
                let dir = Path::new(".polybench/traces");
                let path = dir.join(format!("{}-seed{}.jsonl", ctx.workload, ctx.seed));
                if let Err(e) = std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(&path, ctx.tracer.to_jsonl()))
                {
                    eprintln!("polybench: cannot write {}: {e}", path.display());
                }
            }
            println!("{}", report.facts_json());
            println!("{}", report.result_json());
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("polybench: {}: {e}", ctx.workload);
            ExitCode::from(2)
        }
    }
}

fn parse(args: &[String]) -> Result<Ctx, String> {
    let flag = |name: &str| -> Result<String, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {name}"))
    };
    let number = |name: &str| -> Result<u64, String> {
        flag(name)?
            .parse()
            .map_err(|_| format!("{name} expects a whole number"))
    };
    Ok(Ctx {
        workload: flag("--workload")?,
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        traced: number("--trace")? == 1,
        store_bin: PathBuf::from(flag("--store-bin")?),
        work: PathBuf::from(format!(".polybench/run-{}", std::process::id())),
        tracer: trace::Tracer::new(),
    })
}

/// Host facts that go with every result: cores, workers, toolchain,
/// commit, seed.
fn host_facts(ctx: &Ctx, report: &mut Report) {
    let quote = |s: &str| format!("{:?}", s);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.fact("workload", quote(&ctx.workload));
    report.fact("seed", ctx.seed);
    report.fact("seconds", ctx.seconds);
    report.fact("traced", ctx.traced);
    report.fact("nproc", nproc);
    report.fact("workers", Cluster::host().workers());
    report.fact(
        "polygamy_workers",
        quote(&std::env::var("POLYGAMY_WORKERS").unwrap_or_default()),
    );
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    report.fact("rustc", quote(&rustc));
    report.fact("commit", quote(&git_commit()));
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run from an export that has none.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}
