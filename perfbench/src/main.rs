//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the repository root, prints a header, every
//! metric by name and unit, and as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.  Exits 0 only when every
//! output check passed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::sysinfo;
use perfbench::workloads::{self, Outcome, Sizes, Workload};

/// Scratch space for the serve store and the span file, inside the
/// checkout (the directory the build already writes to).
const WORK_DIR: &str = ".bench_build/perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds must lie in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let sizes = Sizes::standard(args.workload);
    let stores = work.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&stores).map_err(|e| format!("creating {}: {e}", stores.display()))?;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# isa={} cores={} rustc=\"{}\" commit={} store_fs={}",
        sysinfo::isa(),
        sysinfo::cores(),
        sysinfo::rustc(),
        sysinfo::commit(),
        sysinfo::filesystem(&stores)
    );
    // Start the process-wide pool before timing: users pay that once per
    // process, not per run.
    nnbo_pool::WorkerPool::global();
    let outcome = if args.trace {
        let spans = work.join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
        workloads::run_traced(
            args.workload,
            &sizes,
            args.seed,
            args.seconds,
            &stores,
            &spans,
        )
    } else {
        workloads::run_untraced(args.workload, &sizes, args.seed, args.seconds, &stores)
    };
    std::fs::remove_dir_all(&stores).map_err(|e| format!("removing {}: {e}", stores.display()))?;
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(|w| w.name()).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(WORK_DIR);
    let outcome = match run(&args, &work) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("{:<32} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for problem in &outcome.problems {
        println!("CHECK FAILED: {problem}");
    }
    println!("{}", result_json(&outcome));
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
