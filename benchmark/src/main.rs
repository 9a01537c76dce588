//! miso-e2e: one run of one workload of the end-to-end benchmark.
//!
//! `miso-e2e --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]`
//!
//! `--trace 0` times whole iterations with observability off and prints
//! the end-to-end metrics; `--trace 1` runs the traced pass and prints the
//! per-layer metrics, writing its spans to `DIR/<workload>.trace.jsonl`.
//! Either way the answers are checked against the oracle, the last line of
//! standard output is one JSON object, and the exit code is 0 only when
//! every answer was right. `benchmark/run.sh` builds and drives this.

mod adapter;
mod metrics;
mod util;
mod workloads;

use metrics::Metrics;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: util::CountingAlloc = util::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    perturb_oracle: bool,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0x5EED_2014,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        perturb_oracle: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--perturb-oracle" {
            args.perturb_oracle = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse_seed(&value).ok_or_else(bad)?,
            "--seconds" => {
                args.seconds = value.parse().ok().filter(|s| *s >= 0.0).ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("miso-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workloads::SPECS.iter().find(|s| s.name == args.workload) else {
        let names: Vec<_> = workloads::SPECS.iter().map(|s| s.name).collect();
        eprintln!("miso-e2e: --workload must be one of {names:?}");
        return ExitCode::from(2);
    };

    if args.perturb_oracle && (args.trace || spec.serves()) {
        eprintln!("miso-e2e: --perturb-oracle applies to timed runs of the stream workloads");
        return ExitCode::from(2);
    }

    let (metrics, verdict) = if args.trace {
        let mut metrics = Metrics::new(metrics::PER_LAYER);
        let path = args.out.join(format!("{}.trace.jsonl", spec.name));
        let verdict = workloads::traced_run(spec, args.seed, &path, &mut metrics);
        (metrics, verdict)
    } else {
        let mut metrics = Metrics::new(metrics::END_TO_END);
        let verdict = workloads::timed_run(
            spec,
            args.seed,
            args.seconds,
            args.perturb_oracle,
            &mut metrics,
        );
        (metrics, verdict)
    };
    println!(
        "# {} seed {:#x} trace {} cores {} miso_threads {}",
        spec.name,
        args.seed,
        u8::from(args.trace),
        util::cores(),
        adapter::pool_threads()
    );
    metrics.print_table();
    for complaint in &verdict.complaints {
        eprintln!("miso-e2e: {}: {complaint}", spec.name);
    }
    let correct = verdict.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        verdict.attempted,
        verdict.failed,
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
