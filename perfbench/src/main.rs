//! Command-line entry point of the repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload quiet-pipelined --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result object (`correct`,
//! `attempted`, `failed`, `metrics`); the line before it is the host
//! block, and the lines before that are run details. A traced run also
//! writes its spans to `perfbench/out/trace-<workload>-<seed>.jsonl` and
//! prints per-span self times to standard error. A failed correctness
//! check prints the mismatch to standard error and exits with code 1
//! without a result.

use dsv_perfbench::{host, metrics, run, trace, Params, Scale, Workload};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <quiet-pipelined|fleet-zipf|remote-tcp> \
--seed <n> --seconds <n> --trace <0|1>  |  perfbench --catalogue";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                seconds = Some(s.max(1));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn write_trace(workload: Workload, seed: u64, spans: &[trace::Span]) -> std::io::Result<String> {
    let dir = Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-{seed}.jsonl", workload.name()));
    std::fs::write(&path, trace::to_jsonl(spans))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--catalogue") {
        print!("{}", metrics::catalogue_markdown());
        return ExitCode::SUCCESS;
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let params = Params {
        seed: args.seed,
        seconds: args.seconds as f64,
        scale: Scale::Full,
    };
    let cpus = host::cpus();
    let pinned = host::pin_to_one_cpu();
    let ticks = host::cpu_ticks();
    let result = run(args.workload, &params, args.trace);
    let steal = host::steal_frac(ticks, host::cpu_ticks());
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    if args.trace {
        eprintln!(
            "{:<40} {:>9} {:>14} {:>14}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (count, total, own)) in trace::by_name(&report.spans) {
            eprintln!(
                "{name:<40} {count:>9} {:>14.3} {:>14.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        match write_trace(args.workload, args.seed, &report.spans) {
            Ok(path) => eprintln!("spans written to {path}"),
            Err(e) => {
                eprintln!("perfbench: writing spans: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let details = report
        .details
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect::<Vec<_>>()
        .join(", ");
    println!("{{\"details\": {{{details}}}}}");
    println!(
        "{}",
        host::block(
            args.workload.name(),
            args.seed,
            args.seconds,
            args.trace,
            (cpus, pinned),
            steal
        )
    );
    println!(
        "{}",
        metrics::result_line(report.attempted, report.failed, &report.metrics)
    );
    ExitCode::SUCCESS
}
