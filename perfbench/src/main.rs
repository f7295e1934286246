//! End-to-end benchmark of the SoftmAP stack through its public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a few human-readable lines and, last, one JSON object with
//! the run's correctness, its attempt and failure counts, and every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). See `perfbench/README.md` for the workloads and the
//! metric-to-layer map.

mod attn_prefill;
mod common;
mod decode_growing;
mod gen;
mod metrics;
mod serve_mixed;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

/// The workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = [
    metrics::WORKLOADS[0].0,
    metrics::WORKLOADS[1].0,
    metrics::WORKLOADS[2].0,
];

/// Library knobs that would change what is measured; the benchmark
/// refuses to run under any of them.
const KNOBS: [&str; 8] = [
    "SOFTMAP_OPT",
    "SOFTMAP_THREADS",
    "SOFTMAP_RESIDENT",
    "SOFTMAP_BLOCKED",
    "SOFTMAP_STRIP",
    "SOFTMAP_AUTOTUNE",
    "SOFTMAP_SERVE_WORKERS",
    "SOFTMAP_SERVE_QUEUE",
];

/// How one run was asked to go.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Time origin of every span.
    pub epoch: Instant,
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        epoch: Instant::now(),
    })
}

/// Refuses to run under any library knob.
fn check_knobs() -> Result<(), String> {
    let set: Vec<&str> = KNOBS
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with library knobs set: {}; unset them so the \
             library runs with its defaults",
            set.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match check_knobs().and_then(|()| parse_args(&args)) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let env = common::Provenance::collect();
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} {env}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    let probe_ms = common::host_probe_ms();
    println!("perfbench: host probe {probe_ms:.3} ms (scalar reference loop; reported, never used to normalise)");
    let ticks = common::cpu_ticks();
    let result = match ctx.workload.as_str() {
        "serve_mixed" => serve_mixed::run(&ctx),
        "attn_prefill" => attn_prefill::run(&ctx),
        _ => decode_growing::run(&ctx),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    report.set("host.probe_ms", probe_ms);
    let steal = common::steal_share(ticks, common::cpu_ticks());
    report.set("host.steal_share", steal);
    println!(
        "perfbench: {:.1}% of CPU time stolen by the hypervisor during the run",
        steal * 100.0
    );
    if report.get("peak_rss_mb").is_none() {
        report.set("peak_rss_mb", common::peak_rss_mb());
    }
    report.set(
        "check.failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    match report.render(ctx.trace) {
        Ok(line) => {
            println!("{line}");
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} is not correct: {} of {} failed (checks {})",
                    ctx.workload,
                    report.failed,
                    report.attempted,
                    if report.checks_ok { "passed" } else { "failed" }
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let ctx = parse_args(&args(
            "--workload decode_growing --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (ctx.workload.as_str(), ctx.seed, ctx.seconds, ctx.trace),
            ("decode_growing", 7, 3.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload serve_mixed")).is_err());
        assert!(parse_args(&args("--workload serve_mixed --seed 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload serve_mixed --seed")).is_err());
    }
}
