//! Pieces every workload shares: the production mapping, reference
//! outputs, device and plan-cache tallies, set-up timing, and the
//! run's provenance.

use std::time::Instant;

use softmap::{ApSoftmax, ApSoftmaxRun, CacheStats, CoreError};
use softmap_ap::{EnergyModel, ExecBackend};
use softmap_softmax::{IntSoftmax, PrecisionConfig};

use crate::metrics::Report;
use crate::stats::{digest, median, Samples};
use crate::trace::{Analysis, Tracer};
use crate::Ctx;

/// Set-ups per run, at least; `setup_s` is their median. Quick set-ups
/// repeat until [`SETUP_BUDGET_S`] has passed (at most
/// [`SETUPS_MAX`] times), so the median rests on many samples. The
/// budget spans several of the host's speed swings: medians over 1 s
/// moved by ±10% within a run, over 3 s by ±3% between runs.
const SETUPS: usize = 5;
const SETUPS_MAX: usize = 400;
const SETUP_BUDGET_S: f64 = 2.5;

/// Untimed warm-up before measuring, as a share of `--seconds`.
pub const WARMUP_SHARE: f64 = 0.05;
/// Measured time of the prefill and decode loops, as a share of
/// `--seconds`; with warm-up, inputs and set-up a run takes about
/// `--seconds`.
pub const MEASURE_SHARE: f64 = 0.9;

/// The mapping as production callers build it: the paper's best
/// precision on the FastWord backend, every other setting at the
/// library default (autotuning and blocking on).
pub fn mapping() -> Result<ApSoftmax, CoreError> {
    Ok(ApSoftmax::new(PrecisionConfig::paper_best())?.with_backend(ExecBackend::FastWord))
}

pub fn spec() -> IntSoftmax {
    IntSoftmax::new(PrecisionConfig::paper_best()).expect("the paper's best precision is valid")
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Digest of probability codes and their fraction bits.
pub fn codes_digest(codes: &[u64], frac_bits: u32) -> u64 {
    digest(codes.iter().copied().chain([u64::from(frac_bits)]))
}

/// Digest of the scalar reference's output codes for `scores`.
pub fn expected_codes(sm: &IntSoftmax, scores: &[f64]) -> Result<u64, String> {
    let out = sm.run_codes(&sm.quantize(scores)).map_err(err)?;
    Ok(codes_digest(&out.codes, out.frac_bits))
}

/// Digest of a run's output codes, comparable with [`expected_codes`].
pub fn run_digest(run: &ApSoftmaxRun) -> u64 {
    codes_digest(&run.codes, run.frac_bits)
}

/// Runs `setup` repeatedly (see [`SETUPS`]), keeping the last result;
/// returns it with the median set-up time in seconds.
pub fn timed_setups<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS_MAX);
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUPS
        || (times.len() < SETUPS_MAX && start.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let t0 = Instant::now();
        let built = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    let median = median(&times);
    Ok((last.expect("at least one set-up"), median))
}

/// Per-vector device figures, exact and host-invariant.
#[derive(Debug, Default, Clone)]
pub struct DeviceTally {
    vectors: u64,
    latency_cycles: u64,
    energy_nj: f64,
    phase_cycles: [u64; 3],
    reduction_cycles: u64,
    shards: u64,
    waves: u64,
}

impl DeviceTally {
    pub fn add(&mut self, run: &ApSoftmaxRun) {
        self.vectors += 1;
        self.latency_cycles += run.latency_cycles;
        self.energy_nj += EnergyModel::nm16().energy(&run.total).total_j * 1e9;
        for step in &run.steps {
            self.phase_cycles[phase_of(step.name)] += step.stats.cycles();
        }
        self.reduction_cycles += run.reduction.cycles();
        self.shards += run.shards as u64;
        self.waves += run.waves;
    }

    pub fn latency_cycles(&self) -> u64 {
        self.latency_cycles
    }

    pub fn report(&self, r: &mut Report) {
        let n = self.vectors.max(1) as f64;
        r.set("sim_cycles_per_vector", self.latency_cycles as f64 / n);
        r.set("sim_energy_nj_per_vector", self.energy_nj / n);
        r.set("device.phase_min_cycles", self.phase_cycles[0] as f64 / n);
        r.set("device.phase_exp_cycles", self.phase_cycles[1] as f64 / n);
        r.set("device.phase_div_cycles", self.phase_cycles[2] as f64 / n);
        r.set("device.reduction_cycles", self.reduction_cycles as f64 / n);
        r.set("device.shards", self.shards as f64 / n);
        r.set("device.waves", self.waves as f64 / n);
    }
}

/// The Fig. 5 phase a dataflow step belongs to: 0 = min search and
/// stabilisation (steps 1–2), 1 = integer exponential and reduction
/// (3–14), 2 = divisor broadcast and divide (15–16). Sharded runs name
/// their staging steps `shard: ...`.
fn phase_of(step: &str) -> usize {
    match step {
        "shard: write v" | "shard: min search" => 0,
        "shard: rewrite v" => 1,
        "shard: write divisor" | "shard: write v_approx + divisor" => 2,
        _ => {
            let digits: String = step.chars().take_while(char::is_ascii_digit).collect();
            match digits.parse::<u32>() {
                Ok(1..=2) => 0,
                Ok(15..=16) => 2,
                _ => 1,
            }
        }
    }
}

/// Plan-cache counters over a window: `after - before`.
pub fn report_cache_delta(r: &mut Report, before: &CacheStats, after: &CacheStats) {
    let compiles = after.compiles - before.compiles;
    let hits = after.hits - before.hits;
    r.set("plan.compiles", compiles as f64);
    r.set("plan.hits", hits as f64);
    r.set(
        "plan.evictions",
        (after.evictions - before.evictions) as f64,
    );
    r.set(
        "plan.hit_share",
        hits as f64 / (hits + compiles).max(1) as f64,
    );
    r.set(
        "autotune.shapes_tuned",
        (after.shapes_tuned - before.shapes_tuned) as f64,
    );
    r.set(
        "autotune.candidates_scored",
        (after.candidates_scored - before.candidates_scored) as f64,
    );
    r.set(
        "autotune.wins",
        (after.tuned_wins - before.tuned_wins) as f64,
    );
}

/// Region-blocking figures of the plans a workload replays, weighted by
/// how often each length occurs. Compiled on a fresh mapping so the
/// measured mapping's cache and counters are untouched.
pub fn report_blocking(r: &mut Report, lengths: &[(usize, f64)]) -> Result<(), String> {
    let inspect = mapping().map_err(err)?;
    let (mut w_sum, mut engaged, mut regions, mut gathers, mut scatters) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(len, weight) in lengths {
        let stats = match inspect.plan(len) {
            Ok(p) => p.block_stats(),
            Err(_) => inspect.sharded_plan(len).map_err(err)?.block_stats(),
        };
        w_sum += weight;
        if let Some(b) = stats {
            engaged += weight * f64::from(u8::from(b.engaged));
            regions += weight * b.regions as f64;
            gathers += weight * b.gathers_elided as f64;
            scatters += weight * b.scatters_elided as f64;
        }
    }
    let w = if w_sum > 0.0 { w_sum } else { 1.0 };
    r.set("ap.blocked_engaged_share", engaged / w);
    r.set("ap.regions", regions / w);
    r.set("ap.gathers_elided", gathers / w);
    r.set("ap.scatters_elided", scatters / w);
    Ok(())
}

/// Layers whose self time the traced run reports (span names; `root`
/// is the request, step or layer-call span itself).
const SELF_TIMED: [(&str, &str); 10] = [
    ("root", "self_share.root"),
    ("gen.late", "self_share.gen.late"),
    ("serve.submit", "self_share.serve.submit"),
    ("serve.in_order", "self_share.serve.in_order"),
    ("serve.wait", "self_share.serve.wait"),
    ("plan.resolve", "self_share.plan.resolve"),
    ("ibert.quantize", "self_share.ibert.quantize"),
    ("mapping.execute", "self_share.mapping.execute"),
    ("par.batch", "self_share.par.batch"),
    ("bridge.apply", "self_share.bridge.apply"),
];

/// Self time per layer, the reconciliation check, and the tracing
/// overhead: the traced units' median end-to-end time over the
/// untraced ones' (the two kinds alternate within the run).
pub fn report_analysis(r: &mut Report, tr: &Tracer, untraced: &Samples, traced: &Samples) {
    let a = Analysis::of(tr.spans());
    r.set("trace.spans", tr.spans().len() as f64);
    r.set("trace.unexplained_share", a.unexplained_share());
    for (span, metric) in SELF_TIMED {
        r.set(metric, a.self_share(span));
    }
    if let (Some(u), Some(t)) = (untraced.pct(0.5), traced.pct(0.5)) {
        r.set("trace.overhead_share", (t - u) / u);
    }
    let untraced_ms = untraced.pct(0.5).unwrap_or(0.0);
    let ratio = a.children_over_untraced(untraced_ms);
    if let Some(ratio) = ratio {
        r.set("trace.children_over_untraced", ratio);
    }
    let ok = a.reconciles(untraced_ms);
    println!(
        "trace: {} roots, {:.2}% of root time unexplained by child spans \
         (tolerance {:.0}%), {} overfull spans; median traced unit's children \
         over median untraced unit {:.3} (tolerance ±{:.0}%): reconciliation {}",
        a.roots,
        a.unexplained_share() * 100.0,
        crate::trace::RECONCILE_TOLERANCE * 100.0,
        a.overfull,
        ratio.unwrap_or(f64::NAN),
        crate::trace::UNIT_TOLERANCE * 100.0,
        if ok { "passed" } else { "FAILED" }
    );
    r.checks_ok &= ok;
}

/// Replay and quantisation times from the traced calls: per length
/// class where the workload has one, and host nanoseconds per input
/// score over every traced replay.
pub fn report_replay(r: &mut Report, tr: &Tracer) {
    const CLASSES: [(usize, &str, &str); 3] = [
        (
            256,
            "mapping.execute_us.len256.p50",
            "mapping.execute_us.len256.p90",
        ),
        (
            2048,
            "mapping.execute_us.len2048.p50",
            "mapping.execute_us.len2048.p90",
        ),
        (
            16384,
            "mapping.execute_us.len16384.p50",
            "mapping.execute_us.len16384.p90",
        ),
    ];
    for (len, p50, p90) in CLASSES {
        let d = tr.durations_us("mapping.execute", Some(len));
        if let (Some(a), Some(b)) = (d.pct(0.5), d.pct(0.9)) {
            r.set(p50, a);
            r.set(p90, b);
        }
    }
    if let Some(q) = tr.durations_us("ibert.quantize", None).pct(0.5) {
        r.set("ibert.quantize_us.p50", q);
    }
    let (mut ns, mut scores) = (0u64, 0u64);
    for s in tr.spans().iter().filter(|s| s.name == "mapping.execute") {
        ns += s.dur();
        scores += u64::from(s.len);
    }
    if scores > 0 {
        r.set("mapping.ns_per_score", ns as f64 / scores as f64);
    }
}

/// Writes the run's spans under `.perfbench/` in the working
/// directory.
pub fn write_spans(tr: &Tracer, ctx: &Ctx) -> Result<(), String> {
    let path = std::path::PathBuf::from(format!(
        ".perfbench/trace-{}-seed{}.tsv",
        ctx.workload, ctx.seed
    ));
    let header = [
        format!(
            "workload={} seed={} seconds={}",
            ctx.workload, ctx.seed, ctx.seconds
        ),
        Provenance::collect().to_string(),
    ];
    tr.write_tsv(&path, &header)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "trace: {} spans written to {}",
        tr.spans().len(),
        path.display()
    );
    Ok(())
}

/// A fixed scalar-reference loop timed at the start of every run (the
/// median of three passes): a host-speed health check, reported but
/// never used to normalise a metric.
pub fn host_probe_ms() -> f64 {
    let sm = spec();
    let codes: Vec<i64> = (0..4096).map(|i| -((i * 7 % 33) as i64)).collect();
    let mut passes = [0.0; 3];
    for pass in &mut passes {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..64 {
            let out = sm
                .run_codes(std::hint::black_box(&codes))
                .expect("valid codes");
            acc = acc.wrapping_add(out.sum);
        }
        std::hint::black_box(acc);
        *pass = t0.elapsed().as_secs_f64() * 1e3;
    }
    median(&passes)
}

/// The host's CPU time counters (all CPUs, from the first line of
/// `/proc/stat`): (steal, total) in clock ticks. Steal is time the
/// hypervisor ran something else while a vCPU wanted to run.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Peak resident set size of this process, in MB (from `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Build and host facts recorded with every result.
pub struct Provenance {
    rustc: &'static str,
    rustflags: &'static str,
    nproc: usize,
    rev: String,
}

impl Provenance {
    pub fn collect() -> Self {
        // The benchmark may run from a plain export of the tree, where
        // there is no revision to record.
        let rev = if std::path::Path::new(".git").exists() {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        } else {
            None
        };
        Self {
            rustc: env!("PERFBENCH_RUSTC"),
            rustflags: env!("PERFBENCH_RUSTFLAGS"),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            rev: rev.unwrap_or_else(|| "none".into()),
        }
    }
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rustc=\"{}\" rustflags=\"{}\" target_cpu_native={} nproc={} rev={}",
            self.rustc,
            self.rustflags,
            self.rustflags.contains("target-cpu=native"),
            self.nproc,
            self.rev
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_map_to_their_phase() {
        assert_eq!(phase_of("1: write v"), 0);
        assert_eq!(phase_of("2: subtract max"), 0);
        assert_eq!(phase_of("4: multiply+shift (barrett)"), 1);
        assert_eq!(phase_of("10-11: copy, square"), 1);
        assert_eq!(phase_of("14: partial reduction"), 1);
        assert_eq!(phase_of("15: copy sum"), 2);
        assert_eq!(phase_of("16: divide"), 2);
        assert_eq!(phase_of("shard: min search"), 0);
        assert_eq!(phase_of("shard: rewrite v"), 1);
        assert_eq!(phase_of("shard: write v_approx + divisor"), 2);
    }

    #[test]
    fn mapped_run_matches_the_reference_digest() {
        let m = mapping().unwrap();
        let sm = spec();
        let mut rng = crate::gen::Rng::new(3, 0);
        for len in [64, 301, 5000] {
            let row = crate::gen::scores(&mut rng, len);
            let run = m.execute_floats(&row).unwrap();
            assert_eq!(
                run_digest(&run),
                expected_codes(&sm, &row).unwrap(),
                "len {len}"
            );
        }
    }
}
