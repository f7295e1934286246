//! `attn_prefill`: LLM prefill attention through the harness adapter.
//!
//! One unit is one attention head of one Llama2-7B layer in a prefill
//! step that serves one 2048-token prompt and eight 256-token prompts:
//! the softmax rows `SoftmaxWorkload::prefill` gives that head, in one
//! `apply_batch_parallel` call. Rows of 2048 scores fill the deployment tile,
//! where strip blocking engages; rows of 256 are too small a tile for
//! it. All shapes are warmed in set-up, so this is pure replay
//! throughput.

use std::time::Instant;

use softmap::{ApMappedSoftmax, ApSoftmaxRun, TileState};
use softmap_llm::configs::{llama2_7b, SoftmaxWorkload};
use softmap_llm::softmax_impls::{apply_batch_parallel, SoftmaxFn, SoftmaxScratch};

use crate::common::{self, err, DeviceTally};
use crate::gen::{self, Rng};
use crate::metrics::Report;
use crate::stats::{digest, Samples};
use crate::trace::{Tracer, ROOT, UNIT};
use crate::Ctx;

/// The prompts of the prefill step: (tokens, prompts), longest first.
pub const PROMPTS: [(usize, usize); 2] = [(2048, 1), (256, 8)];
/// The set-up's first call runs one of every this many of a unit's
/// rows.
const SETUP_SAMPLE: usize = 16;
/// Distinct units of inputs; the run cycles through them.
const POOL_UNITS: usize = 2;
/// Units an untraced run measures at least, however slow the
/// host: its p90 needs 100.
const MIN_UNITS: usize = 120;
const BRIDGE_LEN: usize = 2048;
/// Rows per length class the traced run's probes time after each
/// traced unit (enough samples for a p90 per class).
const PROBE_ROWS: usize = 4;

/// One unit's rows per length class: (row length, rows), from
/// `SoftmaxWorkload::prefill`'s count of one head's softmax vectors.
pub fn classes() -> Vec<(usize, usize)> {
    PROMPTS
        .iter()
        .map(|&(tokens, prompts)| {
            let w = SoftmaxWorkload::prefill(&llama2_7b(), tokens, prompts);
            (w.vector_len, w.vectors_per_head_layer)
        })
        .collect()
}

struct Inputs {
    units: Vec<Vec<Vec<f32>>>,
    /// Reference digests of each row's probabilities as the adapter
    /// returns them, and of its codes.
    expect_probs: Vec<Vec<u64>>,
    expect_codes: Vec<Vec<u64>>,
}

fn widen(row: &[f32]) -> Vec<f64> {
    row.iter().map(|&s| f64::from(s)).collect()
}

fn probs_digest(probs: &[f32]) -> u64 {
    digest(probs.iter().map(|p| u64::from(p.to_bits())))
}

impl Inputs {
    fn new(seed: u64) -> Result<Self, String> {
        let classes = classes();
        let mut rng = Rng::new(seed, 0x9EF1);
        let sm = common::spec();
        let mut inputs = Self {
            units: Vec::new(),
            expect_probs: Vec::new(),
            expect_codes: Vec::new(),
        };
        for _ in 0..POOL_UNITS {
            let (mut rows, mut probs, mut codes) = (Vec::new(), Vec::new(), Vec::new());
            for &(len, n) in &classes {
                for _ in 0..n {
                    let row: Vec<f32> = gen::scores(&mut rng, len)
                        .iter()
                        .map(|&s| s as f32)
                        .collect();
                    let out = sm.run_codes(&sm.quantize(&widen(&row))).map_err(err)?;
                    let scale = f64::from(out.frac_bits).exp2().recip();
                    let p: Vec<f32> = out
                        .codes
                        .iter()
                        .map(|&c| (c as f64 * scale) as f32)
                        .collect();
                    probs.push(probs_digest(&p));
                    codes.push(common::codes_digest(&out.codes, out.frac_bits));
                    rows.push(row);
                }
            }
            inputs.units.push(rows);
            inputs.expect_probs.push(probs);
            inputs.expect_codes.push(codes);
        }
        Ok(inputs)
    }
}

/// Set-up: the adapter, its shapes warmed, and one first call over a
/// sample of a unit's rows (`rows`, every [`SETUP_SAMPLE`]-th).
fn setup(rows: &[Vec<f32>]) -> Result<ApMappedSoftmax, String> {
    let sm = ApMappedSoftmax::new(softmap_softmax::PrecisionConfig::paper_best()).map_err(err)?;
    let shapes: Vec<usize> = PROMPTS.iter().map(|&(tokens, _)| tokens).collect();
    sm.mapping().warmup(&shapes).map_err(err)?;
    apply_batch_parallel(&sm, rows)?;
    Ok(sm)
}

/// The bench thread's own tile and buffers for the traced probes.
struct Probe {
    tile: TileState,
    run: ApSoftmaxRun,
    codes: Vec<i64>,
    scratch: SoftmaxScratch,
}

impl Probe {
    /// Per length class: quantise and replay [`PROBE_ROWS`] rows of the
    /// unit as separate calls, on a tile warmed by the first; at
    /// [`BRIDGE_LEN`] also the adapter call and the mapping call it
    /// wraps, on the same rows.
    fn run(
        &mut self,
        sm: &ApMappedSoftmax,
        classes: &[(usize, usize)],
        unit: &[Vec<f32>],
        k: u64,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let m = sm.mapping();
        let mut first = 0;
        for &(len, n) in classes {
            let rows = &unit[first..first + PROBE_ROWS];
            first += n;
            // Untimed: the tile last held the other length class, and
            // the batch workers' tiles hold theirs.
            m.execute_floats_into(&mut self.tile, &widen(&rows[0]), &mut self.run)
                .map_err(err)?;
            for row32 in rows {
                let row = widen(row32);
                let root = tr.open("probe", ROOT, k, len);
                let codes = &mut self.codes;
                tr.span("ibert.quantize", root, k, len, || {
                    m.spec().quantize_into(&row, codes)
                });
                let (tile, run) = (&mut self.tile, &mut self.run);
                tr.span("mapping.execute", root, k, len, || {
                    m.execute_codes_into(tile, codes, run)
                })
                .map_err(err)?;
                tr.close(root);
                if len == BRIDGE_LEN {
                    let root = tr.open("probe", ROOT, k, len);
                    let scratch = &mut self.scratch;
                    tr.span("bridge.apply", root, k, len, || {
                        sm.apply_scratch(row32, scratch)
                    })?;
                    tr.span("mapping.execute_floats", root, k, len, || {
                        m.execute_floats_into(tile, &row, run)
                    })
                    .map_err(err)?;
                    tr.close(root);
                }
            }
        }
        Ok(())
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let classes = classes();
    let inputs = Inputs::new(ctx.seed)?;
    let sample: Vec<Vec<f32>> = inputs.units[0]
        .iter()
        .step_by(SETUP_SAMPLE)
        .cloned()
        .collect();
    let (sm, setup_s) = common::timed_setups(|| setup(&sample))?;
    let mut r = Report::new();
    r.set("setup_s", setup_s);

    // Device figures of one pass over the unit pool, from inline runs
    // on the same mapping; they double as a check of the mapping's
    // codes against the reference.
    let mut device = DeviceTally::default();
    let mut probe = Probe {
        tile: TileState::new(),
        run: ApSoftmaxRun::default(),
        codes: Vec::new(),
        scratch: SoftmaxScratch::default(),
    };
    for (unit, expect) in inputs.units.iter().zip(&inputs.expect_codes) {
        for (row, &want) in unit.iter().zip(expect) {
            sm.mapping()
                .execute_floats_into(&mut probe.tile, &widen(row), &mut probe.run)
                .map_err(err)?;
            device.add(&probe.run);
            if common::run_digest(&probe.run) != want {
                r.checks_ok = false;
            }
        }
    }

    let rows_per_unit: usize = classes.iter().map(|&(_, n)| n).sum();
    let scores_per_unit: usize = classes.iter().map(|&(len, n)| len * n).sum();
    let est_units = (ctx.seconds * 20.0) as usize + POOL_UNITS;
    let mut tr = Tracer::new(ctx.epoch, ctx.trace, est_units * (2 + 9 * PROBE_ROWS));
    let mut lat_ms = Samples::with_capacity(est_units);
    let mut traced_ms = Samples::with_capacity(est_units);
    let mut busy_s = 0.0;
    // Untimed warm-up units, so the host settles before timing.
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < common::WARMUP_SHARE * ctx.seconds {
        apply_batch_parallel(&sm, &inputs.units[0])?;
    }
    let mut window = (sm.mapping().cache_stats(), None);
    let mut k = 0usize;
    let start = Instant::now();
    let measure_s = common::MEASURE_SHARE * ctx.seconds;
    let min_units = if ctx.trace { 0 } else { MIN_UNITS };
    while k < POOL_UNITS || lat_ms.len() < min_units || start.elapsed().as_secs_f64() < measure_s {
        let (unit, expect) = (
            &inputs.units[k % POOL_UNITS],
            &inputs.expect_probs[k % POOL_UNITS],
        );
        let traced = ctx.trace && k % 2 == 1;
        let t0 = Instant::now();
        let out = if traced {
            let root = tr.open(UNIT, ROOT, k as u64, 0);
            let out = tr.span("par.batch", root, k as u64, 0, || {
                apply_batch_parallel(&sm, unit)
            });
            tr.close(root);
            out
        } else {
            apply_batch_parallel(&sm, unit)
        };
        let dt = t0.elapsed().as_secs_f64();
        r.attempted += rows_per_unit as u64;
        match out {
            Ok(rows) => {
                for (probs, &want) in rows.iter().zip(expect) {
                    if probs_digest(probs) != want {
                        r.failed += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("attn_prefill: unit {k} failed: {e}");
                r.failed += rows_per_unit as u64;
            }
        }
        if traced {
            traced_ms.push(dt * 1e3);
            probe.run(&sm, &classes, unit, k as u64, &mut tr)?;
        } else {
            lat_ms.push(dt * 1e3);
            busy_s += dt;
        }
        k += 1;
        if k == POOL_UNITS {
            window.1 = Some(sm.mapping().cache_stats());
        }
    }
    println!(
        "attn_prefill: {k} heads of {rows_per_unit} rows ({scores_per_unit} scores), {} latency samples",
        lat_ms.len()
    );

    // A traced run times half as many units untraced and reports no
    // end-to-end latency.
    for (name, p) in [("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)] {
        match lat_ms.pct(p) {
            Some(v) => r.set(name, v),
            None if ctx.trace => {}
            None => return Err(format!("too few units for {name}")),
        }
    }
    r.set("latency.samples", lat_ms.len() as f64);
    let untraced = lat_ms.len() as f64;
    // Both figures divide the same untraced units by the same busy
    // time: max_rate_rps is scores_per_s over the mean row length.
    r.set("scores_per_s", untraced * scores_per_unit as f64 / busy_s);
    r.set("max_rate_rps", untraced * rows_per_unit as f64 / busy_s);
    device.report(&mut r);

    if ctx.trace {
        let after = window.1.expect("the first pool pass always completes");
        common::report_cache_delta(&mut r, &window.0, &after);
        common::report_analysis(&mut r, &tr, &lat_ms, &traced_ms);
        common::report_replay(&mut r, &tr);
        report_units(&mut r, &tr, &classes, &traced_ms);
        let weights: Vec<(usize, f64)> = classes.iter().map(|&(len, n)| (len, n as f64)).collect();
        common::report_blocking(&mut r, &weights)?;
        common::write_spans(&tr, ctx)?;
    }
    Ok(r)
}

/// The adapter's own cost and the batch's parallel efficiency.
fn report_units(r: &mut Report, tr: &Tracer, classes: &[(usize, usize)], batch_ms: &Samples) {
    let bridge = tr.durations_us("bridge.apply", Some(BRIDGE_LEN)).pct(0.5);
    let inline = tr
        .durations_us("mapping.execute_floats", Some(BRIDGE_LEN))
        .pct(0.5);
    if let (Some(b), Some(i)) = (bridge, inline) {
        r.set("bridge.apply_us.len2048.p50", b);
        r.set("bridge.overhead_us", b - i);
    }
    // Parallel efficiency: the unit's rows run back to back on one
    // thread (per class: quantise + replay medians) over the batch
    // wall time on every thread.
    let mut serial_us = 0.0;
    for &(len, n) in classes {
        let q = tr.durations_us("ibert.quantize", Some(len)).pct(0.5);
        let e = tr.durations_us("mapping.execute", Some(len)).pct(0.5);
        if let (Some(q), Some(e)) = (q, e) {
            serial_us += n as f64 * (q + e);
        }
    }
    if let Some(b) = batch_ms.pct(0.5) {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        r.set("par.batch_ms.p50", b);
        r.set("par.efficiency", serial_us / (b * 1e3 * threads as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let new = |seed| Inputs::new(seed).expect("inputs");
        let (a, b, c) = (new(4), new(4), new(5));
        assert_eq!(a.units, b.units);
        assert_eq!(
            (&a.expect_probs, &a.expect_codes),
            (&b.expect_probs, &b.expect_codes)
        );
        assert_ne!(a.units, c.units);
        let lens: Vec<usize> = a.units[0].iter().map(Vec::len).collect();
        // A head has 2048 rows of 2048 for the long prompt and 8 x 256
        // rows of 256 for the short ones.
        assert_eq!(classes(), [(2048, 2048), (256, 2048)]);
        assert_eq!(lens.len(), 4096);
        assert_eq!((lens[0], lens[4095]), (2048, 256));
    }
}
