//! `decode_growing`: autoregressive decode on one tile. At step `t`
//! every one of [`HEADS`] heads runs one attention row of length
//! `CTX0 + t`, so the context grows by one per step and every step is
//! a shape the plan cache has not seen — past its 64-entry LRU, plan
//! resolution (compile, autotune search, eviction) sits on the request
//! path. After [`STEPS`] steps the episode restarts at `CTX0`, whose
//! plans have long been evicted, so every episode is alike.

use std::time::Instant;

use softmap::{ApSoftmax, ApSoftmaxRun, PlanCache, TileState};

use crate::common::{self, err, DeviceTally};
use crate::gen::{self, Rng};
use crate::metrics::Report;
use crate::stats::Samples;
use crate::trace::{Tracer, ROOT, UNIT};
use crate::Ctx;

pub const HEADS: usize = 16;
/// A decode from a 512-token prompt to just under the 2048-score
/// single-tile boundary (past it, step times jump 2x). The wide range
/// spreads step times smoothly over a 3x span: on a shared host each
/// vCPU runs in a fast or a slower regime for seconds at a time, and a
/// narrow range would put the step-time median in the gap between the
/// two regimes' clusters, where it jumps with the share of the run
/// spent in each.
pub const CTX0: usize = 512;
pub const STEPS: usize = 2048 - CTX0 - 1;
/// Per-step window offsets into each head's score row, so consecutive
/// steps see different scores.
const JITTER: usize = 64;

struct Inputs {
    /// One score row per head, long enough for every step's window.
    rows: Vec<Vec<f64>>,
    /// Reference digest per (step, head).
    expect: Vec<u64>,
}

impl Inputs {
    fn new(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 0xDEC0DE);
        let rows: Vec<Vec<f64>> = (0..HEADS)
            .map(|_| gen::scores(&mut rng, CTX0 + STEPS + JITTER))
            .collect();
        let mut inputs = Self {
            rows,
            expect: Vec::with_capacity(STEPS * HEADS),
        };
        let sm = common::spec();
        for t in 0..STEPS {
            for h in 0..HEADS {
                let d = common::expected_codes(&sm, inputs.row(t, h))?;
                inputs.expect.push(d);
            }
        }
        Ok(inputs)
    }

    fn row(&self, t: usize, h: usize) -> &[f64] {
        let off = (t * 37 + h * 11) % JITTER;
        &self.rows[h][off..off + CTX0 + t]
    }
}

struct Decoder {
    mapping: ApSoftmax,
    tile: TileState,
    runs: Vec<ApSoftmaxRun>,
    codes: Vec<i64>,
}

impl Decoder {
    /// Set-up: the mapping with plans for the first
    /// [`PlanCache::DEFAULT_CAPACITY`] decode contexts, and the decode
    /// tile, warmed by the prompt's last position (a length-`CTX0` row).
    fn new(inputs: &Inputs) -> Result<Self, String> {
        let mapping = common::mapping().map_err(err)?;
        let upcoming: Vec<usize> = (CTX0..CTX0 + PlanCache::DEFAULT_CAPACITY).collect();
        mapping.warmup(&upcoming).map_err(err)?;
        let mut tile = TileState::new();
        let mut runs: Vec<ApSoftmaxRun> = (0..HEADS).map(|_| ApSoftmaxRun::default()).collect();
        mapping
            .execute_floats_into(&mut tile, &inputs.rows[0][..CTX0], &mut runs[0])
            .map_err(err)?;
        Ok(Self {
            mapping,
            tile,
            runs,
            codes: Vec::with_capacity(CTX0 + STEPS),
        })
    }

    /// One decode step, every head inline on the one tile.
    fn step(&mut self, inputs: &Inputs, t: usize) -> Result<(), String> {
        for h in 0..HEADS {
            self.mapping
                .execute_floats_into(&mut self.tile, inputs.row(t, h), &mut self.runs[h])
                .map_err(err)?;
        }
        Ok(())
    }

    /// The same step as separate calls into each layer, each in a span:
    /// plan resolution, then per head quantisation and replay.
    fn step_traced(&mut self, inputs: &Inputs, t: usize, tr: &mut Tracer) -> Result<(), String> {
        let len = CTX0 + t;
        let root = tr.open(UNIT, ROOT, t as u64, len);
        let m = &self.mapping;
        tr.span("plan.resolve", root, t as u64, len, || m.warmup(&[len]))
            .map_err(err)?;
        for h in 0..HEADS {
            let codes = &mut self.codes;
            let row = inputs.row(t, h);
            tr.span("ibert.quantize", root, t as u64, len, || {
                m.spec().quantize_into(row, codes);
            });
            let (tile, run) = (&mut self.tile, &mut self.runs[h]);
            tr.span("mapping.execute", root, t as u64, len, || {
                m.execute_codes_into(tile, codes, run)
            })
            .map_err(err)?;
        }
        tr.close(root);
        Ok(())
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let inputs = Inputs::new(ctx.seed)?;
    let (mut dec, setup_s) = common::timed_setups(|| Decoder::new(&inputs))?;
    let mut r = Report::new();
    r.set("setup_s", setup_s);

    // Pairs of steps alternate untraced and traced in the traced run,
    // so the tracing overhead is measured under the same conditions and
    // both length parities are traced.
    let est_steps = (ctx.seconds * 1000.0) as usize + STEPS;
    let mut tr = Tracer::new(ctx.epoch, ctx.trace, est_steps * (2 + 2 * HEADS));
    let mut lat_ms = Samples::with_capacity(est_steps);
    let mut traced_ms = Samples::with_capacity(est_steps);
    let mut device = DeviceTally::default();
    let (mut busy_s, mut scores) = (0.0, 0u64);
    let mut steps_done = 0usize;
    // One untimed episode first: the host settles, and every plan the
    // first timed episode needs (set-up warmed the first ones) has been
    // evicted again.
    for t in 0..STEPS {
        dec.step(&inputs, t)?;
    }
    let mut window = (dec.mapping.cache_stats(), None);
    let measure_s = common::MEASURE_SHARE * ctx.seconds;
    let start = Instant::now();
    while steps_done < STEPS || start.elapsed().as_secs_f64() < measure_s {
        let t = steps_done % STEPS;
        let traced = ctx.trace && (steps_done / 2) % 2 == 1;
        let t0 = Instant::now();
        if traced {
            dec.step_traced(&inputs, t, &mut tr)?;
        } else {
            dec.step(&inputs, t)?;
        }
        let dt = t0.elapsed().as_secs_f64();
        if traced {
            traced_ms.push(dt * 1e3);
        } else {
            lat_ms.push(dt * 1e3);
        }
        busy_s += dt;
        scores += ((CTX0 + t) * HEADS) as u64;
        for (h, run) in dec.runs.iter().enumerate() {
            r.attempted += 1;
            if common::run_digest(run) != inputs.expect[t * HEADS + h] {
                r.failed += 1;
            }
            if steps_done < STEPS {
                device.add(run);
            }
        }
        steps_done += 1;
        if steps_done == STEPS {
            window.1 = Some(dec.mapping.cache_stats());
        }
    }
    println!(
        "decode_growing: {steps_done} steps of {HEADS} heads, ctx {CTX0}..{}, {} latency samples",
        CTX0 + STEPS - 1,
        lat_ms.len()
    );

    r.set(
        "latency_p50_ms",
        lat_ms.pct(0.5).ok_or("too few steps for p50")?,
    );
    r.set(
        "latency_p90_ms",
        lat_ms.pct(0.9).ok_or("too few steps for p90")?,
    );
    r.set("latency.samples", lat_ms.len() as f64);
    r.set("scores_per_s", scores as f64 / busy_s);
    r.set("max_rate_rps", (steps_done * HEADS) as f64 / busy_s);
    device.report(&mut r);

    if ctx.trace {
        let after = window.1.expect("the first episode always completes");
        common::report_cache_delta(&mut r, &window.0, &after);
        common::report_analysis(&mut r, &tr, &lat_ms, &traced_ms);
        let resolve_us = tr.durations_us("plan.resolve", None);
        if let (Some(p50), Some(p90)) = (resolve_us.pct(0.5), resolve_us.pct(0.9)) {
            r.set("plan.resolve_ms.p50", p50 / 1e3);
            r.set("plan.resolve_ms.p90", p90 / 1e3);
        }
        common::report_replay(&mut r, &tr);
        let sampled: Vec<(usize, f64)> = (0..STEPS).step_by(25).map(|t| (CTX0 + t, 1.0)).collect();
        common::report_blocking(&mut r, &sampled)?;
        common::write_spans(&tr, ctx)?;
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let new = |seed| Inputs::new(seed).expect("inputs");
        let (a, b, c) = (new(9), new(9), new(10));
        assert_eq!((&a.rows, &a.expect), (&b.rows, &b.expect));
        assert_ne!(a.rows, c.rows);
        assert_eq!(a.row(STEPS - 1, HEADS - 1).len(), CTX0 + STEPS - 1);
    }
}
