//! `serve_mixed`: multi-tenant serving through [`SoftmaxServer`].
//!
//! Three measured phases over the mixed 64–16384 length pattern:
//!
//! - **Fixed rate, open loop** (traced runs only). Poisson arrivals at
//!   [`FIXED_RATE`] (under half of the serving layer's saturation on a
//!   2-core host), sent with `try_submit` from one generator thread.
//!   One collector thread collects the tickets in submission order,
//!   because a [`Ticket`] has no poll: the latencies are those of an
//!   in-order consumer, from when a request was due to when it was
//!   collected. This phase feeds the traced run's serving metrics.
//! - **Fixed concurrency, closed loop.** One client keeps [`DEPTH`]
//!   requests in flight, collecting the oldest (in order again) before
//!   each new submission. Its latencies are the end-to-end ones: with
//!   the workers never idle they track the server's own work, where the
//!   open loop's track how fast the hypervisor wakes an idle vCPU.
//! - **Saturated, closed loop.** The same client with [`WINDOW`] in
//!   flight, so the server sets the pace. Its completion rate is the
//!   serving throughput, timed in blocks of whole pattern periods; the
//!   median block rate is reported, so a burst of host noise costs one
//!   block, not the figure.
//!
//! The two closed loops alternate in chunks of [`CHUNK_S`] over the
//! rest of the run, so each figure samples the whole run: the host's
//! speed drifts over tens of seconds, and a figure taken from one
//! contiguous third of the run followed that drift.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use softmap::{ApSoftmaxRun, CoreError, ServeConfig, SoftmaxServer, Ticket, TileState};

use crate::common::{self, err, DeviceTally};
use crate::gen::{self, Rng};
use crate::metrics::Report;
use crate::stats::Samples;
use crate::trace::{Tracer, ROOT, UNIT};
use crate::Ctx;

/// One traffic period: mostly short rows with periodic long contexts
/// (8k and 16k shard across tiles and fan out across workers).
pub const PATTERN: [usize; 12] = [64, 256, 64, 1024, 64, 4096, 256, 64, 8192, 1024, 64, 16384];
const WORKERS: usize = 2;
const QUEUE_DEPTH: usize = 256;
/// Distinct score rows per pattern slot.
const VARIANTS: usize = 8;
/// Saturation (the closed loop at [`WINDOW`]) on a 2-vCPU host drifts
/// between about 4,000 and 7,000 req/s with the host's speed; 1,000
/// req/s keeps the open loop at most a quarter loaded either way, so it
/// never fills the queue.
pub const FIXED_RATE: f64 = 1000.0;
/// Phase lengths as shares of `--seconds`: the fixed-rate open loop
/// (traced runs only) and the alternating closed loops, which take what
/// the warm-up and the open loop leave.
const FIXED_SHARE: f64 = 0.35;
const CLOSED_SHARE: f64 = 0.9;
/// Seconds per closed-loop chunk before switching to the other loop.
const CHUNK_S: f64 = 1.0;
/// Requests per latency window (whole pattern periods): the reported
/// p50 and p90 are the median window's, so a burst of host noise moves
/// a window, not the figure.
const LATENCY_WINDOW: usize = PATTERN.len() * 40;
/// Requests the latency client keeps in flight: two per worker, so a
/// worker always has its next request queued.
pub const DEPTH: usize = 4;
/// Requests the saturating client keeps in flight (as `serving_load`).
pub const WINDOW: usize = 48;
/// Completions per saturated timing block: whole pattern periods, so
/// every block carries the same scores.
const BLOCK: usize = PATTERN.len() * 16;
/// Length of the closed-loop submission order, which is cycled.
const CLOSED_ORDER: usize = PATTERN.len() * VARIANTS * 16;
/// Inline replays per pool row in the traced run (enough samples for
/// a p90 at every length).
const TRACED_INLINE_REPS: usize = 13;

/// The score rows requests draw from, with their reference outputs.
struct Pool {
    rows: Vec<Vec<f64>>,
    expect: Vec<u64>,
    /// Device latency of each row executed inline on the same mapping;
    /// a served run must match it cycle for cycle.
    inline_cycles: Vec<u64>,
}

impl Pool {
    fn new(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 0x5E7E);
        let sm = common::spec();
        let rows: Vec<Vec<f64>> = (0..PATTERN.len() * VARIANTS)
            .map(|i| gen::scores(&mut rng, PATTERN[i / VARIANTS]))
            .collect();
        let expect = rows
            .iter()
            .map(|r| common::expected_codes(&sm, r))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            rows,
            expect,
            inline_cycles: Vec::new(),
        })
    }

    fn len(idx: usize) -> usize {
        PATTERN[idx / VARIANTS]
    }
}

/// One open-loop phase: arrival offsets (s) and the pool row each
/// request sends.
struct Phase {
    duration: f64,
    arrivals: Vec<(f64, usize)>,
}

/// Everything a run sends, drawn from the seed before any timing.
struct Traffic {
    /// An untimed warm-up at the fixed rate, then the fixed-rate phase.
    open: [Phase; 2],
    /// The fixed-concurrency phase's pool rows, cycled: [`PATTERN`] in
    /// order, so every latency window sees the same sequence of lengths.
    steady: Vec<usize>,
    /// The saturated phase's pool rows, cycled: every period of
    /// [`PATTERN`] in a random order.
    saturated: Vec<usize>,
}

/// Index of the fixed-rate phase in [`Traffic::open`].
const FIXED: usize = 1;

impl Traffic {
    fn new(seed: u64, seconds: f64) -> Self {
        let mut rng = Rng::new(seed, 0xA5517);
        let pick = |k: usize, rng: &mut Rng| (k % PATTERN.len()) * VARIANTS + rng.below(VARIANTS);
        let open = [common::WARMUP_SHARE, FIXED_SHARE].map(|share| {
            let duration = share * seconds;
            let times = gen::poisson_arrivals(&mut rng, FIXED_RATE, duration);
            let arrivals = times
                .into_iter()
                .enumerate()
                .map(|(k, t)| (t, pick(k, &mut rng)))
                .collect();
            Phase { duration, arrivals }
        });
        let steady = (0..CLOSED_ORDER).map(|k| pick(k, &mut rng)).collect();
        // Each period's slots in a random order: the server's free-slot
        // ring hands out its 256 slots in turn, and a fixed order would
        // give each slot only some of the lengths, so which slots grow
        // to the longest request (and the peak RSS) would depend on how
        // many requests came before.
        let mut saturated = Vec::with_capacity(CLOSED_ORDER);
        for _ in 0..CLOSED_ORDER / PATTERN.len() {
            let mut slots: Vec<usize> = (0..PATTERN.len()).collect();
            for i in (1..slots.len()).rev() {
                slots.swap(i, rng.below(i + 1));
            }
            saturated.extend(slots.into_iter().map(|k| pick(k, &mut rng)));
        }
        Self {
            open,
            steady,
            saturated,
        }
    }
}

fn setup() -> Result<SoftmaxServer, String> {
    let mut shapes = PATTERN.to_vec();
    shapes.sort_unstable();
    shapes.dedup();
    let config = ServeConfig {
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        warmup_shapes: shapes,
        shard_parallel: true,
    };
    SoftmaxServer::new(common::mapping().map_err(err)?, config).map_err(err)
}

enum Msg {
    Req {
        /// Position in the phase; the span's request id.
        seq: u64,
        idx: usize,
        due: Instant,
        submitted: (Instant, Instant),
        ticket: Ticket,
        traced: bool,
    },
    End,
}

/// What the collector saw of one phase.
#[derive(Default)]
struct PhaseOut {
    lat_ms: Samples,
    traced_ms: Samples,
    untraced_ms: Samples,
    by_len: BTreeMap<usize, Samples>,
    /// (length, latency ms) per collected request, for queue wait.
    per_req: Vec<(usize, f64)>,
    failed: u64,
    cycle_mismatch: u64,
    device: DeviceTally,
}

/// What the generator saw of one phase.
struct GenOut {
    attempted: u64,
    refused: u64,
    errors: u64,
    late_ms: Samples,
    submit_us: Samples,
    start: Instant,
}

fn collect(rx: &mpsc::Receiver<Msg>, ack: &mpsc::Sender<PhaseOut>, pool: &Pool, tr: &mut Tracer) {
    let mut run = ApSoftmaxRun::default();
    let mut out = PhaseOut::default();
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Req {
                seq,
                idx,
                due,
                submitted,
                ticket,
                traced,
            } => {
                let w0 = Instant::now();
                let result = ticket.wait_into(&mut run);
                let w1 = Instant::now();
                let len = Pool::len(idx);
                let ms = w1.saturating_duration_since(due).as_secs_f64() * 1e3;
                out.lat_ms.push(ms);
                out.by_len.entry(len).or_default().push(ms);
                out.per_req.push((len, ms));
                if result.is_err() || common::run_digest(&run) != pool.expect[idx] {
                    out.failed += 1;
                } else {
                    out.device.add(&run);
                    if run.latency_cycles != pool.inline_cycles[idx] {
                        out.cycle_mismatch += 1;
                    }
                }
                if traced {
                    out.traced_ms.push(ms);
                    let root = tr.record(UNIT, ROOT, seq, len, due, w1);
                    tr.record("gen.late", root, seq, len, due, submitted.0);
                    tr.record("serve.submit", root, seq, len, submitted.0, submitted.1);
                    tr.record("serve.in_order", root, seq, len, submitted.1, w0);
                    tr.record("serve.wait", root, seq, len, w0, w1);
                } else {
                    out.untraced_ms.push(ms);
                }
            }
            Msg::End => {
                if ack.send(std::mem::take(&mut out)).is_err() {
                    return;
                }
            }
        }
    }
}

/// Sends one phase open-loop, then waits until the collector has
/// drained it.
fn generate(
    server: &SoftmaxServer,
    pool: &Pool,
    phase: &Phase,
    trace: bool,
    tx: &mpsc::Sender<Msg>,
) -> Result<GenOut, String> {
    let n = phase.arrivals.len();
    let mut g = GenOut {
        attempted: 0,
        refused: 0,
        errors: 0,
        late_ms: Samples::with_capacity(n),
        submit_us: Samples::with_capacity(n),
        start: Instant::now() + Duration::from_millis(2),
    };
    for (k, &(offset, idx)) in phase.arrivals.iter().enumerate() {
        let due = g.start + Duration::from_secs_f64(offset);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let s0 = Instant::now();
        let result = server.try_submit(&pool.rows[idx]);
        let s1 = Instant::now();
        g.attempted += 1;
        g.late_ms
            .push(s0.saturating_duration_since(due).as_secs_f64() * 1e3);
        g.submit_us.push((s1 - s0).as_secs_f64() * 1e6);
        match result {
            Ok(ticket) => {
                let msg = Msg::Req {
                    seq: k as u64,
                    idx,
                    due,
                    submitted: (s0, s1),
                    ticket,
                    traced: trace && (k / PATTERN.len()) % 2 == 1,
                };
                tx.send(msg).map_err(|_| "collector exited early")?;
            }
            Err(CoreError::QueueFull) => g.refused += 1,
            Err(e) => {
                eprintln!("serve_mixed: submission failed: {e}");
                g.errors += 1;
            }
        }
    }
    tx.send(Msg::End).map_err(|_| "collector exited early")?;
    Ok(g)
}

/// What a closed-loop phase saw over all its chunks.
#[derive(Default)]
struct ClosedOut {
    attempted: u64,
    failed: u64,
    cycle_mismatch: u64,
    /// Per request, submission to collection (ms), in submission order.
    lat_ms: Samples,
    /// Wall time (s) of each block of [`BLOCK`] completions; a chunk's
    /// first block, which fills the window, is left out.
    block_s: Vec<f64>,
    device: DeviceTally,
    /// Position in the phase's submission order, kept across chunks.
    cursor: usize,
}

impl ClosedOut {
    fn new(seconds: f64) -> Self {
        Self {
            lat_ms: Samples::with_capacity((seconds * 8000.0) as usize),
            block_s: Vec::with_capacity((seconds * 100.0) as usize),
            ..Self::default()
        }
    }
}

/// One chunk of a closed loop: keeps `depth` requests in flight,
/// collecting the oldest before each new submission, until `seconds`
/// have passed at a pattern period's end (at least one period), then
/// drains the window. Every chunk sends whole periods, so the latency
/// windows stay aligned with [`PATTERN`] across chunks.
fn closed_loop(
    server: &SoftmaxServer,
    pool: &Pool,
    order: &[usize],
    depth: usize,
    seconds: f64,
    out: &mut ClosedOut,
) {
    let mut run = ApSoftmaxRun::default();
    let mut inflight: VecDeque<(usize, Instant, Ticket)> = VecDeque::with_capacity(depth);
    let mut collect = |(idx, submitted, ticket): (usize, Instant, Ticket), out: &mut ClosedOut| {
        let ok = ticket.wait_into(&mut run).is_ok();
        out.lat_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
        if !ok || common::run_digest(&run) != pool.expect[idx] {
            out.failed += 1;
        } else {
            out.device.add(&run);
            if run.latency_cycles != pool.inline_cycles[idx] {
                out.cycle_mismatch += 1;
            }
        }
    };
    let start = Instant::now();
    let mut block_start = start;
    let mut done = 0usize;
    let mut sent = 0usize;
    loop {
        if inflight.len() == depth {
            collect(inflight.pop_front().expect("a full window"), out);
            done += 1;
            if done.is_multiple_of(BLOCK) {
                let now = Instant::now();
                if done > BLOCK {
                    out.block_s.push((now - block_start).as_secs_f64());
                }
                block_start = now;
            }
        }
        let idx = order[out.cursor % order.len()];
        out.cursor += 1;
        sent += 1;
        out.attempted += 1;
        let submitted = Instant::now();
        match server.try_submit(&pool.rows[idx]) {
            Ok(ticket) => inflight.push_back((idx, submitted, ticket)),
            Err(e) => {
                eprintln!("serve_mixed: closed-loop submission failed: {e}");
                out.failed += 1;
            }
        }
        if sent.is_multiple_of(PATTERN.len()) && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    for req in inflight {
        collect(req, out);
    }
}

/// Alternates the closed loop at [`DEPTH`] and the one at [`WINDOW`]
/// in chunks of [`CHUNK_S`] for `seconds`.
fn closed_loops(
    server: &SoftmaxServer,
    pool: &Pool,
    traffic: &Traffic,
    seconds: f64,
) -> (ClosedOut, ClosedOut) {
    let mut steady = ClosedOut::new(seconds);
    let mut saturated = ClosedOut::new(seconds);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        closed_loop(server, pool, &traffic.steady, DEPTH, CHUNK_S, &mut steady);
        closed_loop(
            server,
            pool,
            &traffic.saturated,
            WINDOW,
            CHUNK_S,
            &mut saturated,
        );
    }
    (steady, saturated)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut pool = Pool::new(ctx.seed)?;
    let traffic = Traffic::new(ctx.seed, ctx.seconds);
    let (server, setup_s) = common::timed_setups(setup)?;
    let mut r = Report::new();
    r.set("setup_s", setup_s);

    // Inline runs of every pool row on the served mapping: the cycle
    // reference for served runs and, traced, each length's replay time.
    let est_spans = (FIXED_RATE * FIXED_SHARE * ctx.seconds * 3.0) as usize + 16_384;
    let mut tr = Tracer::new(ctx.epoch, ctx.trace, est_spans);
    let inline_us = inline_runs(&server, &mut pool, ctx.trace, &mut tr, &mut r)?;

    let (tx, rx) = mpsc::channel::<Msg>();
    let (ack_tx, ack_rx) = mpsc::channel::<PhaseOut>();
    let mut results = Vec::new();
    // Plan-cache counters around the fixed-rate phase, and the serving
    // counters at its end (warm-up and fixed-rate traffic so far).
    let mut window = Vec::new();
    let mut serve_stats = None;
    let tracer = std::thread::scope(|s| -> Result<Tracer, String> {
        let pool = &pool;
        let collector = s.spawn(move || {
            collect(&rx, &ack_tx, pool, &mut tr);
            tr
        });
        let outcome = (|| -> Result<(), String> {
            // Untraced runs give the fixed-rate phase's time to the
            // closed loops, which every end-to-end figure comes from.
            let phases = if ctx.trace { FIXED + 1 } else { FIXED };
            for (i, phase) in traffic.open[..phases].iter().enumerate() {
                if i == FIXED {
                    window.push(server.mapping().cache_stats());
                }
                let traced = ctx.trace && i == FIXED;
                let g = generate(&server, pool, phase, traced, &tx)?;
                let out = ack_rx.recv().map_err(|_| "collector exited early")?;
                results.push((g, out));
            }
            window.push(server.mapping().cache_stats());
            serve_stats = Some(server.stats());
            Ok(())
        })();
        drop(tx);
        let tr = collector.join().map_err(|_| "collector panicked")?;
        outcome.map(|()| tr)
    })?;
    let open_share = if ctx.trace { FIXED_SHARE } else { 0.0 };
    let closed_s = (CLOSED_SHARE - common::WARMUP_SHARE - open_share) * ctx.seconds;
    let (steady, saturated) = closed_loops(&server, &pool, &traffic, closed_s);
    drop(server);

    // Every phase counts errors, refusals, output mismatches and cycle
    // mismatches: no phase ever fills the queue.
    let mismatches = results.iter().map(|(_, o)| o.cycle_mismatch).sum::<u64>()
        + steady.cycle_mismatch
        + saturated.cycle_mismatch;
    if mismatches > 0 {
        eprintln!(
            "serve_mixed: {mismatches} served runs differ in latency_cycles from inline runs"
        );
        r.checks_ok = false;
    }
    for (g, out) in &results {
        r.attempted += g.attempted;
        r.failed += g.errors + g.refused + out.failed;
    }
    for c in [&steady, &saturated] {
        r.attempted += c.attempted;
        r.failed += c.failed;
    }

    // Fixed concurrency: latency and the device figures.
    r.set(
        "latency_p50_ms",
        steady
            .lat_ms
            .windowed_pct(LATENCY_WINDOW, 0.5)
            .ok_or("too few requests for p50")?,
    );
    r.set(
        "latency_p90_ms",
        steady
            .lat_ms
            .windowed_pct(LATENCY_WINDOW, 0.9)
            .ok_or("too few requests for p90")?,
    );
    r.set("latency.samples", steady.lat_ms.len() as f64);
    steady.device.report(&mut r);
    println!(
        "serve_mixed: closed loop, {DEPTH} in flight: {} requests, submitted to collected \
         p50 {:.3} ms p90 {:.3} ms",
        steady.attempted,
        r.get("latency_p50_ms").unwrap_or(f64::NAN),
        r.get("latency_p90_ms").unwrap_or(f64::NAN),
    );

    // Saturated: throughput.
    let block_rps = median_block_rate(&saturated.block_s).ok_or("too few closed-loop blocks")?;
    let period_scores: usize = PATTERN.iter().sum();
    // Both figures are the median block's rate: max_rate_rps is
    // scores_per_s over the pattern's mean length.
    r.set("max_rate_rps", block_rps);
    r.set(
        "scores_per_s",
        block_rps * period_scores as f64 / PATTERN.len() as f64,
    );
    println!(
        "serve_mixed: closed loop, {WINDOW} in flight: {} requests, {} blocks of {BLOCK}, \
         median {block_rps:.0} req/s",
        saturated.attempted,
        saturated.block_s.len()
    );

    if ctx.trace {
        // Fixed-rate open loop: reported by the traced run only.
        let (g, out) = &results[FIXED];
        let open_p50 = out.lat_ms.windowed_pct(LATENCY_WINDOW, 0.5);
        let open_p90 = out.lat_ms.windowed_pct(LATENCY_WINDOW, 0.9);
        println!(
            "serve_mixed: open loop at {FIXED_RATE} req/s for {:.1} s: {} sent, {} refused, \
             {} collected, due to collected p50 {:.3} ms p90 {:.3} ms, generator late p90 {:.3} ms \
             max {:.3} ms",
            traffic.open[FIXED].duration,
            g.attempted,
            g.refused,
            out.lat_ms.len(),
            open_p50.unwrap_or(f64::NAN),
            open_p90.unwrap_or(f64::NAN),
            g.late_ms.pct(0.9).unwrap_or(f64::NAN),
            g.late_ms.max().unwrap_or(f64::NAN),
        );
        common::report_cache_delta(&mut r, &window[0], &window[1]);
        let stats = serve_stats.expect("the fixed-rate phase ran");
        r.set(
            "serve.coalesced_share",
            stats.coalesced as f64 / stats.completed.max(1) as f64,
        );
        r.set(
            "serve.refused_share",
            g.refused as f64 / g.attempted.max(1) as f64,
        );
        r.set("serve.occupancy", stats.occupancy());
        // Σ device latency of every request served so far over the
        // continuous-batching schedule's makespan.
        let cycles: u64 = results.iter().map(|(_, o)| o.device.latency_cycles()).sum();
        r.set(
            "serve.device_speedup",
            cycles as f64 / stats.makespan_cycles.max(1) as f64,
        );
        if let (Some(p50), Some(p90)) = (open_p50, open_p90) {
            r.set("serve.open_loop_ms.p50", p50);
            r.set("serve.open_loop_ms.p90", p90);
        }
        report_serving(&mut r, g, out, &inline_us);
        common::report_analysis(&mut r, &tracer, &out.untraced_ms, &out.traced_ms);
        common::report_replay(&mut r, &tracer);
        let mut weights: BTreeMap<usize, f64> = BTreeMap::new();
        for len in PATTERN {
            *weights.entry(len).or_default() += 1.0;
        }
        common::report_blocking(&mut r, &weights.into_iter().collect::<Vec<_>>())?;
        common::write_spans(&tracer, ctx)?;
    }
    Ok(r)
}

/// Requests per second of the median closed-loop block.
fn median_block_rate(block_s: &[f64]) -> Option<f64> {
    (block_s.len() >= 5).then(|| BLOCK as f64 / crate::stats::median(block_s))
}

/// Executes every pool row inline on the served mapping (the server is
/// idle), recording its device latency; traced, as separate quantise
/// and replay calls in spans. Returns each length's median replay time
/// (µs) when traced.
fn inline_runs(
    server: &SoftmaxServer,
    pool: &mut Pool,
    trace: bool,
    tr: &mut Tracer,
    r: &mut Report,
) -> Result<BTreeMap<usize, f64>, String> {
    let m = server.mapping();
    let mut tile = TileState::new();
    let mut run = ApSoftmaxRun::default();
    let mut codes = Vec::new();
    pool.inline_cycles.clear();
    for (idx, row) in pool.rows.iter().enumerate() {
        m.execute_floats_into(&mut tile, row, &mut run)
            .map_err(err)?;
        pool.inline_cycles.push(run.latency_cycles);
        if common::run_digest(&run) != pool.expect[idx] {
            r.checks_ok = false;
        }
    }
    let mut medians = BTreeMap::new();
    if !trace {
        return Ok(medians);
    }
    for rep in 0..TRACED_INLINE_REPS {
        for (idx, row) in pool.rows.iter().enumerate() {
            let len = row.len();
            let req = (rep * pool.rows.len() + idx) as u64;
            let root = tr.open("probe", ROOT, req, len);
            tr.span("ibert.quantize", root, req, len, || {
                m.spec().quantize_into(row, &mut codes)
            });
            tr.span("mapping.execute", root, req, len, || {
                m.execute_codes_into(&mut tile, &codes, &mut run)
            })
            .map_err(err)?;
            tr.close(root);
        }
    }
    for len in PATTERN {
        if let Some(p50) = tr.durations_us("mapping.execute", Some(len)).pct(0.5) {
            medians.insert(len, p50);
        }
    }
    Ok(medians)
}

fn report_serving(r: &mut Report, g: &GenOut, out: &PhaseOut, inline_us: &BTreeMap<usize, f64>) {
    if let (Some(p50), Some(p90)) = (g.submit_us.pct(0.5), g.submit_us.pct(0.9)) {
        r.set("serve.submit_us.p50", p50);
        r.set("serve.submit_us.p90", p90);
    }
    let mut wait = Samples::with_capacity(out.per_req.len());
    for &(len, ms) in &out.per_req {
        if let Some(us) = inline_us.get(&len) {
            wait.push(ms - us / 1e3);
        }
    }
    if let Some(p50) = wait.pct(0.5) {
        r.set("serve.queue_wait_ms.p50", p50);
    }
    for (len, name) in [
        (64, "serve.latency_ms.len64.p50"),
        (16384, "serve.latency_ms.len16384.p50"),
    ] {
        if let Some(p50) = out.by_len.get(&len).and_then(|s| s.pct(0.5)) {
            r.set(name, p50);
        }
    }
    if let (Some(served), Some(inline)) = (
        out.by_len.get(&16384).and_then(|s| s.pct(0.5)),
        inline_us.get(&16384),
    ) {
        r.set("fanout.len16384_over_inline", served / (inline / 1e3));
    }
    if let (Some(p90), Some(max)) = (g.late_ms.pct(0.9), g.late_ms.max()) {
        r.set("gen.late_ms.p90", p90);
        r.set("gen.late_ms.max", max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        // Every duration, arrival time and pool choice.
        let key = |t: &Traffic| -> Vec<f64> {
            let open = t.open.iter().flat_map(|p| {
                let arrivals = p.arrivals.iter().flat_map(|&(t, i)| [t, i as f64]);
                std::iter::once(p.duration).chain(arrivals)
            });
            let closed = t.steady.iter().chain(&t.saturated);
            open.chain(closed.map(|&i| i as f64)).collect()
        };
        let a = key(&Traffic::new(5, 2.0));
        assert_eq!(a, key(&Traffic::new(5, 2.0)));
        assert_ne!(a, key(&Traffic::new(6, 2.0)));
        // Requests cycle through the length pattern in order.
        let t = Traffic::new(5, 2.0);
        for (k, &(_, idx)) in t.open[FIXED].arrivals.iter().enumerate() {
            assert_eq!(Pool::len(idx), PATTERN[k % PATTERN.len()]);
        }
        for (k, &idx) in t.steady.iter().enumerate() {
            assert_eq!(Pool::len(idx), PATTERN[k % PATTERN.len()]);
        }
        // The saturated loop sends every period's lengths in some order.
        assert_eq!(t.saturated.len() % BLOCK, 0);
        for period in t.saturated.chunks(PATTERN.len()) {
            let mut lens: Vec<usize> = period.iter().map(|&i| Pool::len(i)).collect();
            let mut want = PATTERN.to_vec();
            lens.sort_unstable();
            want.sort_unstable();
            assert_eq!(lens, want);
        }
    }

    #[test]
    fn block_rate_is_the_median_block() {
        assert_eq!(median_block_rate(&[0.5, 0.5, 0.5, 0.5]), None);
        let rate = median_block_rate(&[9.0, 0.5, 0.4, 0.5, 0.6, 0.5]);
        assert_eq!(rate, Some(BLOCK as f64 / 0.5));
    }

    #[test]
    fn closed_loop_chunks_send_whole_periods() {
        let server = setup().expect("server");
        let mut pool = Pool::new(3).expect("pool");
        let mut tr = Tracer::new(Instant::now(), false, 0);
        inline_runs(&server, &mut pool, false, &mut tr, &mut Report::new()).expect("inline");
        let traffic = Traffic::new(3, 2.0);
        let mut out = ClosedOut::new(0.1);
        for _ in 0..2 {
            closed_loop(&server, &pool, &traffic.steady, DEPTH, 0.0, &mut out);
        }
        assert_eq!(out.cursor, 2 * PATTERN.len());
        assert_eq!(out.lat_ms.len(), 2 * PATTERN.len());
        assert_eq!((out.failed, out.cycle_mismatch), (0, 0));
    }
}
