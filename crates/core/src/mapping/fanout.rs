//! Sharded execution: the three-phase dataflow of one long vector
//! across the device's tile grid, written once for every host
//! schedule.
//!
//! A vector whose rows exceed one tile splits into shards
//! ([`softmap_ap::DeviceConfig::partition_into`]) and runs as three phases joined
//! by two cross-tile reductions (Fig. 5 adapted to a tile grid):
//!
//! 1. **min** — every shard loads its slice and min-searches it; the
//!    shard minima combine over the reduction network into the global
//!    minimum;
//! 2. **exp** — every shard subtracts the global minimum (a program
//!    scalar input), runs the integer exponential, and tree-reduces its
//!    partial sum; the partials combine, in the scalar spec's overflow
//!    mode, into the divisor;
//! 3. **divide** — every shard divides its `v_approx` slice by the
//!    broadcast divisor.
//!
//! Bit-exactness versus the scalar spec holds because the global
//! minimum is the min of the shard minima and the saturating/wrapping
//! sum of non-negative values is order-independent. The cost contract
//! charges each shard's phase programs plus the deterministic
//! reduction-network formula; the device critical path adds wave
//! scheduling when shards exceed the grid.
//!
//! # One schedule, one or many chunks
//!
//! The shards split into contiguous *chunks*, each with its own
//! persistent state (tiles, staging buffers, program scratch,
//! per-phase step accounting). A chunk runs "phase over my shards,
//! sync, reduce" twice and finishes with the divide; every shard
//! deposits its result scalar and phase cycles into a lock-free
//! per-shard array. One epilogue then merges the chunks in shard order:
//! outputs, reduction charges, steps in first-appearance order, and
//! the wave-scheduled critical path.
//!
//! * **Sequential** execution is one chunk over all shards with no
//!   barrier. It alone may issue directly ([`PlanMode::DirectIssue`])
//!   or compile (instantiate each shard length's phase programs from
//!   their compile-class templates, cost them in the shard's one
//!   execution, and collect them into a [`ShardedPlan`]).
//! * **Fan-out** (serving workers with
//!   [`crate::ServeConfig::shard_parallel`]) replays a cached plan as N
//!   chunks on N host threads, which meet at the two reductions behind
//!   a [`Barrier`]. A shape whose plan is not cached yet runs (and
//!   compiles) sequentially; its next vector fans out.
//!
//! Both produce identical outputs, `CycleStats`, steps and latency,
//! because they run the same per-shard step and the same epilogue. A
//! failing chunk records its error, raises the shared cancel flag, and
//! keeps reaching every remaining barrier while skipping the work, so
//! no chunk can deadlock.
//!
//! # Residency
//!
//! A vector whose shards fit the grid in one wave executes *resident*
//! by default ([`ApSoftmax::with_resident`]): each shard keeps one
//! pinned tile across the three phases at the whole-vector field
//! layout. The exp and divide phases re-arm that tile and read the
//! planes the previous phase left behind instead of re-staging them,
//! and same-length followers are charged in SIMD lockstep. Otherwise
//! every phase re-stages its inputs on a cleared tile at a phase-local
//! layout.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use softmap_ap::program::{ExecIo, ProgramScratch, Recorder};
use softmap_ap::{batch, device, ApCore, ApError, ApProgram, ApTile, CycleStats, RegId};

use super::{
    stage_halves, ApSoftmax, ApSoftmaxRun, FieldSet, Layout, PlanMode, StepStats, TileState,
};
use crate::plan::{CachedPlan, CompiledPlan, PlanPhase, ShardedPlan};
use crate::CoreError;

/// The three shard phases in dataflow order: index `k` of a
/// [`ShardedPlan`]'s phase programs, of a chunk's step lists, and of a
/// shard's deposits.
const SHARD_PHASES: [PlanPhase; 3] = [
    PlanPhase::ShardMin,
    PlanPhase::ShardExp,
    PlanPhase::ShardDiv,
];

/// Reusable sharded-execution state, owned by a [`TileState`]: the
/// per-chunk states, the per-shard deposits the chunks exchange at the
/// reductions, and partition and wave-scheduler scratch. Capacities
/// persist across vectors, so steady-state sharded replay performs
/// zero heap allocations.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardPool {
    chunks: Vec<ShardChunk>,
    deposits: Vec<ShardDeposit>,
    ranges: Vec<(usize, usize)>,
    cycles: Vec<u64>,
    loads: Vec<u64>,
}

/// One chunk's persistent state.
#[derive(Debug, Clone, Default)]
struct ShardChunk {
    /// Resident: one pinned tile per owned shard, kept for the
    /// vector's lifetime so the phases' planes survive between them.
    /// Re-staged: one tile every phase re-acquires. The pool only
    /// grows.
    tiles: Vec<ApTile>,
    scratch: ProgramScratch,
    half0: Vec<u64>,
    half1: Vec<u64>,
    /// The owned shards' outputs, in shard order.
    codes: Vec<u64>,
    vapprox: Vec<u64>,
    /// Per-phase step breakdown (indexed like [`SHARD_PHASES`]).
    steps: [Vec<StepStats>; 3],
    total: CycleStats,
    rows: usize,
    cols_used: usize,
    /// The combined partial sum (the divisor before clamping).
    sum: u64,
    err: Option<CoreError>,
}

/// One shard's deposits, per phase: the result scalar (shard minimum,
/// partial sum, divisor input) and the phase's cycles. Atomic, so
/// concurrent chunks write disjoint entries without locks. `Relaxed`
/// suffices: each barrier wait (and, for the epilogue, the join of the
/// scoped chunk threads) orders every write before the reads.
#[derive(Debug, Default)]
struct ShardDeposit {
    result: [AtomicU64; 3],
    cycles: [AtomicU64; 3],
}

impl Clone for ShardDeposit {
    fn clone(&self) -> Self {
        let copy = |a: &AtomicU64| AtomicU64::new(a.load(Ordering::Relaxed));
        Self {
            result: self.result.each_ref().map(copy),
            cycles: self.cycles.each_ref().map(copy),
        }
    }
}

impl ShardPool {
    /// Grows the pool for `chunks` chunks over `ranges`.
    fn ensure(&mut self, ranges: &[(usize, usize)], chunks: usize, resident: bool) {
        if self.chunks.len() < chunks {
            self.chunks.resize_with(chunks, ShardChunk::default);
        }
        if self.deposits.len() < ranges.len() {
            self.deposits
                .resize_with(ranges.len(), ShardDeposit::default);
        }
        for (j, chunk) in self.chunks[..chunks].iter_mut().enumerate() {
            let (cs, ce) = chunk_bounds(ranges.len(), chunks, j);
            let tiles = if resident { ce - cs } else { 1 };
            if chunk.tiles.len() < tiles {
                chunk.tiles.resize_with(tiles, ApTile::new);
            }
        }
    }
}

/// Shards `[cs, ce)` of chunk `j`: contiguous near-even chunks keep a
/// stable shard → chunk affinity, so resident tile pools stay warm
/// across vectors of a shape (`chunks ≤ shards` ⇒ none is empty).
fn chunk_bounds(shards: usize, chunks: usize, j: usize) -> (usize, usize) {
    (j * shards / chunks, (j + 1) * shards / chunks)
}

/// What every chunk of one sharded vector shares.
struct Schedule<'a> {
    codes: &'a [i64],
    ranges: &'a [(usize, usize)],
    resident: bool,
    layout: Layout,
    chunks: usize,
    deposits: &'a [ShardDeposit],
    /// `None` for a single chunk: nothing to wait for.
    barrier: Option<Barrier>,
    cancel: AtomicBool,
}

/// How the schedule executes each shard's phase program.
pub(super) enum ShardExec<'a> {
    /// Issue every op directly (no cache, no recording) — the
    /// differential-testing baseline.
    Direct,
    /// Replay the cached sharded plan's phase programs.
    Replay(&'a ShardedPlan),
    /// Compile each shard length's phase program while executing,
    /// collecting them per shard and phase for the sharded plan under
    /// construction. With `share`, phase programs are also looked up
    /// in, and added to, the plan cache, so vectors whose shards have
    /// the same lengths share them; the autotuner's candidates do not
    /// share, so a search never churns the cache.
    Compile {
        plans: &'a mut [Vec<Arc<CompiledPlan>>; 3],
        share: bool,
    },
}

/// Replay pricing of one shard's phase program: full price (leaders),
/// the hoisted-broadcast discount (re-staged followers), or the
/// wave-lockstep discount (resident followers).
#[derive(Clone, Copy)]
enum PhaseReplay {
    Full,
    Hoisted,
    Lockstep,
}

/// Replay pricing for shard `i`. Every shard after the first
/// occurrence of its length is a *follower* sharing that leader's
/// device-wide drivers: re-staged followers ride the broadcast of
/// shard-invariant operands for free ([`ApProgram::replay_resident`]);
/// resident followers execute in SIMD lockstep and are charged only
/// their input staging ([`ApProgram::replay_lockstep`]). Leaders pay
/// full price (their recording execution anchors the phase program's
/// cost). The rule is a pure function of the partition, so
/// compile-time totals and replay totals agree.
fn phase_replay(ranges: &[(usize, usize)], i: usize, resident: bool) -> PhaseReplay {
    let len = ranges[i].1 - ranges[i].0;
    match (ranges[..i].iter().any(|&(s, e)| e - s == len), resident) {
        (false, _) => PhaseReplay::Full,
        (true, false) => PhaseReplay::Hoisted,
        (true, true) => PhaseReplay::Lockstep,
    }
}

/// Accumulates one step's cost into the named entry of `steps`
/// (appending on first sight), so the per-shard repetitions of a phase
/// step merge into one entry.
fn accumulate_step(steps: &mut Vec<StepStats>, name: &'static str, stats: CycleStats) {
    if let Some(s) = steps.iter_mut().find(|s| s.name == name) {
        s.stats.accumulate(&stats);
    } else {
        steps.push(StepStats { name, stats });
    }
}

/// One shard phase's direct issue.
struct IssuedPhase {
    stats: CycleStats,
    cols_used: usize,
    /// The result register's value: shard minimum, partial sum, or
    /// the divisor input.
    result: u64,
    program: Option<(ApProgram, RegId)>,
}

impl ApSoftmax {
    /// [`ApSoftmax::execute_codes_into`] with a long vector's cached
    /// replay fanned across up to `threads` host threads (see the
    /// module docs). Everything else — unsharded shapes, direct issue,
    /// a plan not cached yet, a single thread — runs sequentially.
    ///
    /// # Errors
    ///
    /// As [`ApSoftmax::execute_codes_into`]; on the fan-out, the
    /// lowest-indexed failing chunk's error.
    pub(crate) fn execute_codes_fanout(
        &self,
        state: &mut TileState,
        codes: &[i64],
        run: &mut ApSoftmaxRun,
        threads: usize,
    ) -> Result<(), CoreError> {
        self.execute_codes_mode(state, codes, run, self.plan_mode, threads)
    }

    /// Executes a vector that exceeds one tile's row capacity: resolves
    /// its partition, then issues it directly or replays (compiling on
    /// first sight) its cached sharded plan.
    pub(super) fn execute_sharded(
        &self,
        state: &mut TileState,
        codes: &[i64],
        run: &mut ApSoftmaxRun,
        mode: PlanMode,
        threads: usize,
    ) -> Result<(), CoreError> {
        let mut ranges = std::mem::take(&mut state.shard.ranges);
        let result = self
            .effective_partition(codes.len(), &mut ranges)
            .and_then(|()| {
                if mode == PlanMode::DirectIssue {
                    // Direct issue stays on the re-staging path:
                    // residency is a plan-level optimization, and the
                    // direct-vs-replay differential baseline keeps
                    // characterizing the re-staged contract exactly.
                    let exec = ShardExec::Direct;
                    return self.run_sharded(
                        state,
                        codes,
                        run,
                        &ranges,
                        exec,
                        false,
                        self.layout,
                        1,
                    );
                }
                let resident = self.resident_for(ranges.len());
                let key = self.plan_key(codes.len(), PlanPhase::Vector, resident);
                self.execute_cached(state, codes, run, key, threads, |state, run| {
                    let plan =
                        self.compile_sharded(state, codes, run, &ranges, self.layout, true)?;
                    Ok((CachedPlan::Sharded(Arc::new(plan)), true))
                })
            });
        state.shard.ranges = ranges;
        result
    }

    /// Compiles the sharded plan of `codes` over `ranges`, staged under
    /// `layout`, by executing the vector once sequentially — which
    /// leaves its outcome in `run`. Residency follows the partition
    /// ([`ApSoftmax::resident_for`]); `share` is
    /// [`ShardExec::Compile`]'s.
    pub(super) fn compile_sharded(
        &self,
        state: &mut TileState,
        codes: &[i64],
        run: &mut ApSoftmaxRun,
        ranges: &[(usize, usize)],
        layout: Layout,
        share: bool,
    ) -> Result<ShardedPlan, CoreError> {
        let started = std::time::Instant::now();
        let resident = self.resident_for(ranges.len());
        let mut plans = Default::default();
        let exec = ShardExec::Compile {
            plans: &mut plans,
            share,
        };
        self.run_sharded(state, codes, run, ranges, exec, resident, layout, 1)?;
        Ok(ShardedPlan {
            ranges: ranges.to_vec(),
            phase_plans: plans,
            steps: run.steps.clone(),
            total: run.total,
            reduction: run.reduction,
            latency_cycles: run.latency_cycles,
            waves: run.waves,
            rows: run.rows,
            cols_used: run.cols_used,
            compile_micros: started.elapsed().as_secs_f64() * 1e6,
            resident,
        })
    }

    /// The sharded schedule over `ranges`: one chunk when `exec` issues
    /// directly or compiles, up to `threads` chunks on cached replay.
    /// `resident` selects pinned shard tiles across phases versus
    /// re-staging; `layout` is the row packing the shards stage under —
    /// the configured layout except on tuned replay, which packs by the
    /// winner's.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn run_sharded(
        &self,
        state: &mut TileState,
        codes: &[i64],
        run: &mut ApSoftmaxRun,
        ranges: &[(usize, usize)],
        exec: ShardExec<'_>,
        resident: bool,
        layout: Layout,
        threads: usize,
    ) -> Result<(), CoreError> {
        let shards = ranges.len();
        let chunks = match exec {
            ShardExec::Replay(_) => threads.clamp(1, shards),
            _ => 1,
        };
        state.shard.ensure(ranges, chunks, resident);
        let ShardPool {
            chunks: states,
            deposits,
            cycles,
            loads,
            ..
        } = &mut state.shard;
        let states = &mut states[..chunks];
        let sched = Schedule {
            codes,
            ranges,
            resident,
            layout,
            chunks,
            deposits: &deposits[..shards],
            barrier: (chunks > 1).then(|| Barrier::new(chunks)),
            cancel: AtomicBool::new(false),
        };
        match exec {
            ShardExec::Replay(plan) if chunks > 1 => batch::fan_out_with(states, |j, chunk| {
                self.run_chunk(&sched, j, chunk, &mut ShardExec::Replay(plan));
            }),
            mut exec => self.run_chunk(&sched, 0, &mut states[0], &mut exec),
        }
        if let Some(err) = states.iter_mut().find_map(|c| c.err.take()) {
            return Err(err);
        }

        // Merge the chunks in shard order: phase by phase, the
        // cross-tile reductions between the phases. The critical path
        // is the per-phase wave makespans plus the reduction-network
        // cycles (under residency the followers' per-phase cycles are
        // tiny or zero, so a makespan collapses to its wave leader).
        let red = [
            ("device: cross-tile min", self.cfg().m),
            ("device: cross-tile sum", self.sum_bits()),
        ]
        .map(|(name, bits)| (name, self.device.reduction_network(shards, bits)));
        run.codes.clear();
        run.vapprox.clear();
        run.steps.clear();
        let mut total = CycleStats::default();
        let mut latency = 0;
        for k in 0..SHARD_PHASES.len() {
            for chunk in states.iter() {
                for st in &chunk.steps[k] {
                    accumulate_step(&mut run.steps, st.name, st.stats);
                }
            }
            cycles.clear();
            cycles.extend(
                sched
                    .deposits
                    .iter()
                    .map(|d| d.cycles[k].load(Ordering::Relaxed)),
            );
            latency += device::wave_makespan(cycles, self.device.tiles, loads);
            if let Some(&(name, stats)) = red.get(k) {
                accumulate_step(&mut run.steps, name, stats);
                total.accumulate(&stats);
                latency += stats.cycles();
            }
        }
        run.rows = 0;
        run.cols_used = 0;
        for chunk in states.iter() {
            total.accumulate(&chunk.total);
            run.codes.extend_from_slice(&chunk.codes);
            run.vapprox.extend_from_slice(&chunk.vapprox);
            run.rows = run.rows.max(chunk.rows);
            run.cols_used = run.cols_used.max(chunk.cols_used);
        }
        debug_assert_eq!(run.codes.len(), codes.len());
        let mut reduction = red[0].1;
        reduction.accumulate(&red[1].1);
        run.frac_bits = self.sm.widths().frac_bits();
        run.sum = states[0].sum;
        run.total = total;
        run.shards = shards;
        run.waves = self.device.waves(shards);
        run.latency_cycles = latency;
        run.reduction = reduction;
        Ok(())
    }

    /// Chunk `j`'s three phases over its shards: phase, sync, reduce —
    /// twice — then the divide. An error (its own, or a peer's via the
    /// cancel flag) skips the remaining work but still reaches every
    /// barrier.
    fn run_chunk(
        &self,
        sched: &Schedule<'_>,
        j: usize,
        chunk: &mut ShardChunk,
        exec: &mut ShardExec<'_>,
    ) {
        let (cs, ce) = chunk_bounds(sched.ranges.len(), sched.chunks, j);
        chunk.codes.clear();
        chunk.vapprox.clear();
        chunk.steps.iter_mut().for_each(Vec::clear);
        chunk.total = CycleStats::default();
        chunk.rows = 0;
        chunk.cols_used = 0;
        chunk.err = None;
        let cancelled = || sched.cancel.load(Ordering::Relaxed);
        let mut scalar = 0;
        for k in 0..SHARD_PHASES.len() {
            for s in cs..ce {
                if cancelled() {
                    break;
                }
                if let Err(e) = self.shard_step(sched, chunk, exec, k, cs, s, scalar) {
                    chunk.err = Some(e);
                    sched.cancel.store(true, Ordering::Relaxed);
                }
            }
            if k == SHARD_PHASES.len() - 1 {
                break;
            }
            // Sync point k + 1: every shard's result is deposited.
            if let Some(barrier) = &sched.barrier {
                barrier.wait();
            }
            if cancelled() {
                continue;
            }
            let results = sched
                .deposits
                .iter()
                .map(|d| d.result[k].load(Ordering::Relaxed));
            scalar = if k == 0 {
                results.min().expect("shards >= 1")
            } else {
                match self.combine_partials(results) {
                    Ok(sum) => sum,
                    Err(e) => {
                        // Every chunk detects the same overflow; the
                        // epilogue keeps the lowest-indexed copy.
                        chunk.err = Some(e);
                        sched.cancel.store(true, Ordering::Relaxed);
                        0
                    }
                }
            };
        }
        chunk.sum = scalar;
    }

    /// Shard `s`'s step of phase `k` (the chunk's first shard is `cs`):
    /// stage its inputs, execute its phase program per `exec`, append
    /// its output to the chunk's, and deposit its result and cycles.
    #[allow(clippy::too_many_arguments)]
    fn shard_step(
        &self,
        sched: &Schedule<'_>,
        chunk: &mut ShardChunk,
        exec: &mut ShardExec<'_>,
        k: usize,
        cs: usize,
        s: usize,
        scalar: u64,
    ) -> Result<(), CoreError> {
        let phase = SHARD_PHASES[k];
        let (start, end) = sched.ranges[s];
        let (packed, rows) = Self::packing_of(sched.layout, end - start);
        let halves = 1 + usize::from(packed);
        let ShardChunk {
            tiles,
            scratch,
            half0,
            half1,
            codes,
            vapprox,
            steps,
            ..
        } = chunk;
        // Host staging: the min phase always packs the scores; the exp
        // phase re-packs them unless resident execution finds them in
        // the pinned tile. The divide phase's inputs are the chunk's
        // own `v_approx` slice.
        let (inputs, mut out): ([&[u64]; 2], Option<&mut Vec<u64>>) = match phase {
            PlanPhase::ShardDiv => {
                let base = sched.ranges[cs].0;
                let vap = &vapprox[start - base..end - base];
                ([&vap[..rows], &vap[rows.min(vap.len())..]], Some(codes))
            }
            _ if phase == PlanPhase::ShardMin || !sched.resident => {
                stage_halves(&sched.codes[start..end], sched.layout, half0, half1);
                let out = (phase == PlanPhase::ShardExp).then_some(vapprox);
                ([half0.as_slice(), half1.as_slice()], out)
            }
            _ => ([&[], &[]], Some(vapprox)),
        };
        let outs = match &mut out {
            Some(out) => std::slice::from_mut(out),
            None => &mut [],
        };
        let tile = &mut tiles[if sched.resident { s - cs } else { 0 }];
        let (stats, cols_used, result) = self.shard_phase(
            exec,
            k,
            s,
            sched.ranges,
            sched.resident,
            tile,
            scratch,
            &inputs[..halves],
            rows,
            &[scalar],
            outs,
            &mut steps[k],
        )?;
        let deposit = &sched.deposits[s];
        deposit.result[k].store(result, Ordering::Relaxed);
        deposit.cycles[k].store(stats.cycles(), Ordering::Relaxed);
        chunk.rows = chunk.rows.max(rows);
        chunk.cols_used = chunk.cols_used.max(cols_used);
        chunk.total.accumulate(&stats);
        Ok(())
    }

    /// Executes shard `i`'s phase-`k` program per `exec` — the one
    /// per-shard dispatch. Compiling, a shard whose length an earlier
    /// shard of this vector (or, with `share`, a cached plan) already
    /// has replays that program; otherwise the phase's compile-class
    /// template is instantiated at the shard's rows and costed by this
    /// execution. `inputs` hold one staged plane per half (none when a
    /// resident phase reads its planes from the pinned tile). Returns
    /// the phase stats, columns used, and result scalar.
    #[allow(clippy::too_many_arguments)]
    fn shard_phase<'d>(
        &self,
        exec: &mut ShardExec<'_>,
        k: usize,
        i: usize,
        ranges: &[(usize, usize)],
        resident: bool,
        tile: &mut ApTile,
        scratch: &mut ProgramScratch,
        inputs: &[&'d [u64]],
        rows: usize,
        scalars: &[u64],
        outs: &mut [&'d mut Vec<u64>],
        steps: &mut Vec<StepStats>,
    ) -> Result<(CycleStats, usize, u64), CoreError> {
        let phase = SHARD_PHASES[k];
        let halves = inputs.len();
        // Resident exp and divide phases read the planes the previous
        // phase left in the pinned tile.
        let rearm = resident && phase != PlanPhase::ShardMin;
        let len = ranges[i].1 - ranges[i].0;
        let cached;
        let plan: &CompiledPlan = match exec {
            ShardExec::Direct => {
                let issued = self.issue_shard_phase(
                    phase, false, tile, scratch, inputs, halves, rows, scalars, outs, steps, false,
                )?;
                return Ok((issued.stats, issued.cols_used, issued.result));
            }
            ShardExec::Replay(plan) => &plan.phase_plans[k][i],
            ShardExec::Compile { plans, share } => {
                let key = self.plan_key(len, phase, resident);
                let earlier = ranges[..i].iter().position(|&(s, e)| e - s == len);
                let found = match earlier {
                    Some(j) => Some(Arc::clone(&plans[k][j])),
                    None if *share => match self.plans.peek(&key) {
                        Some(CachedPlan::Program(p)) => Some(p),
                        _ => None,
                    },
                    None => None,
                };
                if let Some(p) = found {
                    plans[k].push(Arc::clone(&p));
                    cached = p;
                    &cached
                } else {
                    let started = std::time::Instant::now();
                    let class = self.class_key(phase, halves, resident);
                    let mut plan = self.instantiate_class(class, rows, || {
                        // Recording executes the phase, so a phase that
                        // reads planes left in the pinned tile records
                        // on a copy: the tile keeps them for the
                        // costing execution below.
                        let mut copy;
                        let rec_tile = if rearm {
                            copy = tile.clone();
                            &mut copy
                        } else {
                            &mut *tile
                        };
                        let mut sink = Vec::new();
                        let mut sinks = [&mut sink];
                        let issued = self.issue_shard_phase(
                            phase,
                            resident,
                            rec_tile,
                            scratch,
                            inputs,
                            halves,
                            rows,
                            scalars,
                            &mut sinks[..outs.len()],
                            &mut Vec::new(),
                            true,
                        )?;
                        let (program, reg) = issued.program.expect("recording returns a program");
                        Ok((program, reg, issued.cols_used))
                    })?;
                    let config = plan.program.config();
                    let program = &mut plan.program;
                    let stats = self.run_shard_phase(
                        config,
                        tile,
                        scratch,
                        inputs,
                        scalars,
                        outs,
                        steps,
                        rearm,
                        |ap, io, sc, f| program.replay_costed(ap, io, sc, f),
                    )?;
                    plan.compile_micros = started.elapsed().as_secs_f64() * 1e6;
                    let (cols_used, result) = (plan.cols_used(), scratch.reg(plan.result_reg()));
                    let p = Arc::new(plan);
                    if *share {
                        self.plans.insert(key, CachedPlan::Program(Arc::clone(&p)));
                    }
                    plans[k].push(p);
                    return Ok((stats, cols_used, result));
                }
            }
        };
        let program = plan.program();
        let pricing = phase_replay(ranges, i, resident);
        let stats = self.run_shard_phase(
            program.config(),
            tile,
            scratch,
            inputs,
            scalars,
            outs,
            steps,
            rearm,
            |ap, io, sc, f| match pricing {
                PhaseReplay::Full => program.replay(ap, io, sc, f),
                PhaseReplay::Hoisted => program.replay_resident(ap, io, sc, f),
                PhaseReplay::Lockstep => program.replay_lockstep(ap, io, sc, f),
            },
        )?;
        Ok((stats, plan.cols_used(), scratch.reg(plan.result_reg())))
    }

    /// Issues shard phase `phase` on `tile`, optionally recording it —
    /// the one issuer per phase, parameterised by field geometry
    /// ([`FieldSet::shard`]). Re-staged, the phase acquires a cleared
    /// tile at its own fields and loads `inputs` (the shard's scores,
    /// or its `v_approx` slice for the divide). Resident, it runs at
    /// the whole-vector layout: the min phase acquires the pinned tile
    /// and loads the scores (the only host staging of the resident
    /// lifetime), while the exp and divide phases re-arm it and read
    /// the planes the previous phase left behind, with no loads.
    /// Scalar input 0 carries the global minimum (exp) or the combined
    /// sum (divide); output slot 0 receives `v_approx` (exp) or the
    /// codes (divide).
    #[allow(clippy::too_many_arguments)]
    fn issue_shard_phase<'d>(
        &self,
        phase: PlanPhase,
        resident: bool,
        tile: &mut ApTile,
        scratch: &mut ProgramScratch,
        inputs: &[&'d [u64]],
        halves: usize,
        rows: usize,
        scalars: &[u64],
        outs: &mut [&'d mut Vec<u64>],
        steps: &mut Vec<StepStats>,
        record: bool,
    ) -> Result<IssuedPhase, CoreError> {
        let rearm = resident && phase != PlanPhase::ShardMin;
        let set = FieldSet::shard(phase, resident);
        let (ap, f) = self.alloc_fields(tile, set, halves, rows, rearm)?;
        let fields = &f.halves[..halves];
        let result;
        let program;
        {
            let mut on_step =
                |name: &'static str, stats: CycleStats| accumulate_step(steps, name, stats);
            let io = ExecIo::new(inputs, outs).with_scalars(scalars);
            let mut rec = Recorder::new(ap, io, scratch, &mut on_step, record);
            result = match phase {
                PlanPhase::ShardMin => {
                    for (slot, h) in fields.iter().enumerate() {
                        rec.load(h.x, slot)?;
                    }
                    rec.step("shard: write v");
                    let min = Self::issue_min_search(&mut rec, fields);
                    rec.step("shard: min search");
                    min
                }
                PlanPhase::ShardExp => {
                    if !resident {
                        for (slot, h) in fields.iter().enumerate() {
                            rec.load(h.x, slot)?;
                        }
                        rec.step("shard: rewrite v");
                    }
                    let min = rec.reg_input(0)?;
                    Self::issue_stabilize(&mut rec, fields, f.minf, min)?;
                    self.issue_exp_approx(&mut rec, fields, f.op)?;
                    let mark = "14: partial reduction";
                    let sum = self.issue_partial_reduce(&mut rec, fields, f.sumw, f.den, mark)?;
                    for h in fields {
                        rec.read(h.vapprox, 0)?;
                    }
                    sum
                }
                PlanPhase::ShardDiv => {
                    let mark = if resident {
                        "shard: write divisor"
                    } else {
                        for (slot, h) in fields.iter().enumerate() {
                            rec.load(h.vapprox, slot)?;
                        }
                        "shard: write v_approx + divisor"
                    };
                    let sum = rec.reg_input(0)?;
                    self.issue_divide(&mut rec, fields, f.den, sum, mark)?;
                    for h in fields {
                        rec.read(h.res, 0)?;
                    }
                    sum
                }
                PlanPhase::Vector => unreachable!("FieldSet::shard rejects the whole vector"),
            };
            program = rec.finish();
        }
        Ok(IssuedPhase {
            stats: ap.stats(),
            cols_used: f.end,
            result: scratch.reg(result),
            program: program.map(|p| (p, result)),
        })
    }

    /// Executes one shard-phase program on a tile through `exec` (a
    /// replay at the shard's pricing, or a fresh plan's costing replay)
    /// and returns the tile's phase stats. `rearm` keeps the tile's
    /// cells across the call (resident phases re-arm their pinned tile
    /// instead of clearing it, so the previous phase's output planes
    /// survive as this phase's inputs).
    #[allow(clippy::too_many_arguments)]
    fn run_shard_phase<'d>(
        &self,
        config: softmap_ap::ApConfig,
        tile: &mut ApTile,
        scratch: &mut ProgramScratch,
        inputs: &[&'d [u64]],
        scalars: &[u64],
        outs: &mut [&'d mut Vec<u64>],
        steps: &mut Vec<StepStats>,
        rearm: bool,
        exec: impl FnOnce(
            &mut ApCore,
            ExecIo<'_, '_>,
            &mut ProgramScratch,
            &mut dyn FnMut(&'static str, CycleStats),
        ) -> Result<(), ApError>,
    ) -> Result<CycleStats, CoreError> {
        let ap = if rearm {
            tile.rearm_resident(config, self.backend)?
        } else {
            tile.acquire(config, self.backend)?
        };
        let io = ExecIo::new(inputs, outs).with_scalars(scalars);
        exec(ap, io, scratch, &mut |name, stats| {
            accumulate_step(steps, name, stats);
        })?;
        Ok(ap.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softmap_ap::{DeviceConfig, ExecBackend};
    use softmap_softmax::PrecisionConfig;

    fn scores(len: usize) -> Vec<f64> {
        (0..len).map(|i| -(((i * 7) % 97) as f64) * 0.07).collect()
    }

    fn quantized(sm: &ApSoftmax, len: usize) -> Vec<i64> {
        let mut codes = Vec::new();
        sm.spec().quantize_into(&scores(len), &mut codes);
        codes
    }

    /// Field-by-field run equality: bit-exact outputs *and* identical
    /// cost accounting (the fan-out merely evaluates the same plan
    /// concurrently).
    fn assert_runs_equal(a: &ApSoftmaxRun, b: &ApSoftmaxRun, what: &str) {
        assert_eq!(a.codes, b.codes, "{what}: codes");
        assert_eq!(a.vapprox, b.vapprox, "{what}: vapprox");
        assert_eq!(a.steps, b.steps, "{what}: steps");
        assert_eq!(a.sum, b.sum, "{what}: sum");
        assert_eq!(a.frac_bits, b.frac_bits, "{what}: frac_bits");
        assert_eq!(a.total, b.total, "{what}: total");
        assert_eq!(a.rows, b.rows, "{what}: rows");
        assert_eq!(a.cols_used, b.cols_used, "{what}: cols_used");
        assert_eq!(a.shards, b.shards, "{what}: shards");
        assert_eq!(a.waves, b.waves, "{what}: waves");
        assert_eq!(a.latency_cycles, b.latency_cycles, "{what}: latency_cycles");
        assert_eq!(a.reduction, b.reduction, "{what}: reduction");
    }

    #[test]
    fn fanout_matches_sequential_replay_bit_and_cost_exact() {
        for resident in [true, false] {
            let sm = ApSoftmax::new(PrecisionConfig::paper_best())
                .unwrap()
                .with_autotune(false)
                .with_backend(ExecBackend::FastWord)
                .with_device(DeviceConfig::new(2, 8))
                .with_resident(resident);
            let codes = quantized(&sm, 48);
            let mut state = TileState::new();
            let mut seq = ApSoftmaxRun::default();
            // First call compiles, second replays: the reference.
            sm.execute_codes_into(&mut state, &codes, &mut seq).unwrap();
            sm.execute_codes_into(&mut state, &codes, &mut seq).unwrap();
            assert!(seq.shards > 1, "48 scores on 8-row tiles must shard");
            let mut fan_state = TileState::new();
            // More workers than shards clamps; odd counts exercise the
            // uneven contiguous chunking.
            for threads in [2, 3, 16] {
                let mut out = ApSoftmaxRun::default();
                sm.execute_codes_fanout(&mut fan_state, &codes, &mut out, threads)
                    .unwrap();
                assert_runs_equal(
                    &out,
                    &seq,
                    &format!("resident={resident} threads={threads}"),
                );
            }
        }
    }

    #[test]
    fn fanout_replays_the_autotuned_sharded_winner() {
        // Default mapping autotunes: the fan-out must resolve the tuned
        // entry's sharded winner and replay under the winning layout.
        let sm = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_backend(ExecBackend::FastWord)
            .with_device(DeviceConfig::new(2, 8));
        let codes = quantized(&sm, 48);
        let mut state = TileState::new();
        let mut seq = ApSoftmaxRun::default();
        sm.execute_codes_into(&mut state, &codes, &mut seq).unwrap();
        sm.execute_codes_into(&mut state, &codes, &mut seq).unwrap();
        let hits_before = sm.plan_stats().hits;
        let mut out = ApSoftmaxRun::default();
        sm.execute_codes_fanout(&mut state, &codes, &mut out, 2)
            .unwrap();
        assert_runs_equal(&out, &seq, "tuned winner");
        assert!(
            sm.plan_stats().hits > hits_before,
            "the fan-out replay must count as a plan-cache hit"
        );
    }

    #[test]
    fn fanout_matches_sequential_on_the_default_grid() {
        // The acceptance shape: 16384 scores on the paper's 48-tile
        // grid, through the default (autotuned) configuration.
        let sm = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_backend(ExecBackend::FastWord);
        let codes = quantized(&sm, 16384);
        let mut state = TileState::new();
        let mut seq = ApSoftmaxRun::default();
        sm.execute_codes_into(&mut state, &codes, &mut seq).unwrap();
        sm.execute_codes_into(&mut state, &codes, &mut seq).unwrap();
        assert!(seq.shards > 1);
        let mut out = ApSoftmaxRun::default();
        sm.execute_codes_fanout(&mut state, &codes, &mut out, 4)
            .unwrap();
        assert_runs_equal(&out, &seq, "default grid 16384");
    }

    #[test]
    fn fanout_falls_back_when_it_cannot_fan_out() {
        let sm = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_autotune(false)
            .with_backend(ExecBackend::FastWord)
            .with_device(DeviceConfig::new(2, 8));
        let codes = quantized(&sm, 48);
        let mut state = TileState::new();

        // First sight of a shape: the fallback compiles it.
        let mut first = ApSoftmaxRun::default();
        sm.execute_codes_fanout(&mut state, &codes, &mut first, 4)
            .unwrap();
        assert!(
            sm.plan_stats().compiles >= 1,
            "the sequential fallback must compile the shape"
        );
        let mut seq = ApSoftmaxRun::default();
        sm.execute_codes_into(&mut state, &codes, &mut seq).unwrap();
        assert_eq!(first.codes, seq.codes, "compile and replay stay bit-exact");

        // The shape is cached now; a second fan-out takes the parallel
        // path and matches the sequential replay exactly.
        let mut out = ApSoftmaxRun::default();
        sm.execute_codes_fanout(&mut state, &codes, &mut out, 4)
            .unwrap();
        assert_runs_equal(&out, &seq, "post-compile fan-out");

        // A single effective worker replays sequentially.
        let mut one = ApSoftmaxRun::default();
        sm.execute_codes_fanout(&mut state, &codes, &mut one, 1)
            .unwrap();
        assert_runs_equal(&one, &seq, "threads=1 fallback");

        // Unsharded shapes route to the whole-vector path.
        let short = quantized(&sm, 8);
        let mut whole = ApSoftmaxRun::default();
        sm.execute_codes_fanout(&mut state, &short, &mut whole, 4)
            .unwrap();
        assert_eq!(whole.shards, 1, "8 scores fit one 8-row tile");

        // Empty input errors identically to the sequential entry point.
        let mut sink = ApSoftmaxRun::default();
        assert!(matches!(
            sm.execute_codes_fanout(&mut state, &[], &mut sink, 2),
            Err(CoreError::EmptyInput)
        ));
    }
}
