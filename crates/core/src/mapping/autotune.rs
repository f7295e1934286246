//! The static-cost-driven **mapping autotuner**: plan compilation as a
//! search over candidate mappings instead of a transcription of the
//! configured one.
//!
//! The paper fixes one mapping — two words per row, restoring
//! division, greedy capacity-filling shard partition. Our stack's
//! static-cost contract (`static == simulated`, exact for the compile
//! input) makes a stronger primitive available: any candidate mapping
//! can be compiled once and scored *exactly*, without a roofline
//! approximation and without executing it ever again. When autotuning
//! is enabled (the default; see [`AUTOTUNE_ENV`] /
//! [`ApSoftmax::with_autotune`]), the first vector of each cached
//! shape compiles every distinct candidate, scores them
//! lexicographically by `(total work cycles, device critical path,
//! cell events)`, and installs the winner as a [`TunedPlan`] — further
//! vectors replay the winner with the same zero-allocation steady
//! state as an untuned plan.
//!
//! A candidate compiles like any plan: its programs are instantiated
//! from the compile-class templates at the candidate's rows (see
//! `crate::plan`) and costed by one execution of the request's own
//! input on the request's tile. That execution *is* the request's
//! result when the candidate wins, so a first-sight shape costs one
//! execution per distinct candidate and no replay.
//!
//! # Search space and pruning
//!
//! | axis | candidates | why |
//! |---|---|---|
//! | [`Layout`] | both, unless pinned via [`ApSoftmax::with_layout`] | both layouts are bit-exact; they trade rows for per-step passes |
//! | shard partition | greedy default + balanced splits at `k_min ..= min(k_min + 2, tiles)` shards | balanced equal-length shards maximize resident SIMD-lockstep sharing |
//! | [`DivStyle`] | configured style only | the controller-reciprocal divider is ≤ 1 ULP, **not** bit-exact — searching it would break the exactness contract |
//! | `OptLevel` | configured level only | cost is non-increasing along [`softmap_ap::OptLevel::ladder`], so the configured level dominates |
//! | residency | resident-whenever-legal (the existing per-vector rule) | the resident plan is never costlier than re-staging on the same partition |
//!
//! Candidates are compared by their *effective* mapping — the
//! partition plus each shard's packing — and only distinct ones are
//! scored: an odd length packs one word per row under both layouts,
//! and a balanced split can coincide with the greedy one, so such
//! duplicates would only re-score an identical execution. The bound is
//! `2 layouts × (1 greedy + 3 balanced partitions) = 8` costing
//! executions per shape, and a single-tile shape scores two (even
//! lengths) or one (odd lengths) — paid once per shape and amortized
//! by the plan cache like any other compile.
//!
//! # Contracts
//!
//! * Every candidate must reproduce the configured default mapping's
//!   outputs bit-for-bit on the compile input; a candidate that does
//!   not (impossible by construction, checked anyway) is discarded.
//! * The default mapping is always candidate zero and wins ties, so
//!   the winner's static cost is **never worse** than the default's.
//! * `static == simulated` holds for the winner because the winner
//!   *is* an ordinary compiled plan — the tuned entry just wraps it.
//! * `SOFTMAP_AUTOTUNE=0` / `with_autotune(false)` restores the
//!   untuned compile paths byte-identically (tuned entries live under
//!   their own [`PlanKey`] axis and never shadow untuned ones).
//!
//! Scoring is per-vector: total work first, then critical path, then
//! cell events. Tile *occupancy* (a one-word-per-row winner may use
//! twice the shards) is deliberately not scored — the deployment-level
//! throughput model already accounts for waves, and a deployment that
//! wants the paper's occupancy pins the layout.

use std::sync::Arc;

use super::{ApSoftmax, ApSoftmaxRun, CoreError, Layout, TileState, VectorCost};
use crate::plan::{CachedPlan, CandidateScore, MappingChoice, TunedPlan};

/// Environment variable enabling/disabling the mapping autotuner:
/// `0`/`false` compiles the configured mapping exactly as before the
/// autotuner existed, `1`/`true` (the default) searches candidate
/// mappings per shape and installs the statically cheapest bit-exact
/// winner. Invalid values warn once and keep the default.
pub const AUTOTUNE_ENV: &str = "SOFTMAP_AUTOTUNE";

/// One enumerated candidate: a layout plus its shard partition (`None`
/// = the whole vector on one tile).
struct Candidate {
    layout: Layout,
    ranges: Option<Vec<(usize, usize)>>,
    balanced: bool,
}

/// How far past the minimum shard count the balanced-partition axis
/// searches (`k_min ..= k_min + BALANCED_SPREAD`, capped at the tile
/// grid).
const BALANCED_SPREAD: usize = 2;

impl ApSoftmax {
    /// Compiles and scores every distinct candidate mapping for this
    /// input, returning the winner wrapped in a [`TunedPlan`]. Each
    /// candidate compiles from the compile-class templates and is
    /// costed by one execution of the *actual* input on `state`'s tile
    /// — which anchors the winner's static cost to it and verifies
    /// bit-exactness against the default mapping. The winner's
    /// execution is left in `run`, so the request needs no replay.
    /// Shard-phase programs of candidates are not shared through the
    /// plan cache: the cache sees exactly one insert per tuned shape.
    pub(super) fn search_mappings(
        &self,
        state: &mut TileState,
        codes: &[i64],
        run: &mut ApSoftmaxRun,
    ) -> Result<Arc<TunedPlan>, CoreError> {
        let started = std::time::Instant::now();
        let candidates = self.enumerate_candidates(codes.len())?;
        let mut scores = Vec::with_capacity(candidates.len());
        let mut default_cost: Option<VectorCost> = None;
        let mut best: Option<(VectorCost, MappingChoice, CachedPlan)> = None;
        let mut crun = ApSoftmaxRun::default();
        for cand in &candidates {
            let compiled = match &cand.ranges {
                None => self
                    .execute_whole(state, codes, &mut crun, cand.layout, None, true)
                    .map(|p| CachedPlan::Program(Arc::new(p.expect("compiling returns a plan")))),
                Some(ranges) => self
                    .compile_sharded(state, codes, &mut crun, ranges, cand.layout, false)
                    .map(|p| CachedPlan::Sharded(Arc::new(p))),
            };
            let entry = match compiled {
                Ok(entry) => entry,
                // The default mapping (candidate zero) must work; its
                // failure is the caller's error, exactly as without the
                // autotuner.
                Err(e) if default_cost.is_none() => return Err(e),
                // An alternative candidate that cannot execute is
                // merely pruned.
                Err(_) => continue,
            };
            // Exactness guard: `run` holds the best candidate so far,
            // which reproduces the default mapping's outputs; a
            // candidate that does not is discarded.
            if best.is_some()
                && (crun.codes != run.codes || crun.vapprox != run.vapprox || crun.sum != run.sum)
            {
                debug_assert!(false, "candidate mapping is not bit-exact");
                continue;
            }
            let cost = Self::entry_vector_cost(&entry);
            let resident = matches!(&entry, CachedPlan::Sharded(p) if p.resident);
            let choice = MappingChoice {
                layout: cand.layout,
                div: self.div_style,
                opt: self.opt_level,
                resident,
                shards: cost.shards,
                balanced: cand.balanced,
            };
            scores.push(CandidateScore {
                choice,
                cycles: cost.total.cycles(),
                latency_cycles: cost.latency_cycles,
                cell_events: cost.total.cell_events(),
            });
            if default_cost.is_none() {
                default_cost = Some(cost);
            }
            // Strict comparison: the default (scored first) wins ties,
            // so the winner is never statically worse than it.
            let key = |c: &VectorCost| (c.total.cycles(), c.latency_cycles, c.total.cell_events());
            if best.as_ref().is_none_or(|(bc, _, _)| key(&cost) < key(bc)) {
                std::mem::swap(run, &mut crun);
                best = Some((cost, choice, entry));
            }
        }
        let (winner_cost, choice, plan) = best
            .ok_or_else(|| CoreError::BadWorkload("autotune search scored no candidate".into()))?;
        let default_cost = default_cost.expect("default candidate scored");
        Ok(Arc::new(TunedPlan {
            choice,
            plan,
            winner_cost,
            default_cost,
            scores,
            compile_micros: started.elapsed().as_secs_f64() * 1e6,
        }))
    }

    /// Enumerates the distinct candidate mappings for a vector of `len`
    /// elements under the documented pruning rule. The configured
    /// default mapping is always candidate zero; a later candidate that
    /// executes exactly like an earlier one — the same partition with
    /// the same per-shard packing, as both layouts pack an odd length
    /// one word per row — is dropped.
    ///
    /// # Errors
    ///
    /// The default mapping's partition error, exactly as without the
    /// autotuner.
    fn enumerate_candidates(&self, len: usize) -> Result<Vec<Candidate>, CoreError> {
        let mut out: Vec<Candidate> = Vec::new();
        let mut seen: Vec<Vec<(usize, usize, bool)>> = Vec::new();
        let mut push = |out: &mut Vec<Candidate>, cand: Candidate| {
            let whole = [(0, len)];
            let ranges = cand.ranges.as_deref().unwrap_or(&whole);
            let effective: Vec<(usize, usize, bool)> = ranges
                .iter()
                .map(|&(s, e)| (s, e, Self::packing_of(cand.layout, e - s).0))
                .collect();
            if !seen.contains(&effective) {
                seen.push(effective);
                out.push(cand);
            }
        };
        let mut layouts = vec![self.layout];
        if !self.layout_pinned {
            layouts.extend(
                [Layout::TwoWordsPerRow, Layout::OneWordPerRow]
                    .into_iter()
                    .filter(|&l| l != self.layout),
            );
        }
        for layout in layouts {
            let is_default = layout == self.layout;
            let (_, rows) = Self::packing_of(layout, len);
            if rows <= self.device.rows_per_tile {
                // Whole-vector under this layout: no partition axis.
                let cand = Candidate {
                    layout,
                    ranges: None,
                    balanced: false,
                };
                push(&mut out, cand);
                continue;
            }
            let wpr = match layout {
                Layout::TwoWordsPerRow => 2,
                Layout::OneWordPerRow => 1,
            };
            let mut greedy = Vec::new();
            match self.device.partition_into(len, wpr, &mut greedy) {
                Ok(()) => {}
                Err(e) if is_default => return Err(CoreError::Ap(e)),
                Err(_) => continue,
            }
            let cap = self.device.shard_capacity(wpr);
            let k_min = len.div_ceil(cap);
            let k_max = (k_min + BALANCED_SPREAD).min(self.device.tiles.max(1));
            let mut candidates = vec![(greedy, false)];
            for k in k_min..=k_max {
                let mut balanced = Vec::new();
                if self
                    .device
                    .balanced_partition_into(len, wpr, k, &mut balanced)
                    .is_ok()
                {
                    candidates.push((balanced, true));
                }
            }
            for (ranges, balanced) in candidates {
                let cand = Candidate {
                    layout,
                    ranges: Some(ranges),
                    balanced,
                };
                push(&mut out, cand);
            }
        }
        Ok(out)
    }
}
