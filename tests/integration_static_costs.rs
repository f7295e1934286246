//! The static costs recorded in `BENCH_ap.json`, pinned in tier-1.
//!
//! These are exact simulated device-cycle counts from compiled plans
//! (static == simulated is test-enforced elsewhere), compiled from the
//! deterministic representative input, so they are host-invariant: any
//! change to how plans are compiled, optimized, instantiated or costed
//! that moves one of them is a change to the device schedule.

use softmap::ApSoftmax;
use softmap_ap::{ExecBackend, OptLevel};
use softmap_softmax::PrecisionConfig;

/// The production mapping with every knob pinned, so no environment
/// override can move the numbers.
fn mapping(autotune: bool, opt: OptLevel) -> ApSoftmax {
    ApSoftmax::new(PrecisionConfig::paper_best())
        .unwrap()
        .with_backend(ExecBackend::FastWord)
        .with_autotune(autotune)
        .with_opt_level(opt)
        .with_resident(true)
        .with_blocked(true)
}

#[test]
fn autotuned_and_default_cycles_match_the_recorded_bench() {
    // (sequence length, autotune_cycles_seq*, autotune_default_cycles_seq*)
    let recorded = [
        (64, 14_536, 29_049),
        (512, 14_568, 29_093),
        (1024, 14_576, 29_101),
        (2048, 14_584, 29_109),
        (4096, 14_608, 29_117),
        (8192, 14_636, 29_147),
        (16384, 14_676, 29_187),
        (32768, 14_740, 29_251),
    ];
    let tuned = mapping(true, OptLevel::Full);
    let default = mapping(false, OptLevel::Full);
    for (len, tuned_cycles, default_cycles) in recorded {
        let t = tuned.static_cost(len).unwrap().cycles();
        let d = default.static_cost(len).unwrap().cycles();
        assert_eq!(t, tuned_cycles, "autotune_cycles_seq{len}");
        assert_eq!(d, default_cycles, "autotune_default_cycles_seq{len}");
        let plan = tuned.tuned_plan(len).unwrap();
        assert_eq!(
            plan.default_cost().total.cycles(),
            default_cycles,
            "seq{len}"
        );
    }
}

#[test]
fn optimized_and_unoptimized_cycles_at_the_deployment_tile() {
    // opt_cycles_rows2048 / unopt_cycles_rows2048: 4096 scores packed
    // two words per row on one 2048-row tile.
    let opt = mapping(false, OptLevel::Full).static_cost(4096).unwrap();
    let unopt = mapping(false, OptLevel::None).static_cost(4096).unwrap();
    assert_eq!(opt.cycles(), 29_117, "opt_cycles_rows2048");
    assert_eq!(unopt.cycles(), 36_161, "unopt_cycles_rows2048");
}
