//! End-to-end acceptance of the capacity-bounded device model: a
//! 16384-token softmax on the paper's fixed 2048-row tiles runs
//! sharded, matches the scalar I-BERT specification bit-exactly, and
//! the static cost path answers the sharded shape with
//! static == simulated.

use softmap::{
    ApDeployment, ApSoftmax, ApSoftmaxRun, PlanMode, ServeConfig, SoftmaxServer, TileState,
    WorkloadModel,
};
use softmap_ap::{DeviceConfig, ExecBackend};
use softmap_softmax::{IntSoftmax, PrecisionConfig};

#[test]
fn seq_16384_on_2048_row_tiles_is_bit_exact_and_statically_costed() {
    let cfg = PrecisionConfig::paper_best();
    let scores: Vec<f64> = (0..16384)
        .map(|i| -f64::from((i % 97) as u32) * 7.0 / 97.0)
        .collect();

    // Sharded execution on the default device (48 x 2048-row tiles).
    // Pinned to the paper-default mapping: this acceptance test
    // characterizes the packed four-shard regime (the autotuner's
    // choice for this shape has its own acceptance coverage).
    let mapping = ApSoftmax::new(cfg)
        .unwrap()
        .with_autotune(false)
        .with_backend(ExecBackend::FastWord);
    assert_eq!(mapping.device().rows_per_tile, 2048);
    let run = mapping.execute_floats(&scores).unwrap();
    assert_eq!(run.shards, 4, "16384 scores = 4 x 2048-row shards");
    assert_eq!(run.waves, 1, "48 tiles hold 4 shards in one wave");
    assert!(run.reduction.cycles() > 0);

    // Bit-exact against the scalar specification.
    let scalar = IntSoftmax::new(cfg).unwrap().run_floats(&scores).unwrap();
    assert_eq!(run.codes, scalar.codes);
    assert_eq!(run.vapprox, scalar.vapprox);
    assert_eq!(run.sum, scalar.sum);

    // static == simulated for the sharded shape, through both the
    // mapping-level query and the deployment model.
    let vc = mapping.static_vector_cost(16384).unwrap();
    assert_eq!(vc.total, run.total);
    assert_eq!(vc.latency_cycles, run.latency_cycles);
    assert_eq!(vc.shards, run.shards);
    let wm = WorkloadModel::new(cfg, ApDeployment::default()).unwrap();
    assert_eq!(wm.vector_stats(16384).unwrap(), run.total);
    let cost = wm.cost(1, 1, 16384, 1).unwrap();
    assert_eq!(cost.shards_per_vector, 4);
    assert!(cost.latency_s > 0.0 && cost.energy_j > 0.0);
}

#[test]
fn sharded_and_whole_regimes_agree_at_the_boundary() {
    // 4096 scores fit exactly one tile; 4098 must shard. Both match
    // the scalar spec, and the boundary does not distort results.
    let cfg = PrecisionConfig::paper_best();
    let spec = IntSoftmax::new(cfg).unwrap();
    for len in [4096usize, 4098] {
        let scores: Vec<f64> = (0..len).map(|i| -((i % 89) as f64) * 0.075).collect();
        let run = ApSoftmax::new(cfg)
            .unwrap()
            .with_autotune(false)
            .with_backend(ExecBackend::FastWord)
            .execute_floats(&scores)
            .unwrap();
        assert_eq!(run.shards, if len == 4096 { 1 } else { 2 }, "len {len}");
        let scalar = spec.run_floats(&scores).unwrap();
        assert_eq!(run.codes, scalar.codes, "len {len}");
        assert_eq!(run.sum, scalar.sum, "len {len}");
    }
}

/// How a table case executes its vector.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Compile, then replay the cached sharded plan on one tile state.
    Inline,
    /// Re-issue the dataflow op by op (`PlanMode::DirectIssue`).
    Direct,
    /// A 2-worker server with `shard_parallel`: the cached replay fans
    /// its shards across host threads (on hosts with two or more cores).
    Served,
    /// The autotuner's winner, replayed from the tuned cache entry.
    Autotuned,
}

fn execute(mapping: ApSoftmax, path: Path, scores: &[f64]) -> ApSoftmaxRun {
    let mapping = match path {
        Path::Direct => mapping.with_plan_mode(PlanMode::DirectIssue),
        _ => mapping.with_autotune(path == Path::Autotuned),
    };
    if path == Path::Served {
        let config = ServeConfig {
            workers: 2,
            queue_depth: 4,
            warmup_shapes: vec![scores.len()],
            shard_parallel: true,
        };
        let server = SoftmaxServer::new(mapping, config).unwrap();
        return server.submit(scores).unwrap().wait().unwrap();
    }
    let mut state = TileState::new();
    let mut run = ApSoftmaxRun::default();
    for _ in 0..2 {
        mapping
            .execute_floats_into(&mut state, scores, &mut run)
            .unwrap();
    }
    run
}

fn assert_runs_agree(a: &ApSoftmaxRun, b: &ApSoftmaxRun, what: &str) {
    assert_eq!(a.codes, b.codes, "{what}: codes");
    assert_eq!(a.vapprox, b.vapprox, "{what}: vapprox");
    assert_eq!(a.sum, b.sum, "{what}: sum");
    assert_eq!(a.frac_bits, b.frac_bits, "{what}: frac_bits");
    assert_eq!(a.total, b.total, "{what}: total");
    assert_eq!(a.steps, b.steps, "{what}: steps");
    assert_eq!(a.rows, b.rows, "{what}: rows");
    assert_eq!(a.cols_used, b.cols_used, "{what}: cols_used");
    assert_eq!(a.shards, b.shards, "{what}: shards");
    assert_eq!(a.waves, b.waves, "{what}: waves");
    assert_eq!(a.latency_cycles, b.latency_cycles, "{what}: latency");
    assert_eq!(a.reduction, b.reduction, "{what}: reduction");
}

#[test]
fn microcode_and_fastword_agree_on_a_sharded_vector() {
    // Cycle- and bit-exact dual-backend contract through every sharded
    // execution path, kept cheap with a small device: three 16-row
    // tiles hold 96 packed scores per wave, so 90 scores run resident
    // in one wave and 100 scores re-stage over two waves.
    let cfg = PrecisionConfig::paper_best();
    let dev = DeviceConfig::new(3, 16);
    let cases = [
        ("inline replay, resident single wave", 90, Path::Inline, 1),
        ("inline replay, re-staged multi-wave", 100, Path::Inline, 2),
        ("direct issue, single wave", 90, Path::Direct, 1),
        ("direct issue, multi-wave", 100, Path::Direct, 2),
        ("served fan-out, resident single wave", 90, Path::Served, 1),
        ("served fan-out, re-staged multi-wave", 100, Path::Served, 2),
        ("autotuned sharded winner", 90, Path::Autotuned, 1),
    ];
    for (what, len, path, waves) in cases {
        let scores: Vec<f64> = (0..len).map(|i| -((i % 71) as f64) * 0.09).collect();
        let runs = [ExecBackend::Microcode, ExecBackend::FastWord].map(|backend| {
            let mapping = ApSoftmax::new(cfg)
                .unwrap()
                .with_backend(backend)
                .with_device(dev);
            execute(mapping, path, &scores)
        });
        assert!(runs[1].shards > 1, "{what}: must shard");
        assert_eq!(runs[1].waves, waves, "{what}: waves");
        assert_runs_agree(&runs[0], &runs[1], what);
        if path == Path::Served {
            // The fan-out replays the same plan the inline path does.
            let mapping = ApSoftmax::new(cfg)
                .unwrap()
                .with_backend(ExecBackend::FastWord)
                .with_device(dev);
            let inline = execute(mapping, Path::Inline, &scores);
            assert_runs_agree(&runs[1], &inline, what);
        }
    }
}
