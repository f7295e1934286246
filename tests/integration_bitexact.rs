//! Cross-crate integration: the AP-mapped dataflow must reproduce the
//! scalar Algorithm 1 specification bit-for-bit, across precisions,
//! layouts, lengths and division styles.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use softmap::{ApSoftmax, Layout};
use softmap_ap::DivStyle;
use softmap_softmax::{IntSoftmax, PrecisionConfig, SumMode};

fn random_scores(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| -rng.random::<f64>() * 9.0).collect()
}

#[test]
fn bit_exact_across_the_paper_grid() {
    let mut rng = StdRng::seed_from_u64(20_250_610);
    for m in [4u32, 6, 8] {
        for delta in [0u32, 1, 2] {
            for n in [8u32, 12, 16, 20] {
                let cfg = PrecisionConfig::new(m, delta, n);
                let scores = random_scores(&mut rng, 64);
                let scalar = IntSoftmax::new(cfg).unwrap().run_floats(&scores).unwrap();
                let run = ApSoftmax::new(cfg)
                    .unwrap()
                    .execute_floats(&scores)
                    .unwrap();
                assert_eq!(run.vapprox, scalar.vapprox, "{}", cfg.label());
                assert_eq!(run.sum, scalar.sum, "{}", cfg.label());
                assert_eq!(run.codes, scalar.codes, "{}", cfg.label());
            }
        }
    }
}

#[test]
fn bit_exact_across_lengths_and_layouts() {
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = PrecisionConfig::paper_best();
    for len in [2usize, 3, 7, 16, 33, 128, 511, 1024] {
        let scores = random_scores(&mut rng, len);
        let scalar = IntSoftmax::new(cfg).unwrap().run_floats(&scores).unwrap();
        for layout in [Layout::TwoWordsPerRow, Layout::OneWordPerRow] {
            let run = ApSoftmax::new(cfg)
                .unwrap()
                .with_layout(layout)
                .execute_floats(&scores)
                .unwrap();
            assert_eq!(run.codes, scalar.codes, "len {len}, layout {layout:?}");
        }
    }
}

#[test]
fn bit_exact_with_saturating_and_wrapping_sums() {
    // Long, flat inputs force sum truncation; both overflow behaviours
    // must match the scalar spec exactly.
    for mode in [SumMode::Saturate, SumMode::Wrap] {
        let cfg = PrecisionConfig::new(6, 0, 1).with_sum_mode(mode);
        let scores = vec![-0.05f64; 512];
        let scalar = IntSoftmax::new(cfg).unwrap().run_floats(&scores).unwrap();
        assert!(scalar.sum_overflowed, "mode {mode:?} must overflow");
        let run = ApSoftmax::new(cfg)
            .unwrap()
            .execute_floats(&scores)
            .unwrap();
        assert_eq!(run.sum, scalar.sum, "mode {mode:?}");
        assert_eq!(run.codes, scalar.codes, "mode {mode:?}");
    }
}

#[test]
fn reciprocal_division_within_one_ulp_of_spec() {
    let mut rng = StdRng::seed_from_u64(99);
    let cfg = PrecisionConfig::paper_best();
    let scores = random_scores(&mut rng, 32);
    let scalar = IntSoftmax::new(cfg).unwrap().run_floats(&scores).unwrap();
    let run = ApSoftmax::new(cfg)
        .unwrap()
        .with_div_style(DivStyle::ControllerReciprocal)
        .execute_floats(&scores)
        .unwrap();
    for (i, (&got, &want)) in run.codes.iter().zip(&scalar.codes).enumerate() {
        assert!(
            got <= want && want - got <= 1,
            "element {i}: ap {got} vs scalar {want}"
        );
    }
}

#[test]
fn quantizer_agrees_between_crates() {
    // The softmax crate's quantizer and the generic quant crate must
    // agree on the paper's scheme.
    let cfg = PrecisionConfig::new(8, 0, 16);
    let sm = IntSoftmax::new(cfg).unwrap();
    let q = softmap_quant::LinearQuantizer::with_scale(
        cfg.scale(),
        softmap_quant::IntFormat::signed(cfg.m),
    )
    .unwrap();
    for &x in &[0.0, -0.5, -3.3, -6.99, -7.0] {
        let via_softmax = sm.quantize(&[0.0, x])[1];
        let via_quant = q.quantize(x).max(-cfg.max_code_magnitude());
        assert_eq!(via_softmax, via_quant, "x = {x}");
    }
}

#[test]
fn scalar_spec_and_ap_path_reject_the_same_non_finite_scores() {
    use softmap::{ApMappedSoftmax, CoreError, ServeConfig, SoftmaxServer};
    use softmap_llm::softmax_impls::{IntApproxSoftmax, SoftmaxFn};
    use softmap_softmax::SoftmaxError;

    let cfg = PrecisionConfig::paper_best();
    let scalar = IntSoftmax::new(cfg).unwrap();
    let mapping = ApSoftmax::new(cfg).unwrap();
    let server = SoftmaxServer::new(mapping.clone(), ServeConfig::default()).unwrap();
    let bridge = ApMappedSoftmax::with_mapping(mapping.clone());
    let scalar_f32 = IntApproxSoftmax::new(cfg).unwrap();
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let cases: [(&[f64], Option<usize>); 9] = [
        (&[nan, 0.0], Some(0)),
        (&[0.0, nan], Some(1)),
        (&[0.0, -1.0, inf], Some(2)),
        (&[inf, nan], Some(0)),
        (&[-1.0, nan, -2.0, inf], Some(1)),
        // -inf is a valid score: probability 0 ...
        (&[f64::NEG_INFINITY, 0.0, -1.0], None),
        // ... and an all -inf row quantizes like equal scores.
        (&[f64::NEG_INFINITY; 4], None),
        (&[f64::MAX, f64::MIN, 0.0], None),
        (&[-0.0, 0.0, -1e-300], None),
    ];
    for (scores, bad) in cases {
        let spec = scalar.run_floats(scores);
        let ap = mapping.execute_floats(scores);
        let served = server.submit(scores).and_then(|t| t.wait());
        let row: Vec<f32> = scores.iter().map(|&s| s as f32).collect();
        match bad {
            Some(index) => {
                let want = SoftmaxError::NonFinite { index };
                assert_eq!(spec.unwrap_err(), want, "{scores:?}");
                assert_eq!(ap.unwrap_err(), CoreError::Softmax(want.clone()));
                assert_eq!(served.unwrap_err(), CoreError::Softmax(want));
                assert!(bridge.apply(&row).is_err(), "{scores:?}");
                assert!(scalar_f32.apply(&row).is_err(), "{scores:?}");
            }
            None => {
                let codes = spec.unwrap().codes;
                assert_eq!(ap.unwrap().codes, codes, "{scores:?}");
                assert_eq!(served.unwrap().codes, codes, "{scores:?}");
                // (f64::MAX narrows to f32 +inf: both reject that row.)
                let (b, f) = (bridge.apply(&row), scalar_f32.apply(&row));
                assert_eq!(b.ok(), f.ok(), "{scores:?}");
            }
        }
    }
    // A rejected submission takes no slot: the server still serves.
    let ok = server.submit(&[0.0, -1.0]).unwrap().wait().unwrap();
    assert_eq!(ok.codes, scalar.run_floats(&[0.0, -1.0]).unwrap().codes);
}
