//! Planned inference is bit-identical to the autograd tape on real frames
//! of every [`Scenario`] — a cold full-frame read, then random samples in
//! the eye's region — for [`SparseViT::forward_batch`] over solo and
//! mixed-layout batches (with an empty-mask frame) and for
//! [`RoiPredictionNet::forward`], at 1, 2 and 8 threads. Serving is a
//! deterministic function of these outputs, so this pins planned serving
//! to the tape.

use bliss_eye::{render_sequence_with, Scenario, SequenceConfig};
use bliss_nn::Module;
use bliss_tensor::{inference_mode, NdArray};
use bliss_track::util::frame_difference_events;
use bliss_track::{
    apply_strategy, RoiNetConfig, RoiPredictionNet, SamplingStrategy, SparseViT, ViTConfig,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// [`SequenceConfig::miniature`]'s frame size.
const WIDTH: usize = 160;
const HEIGHT: usize = 100;

/// Runs `f` on the compiled plans (`planned`) or on the tape.
fn on_engine<R>(planned: bool, f: impl FnOnce() -> R) -> R {
    if planned {
        inference_mode(f)
    } else {
        f()
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn planned_models_match_the_tape_on_every_scenario_and_thread_count() {
    let mut rng = StdRng::seed_from_u64(5);
    let vit = SparseViT::new(&mut rng, ViTConfig::miniature(WIDTH, HEIGHT));
    let roi_cfg = RoiNetConfig::miniature(WIDTH, HEIGHT);
    let roi_net = RoiPredictionNet::new(&mut rng, roi_cfg);
    // Non-zero biases and off-identity norms, as trained weights have.
    for p in vit.parameters().into_iter().chain(roi_net.parameters()) {
        p.update_value(|v| {
            v.data_mut()
                .iter_mut()
                .for_each(|x| *x += rng.gen_range(-0.05f32..0.05))
        });
    }

    let mut sparse = Vec::new();
    let mut roi_inputs: Vec<NdArray> = Vec::new();
    for (i, scenario) in Scenario::ALL.iter().enumerate() {
        let cfg = SequenceConfig::miniature(4, i as u64);
        let seq = render_sequence_with(&cfg, scenario.trajectory_config(cfg.fps));
        for (t, frame) in seq.frames.iter().enumerate() {
            let strategy = match t {
                0 => SamplingStrategy::FullRandom { rate: 1.0 },
                _ => SamplingStrategy::RoiRandom { rate: 0.3 },
            };
            let (clean, roi) = (&frame.clean, frame.roi);
            let s = apply_strategy(&strategy, clean, WIDTH, HEIGHT, roi, None, 0.0, &mut rng);
            sparse.push((s.values, s.mask));
            let prev = &seq.frames[t.saturating_sub(1)];
            let events = frame_difference_events(clean, &prev.clean, 0.02);
            roi_inputs.push(roi_cfg.make_input(&events, &prev.mask));
        }
    }

    // Every frame alone (the solo `forward` path), then groups of 3 and 8
    // with the empty-mask frame second.
    let empty = vec![0.0f32; WIDTH * HEIGHT];
    let mut batches: Vec<Vec<(&[f32], &[f32])>> = Vec::new();
    for size in [1usize, 3, 8] {
        for group in sparse.chunks(size) {
            let mut batch: Vec<(&[f32], &[f32])> =
                group.iter().map(|(i, m)| (&i[..], &m[..])).collect();
            if size > 1 {
                batch.insert(1.min(batch.len()), (&empty[..], &empty[..]));
            }
            batches.push(batch);
        }
    }

    // Per batch and frame: pixel indices, token count and logits bits; per
    // ROI input: the box bits.
    let run = |planned: bool| {
        let vit_out: Vec<Vec<_>> = batches
            .iter()
            .map(|b| {
                let preds = on_engine(planned, || vit.forward_batch(b)).expect("vit forward");
                let frame = |p: bliss_track::SegPrediction| {
                    let logits = bits(p.logits.value().data());
                    (p.pixel_indices.to_vec(), p.tokens, logits)
                };
                preds.into_iter().map(|p| p.map(frame)).collect()
            })
            .collect();
        let roi_out: Vec<Vec<u32>> = roi_inputs
            .iter()
            .map(|input| {
                let out = on_engine(planned, || roi_net.forward(input)).expect("roi forward");
                let box_bits = bits(out.value().data());
                box_bits
            })
            .collect();
        (vit_out, roi_out)
    };

    let mut reference = None;
    for threads in [1usize, 2, 8] {
        let (tape, planned) = bliss_parallel::with_thread_count(threads, || {
            bliss_parallel::with_min_parallel_work(0, || (run(false), run(true)))
        });
        assert!(
            tape.0.iter().flatten().any(Option::is_none),
            "empty-mask frames must yield no prediction"
        );
        assert_eq!(planned.0, tape.0, "ViT at {threads} threads");
        assert_eq!(planned.1, tape.1, "ROI net at {threads} threads");
        let reference = reference.get_or_insert(tape);
        assert_eq!(planned, *reference, "outputs changed at {threads} threads");
    }
    assert!(vit.plan_stats().hits > 0, "ViT plans were never reused");
    let roi_stats = roi_net.plan_stats();
    assert_eq!((roi_stats.plans, roi_stats.misses), (1, 1), "{roi_stats:?}");
}
