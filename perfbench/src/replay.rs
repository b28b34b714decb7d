//! Stage replay: the layers below `step_batch` timed one call at a time.
//!
//! A served shard's sessions are rebuilt from their configs and driven
//! through the same public stages the serve layer composes — render,
//! `SparseFrontEnd::new`, sense + ROI input, `RoiPredictionNet::forward`,
//! sampled readout, one `SparseViT::forward_batch` per recorded batch
//! (inside `bliss_tensor::inference_mode`), `absorb` — with exactly the
//! batches the served run executed. Stages run serially here, so each span
//! is one call's own time. Every replayed frame must reproduce its served
//! `FrameRecord`: otherwise the per-layer numbers would describe some other
//! program.

use crate::run::{Model, Shard};
use crate::trace::Tracer;
use bliss_eye::{render_sequence_with, EyeSequence, SequenceConfig};
use bliss_tensor::{inference_mode, TensorError};
use blisscam_core::{SensedFrame, SparseFrontEnd, SystemConfig};

/// Mismatches kept verbatim per replay; the rest are only counted.
const MAX_REPORTED: usize = 8;

/// Counts the replay gathered alongside its spans.
#[derive(Debug, Default)]
pub struct Replay {
    pub frames: usize,
    pub cold_frames: usize,
    pub sampled_px: u64,
    pub mipi_bytes: u64,
    pub tokens: u64,
    pub launches: usize,
    pub launched_frames: usize,
    /// `Σ SparseViT::macs` over every launched frame.
    pub macs: u64,
    pub mismatches: usize,
    pub first_mismatches: Vec<String>,
}

impl Replay {
    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        if self.first_mismatches.len() < MAX_REPORTED {
            self.first_mismatches.push(what);
        }
    }
}

struct Stream {
    seq: EyeSequence,
    front: SparseFrontEnd,
    next: usize,
    events: Vec<f32>,
    sensed: SensedFrame,
}

/// Replays `shard`'s recorded batches, adding to `out`.
pub fn replay(
    system: &SystemConfig,
    model: &Model,
    shard: &Shard,
    tr: &mut Tracer,
    out: &mut Replay,
) -> Result<(), TensorError> {
    let Some(outcome) = &shard.outcome else {
        out.mismatch("shard has no served outcome to replay".into());
        return Ok(());
    };
    let open = tr.begin("replay");
    let mut streams: Vec<Stream> = shard
        .sessions
        .iter()
        .map(|sc| {
            let seq_cfg = SequenceConfig {
                width: system.width,
                height: system.height,
                frames: sc.frames + 1,
                fps: system.fps as f32,
                seed: sc.seed,
            };
            let trajectory = sc.scenario.trajectory_config(seq_cfg.fps);
            let seq = tr.span("eye.render_sequence", || {
                render_sequence_with(&seq_cfg, trajectory)
            });
            let mut front = tr.span("frontend.new", || {
                SparseFrontEnd::new(system.width, system.height, sc.seed)
            });
            tr.span("frontend.begin_stream", || {
                front.begin_stream(seq.model.clone(), &seq.frames[0].clean)
            });
            Stream {
                seq,
                front,
                next: 1,
                events: Vec::new(),
                sensed: SensedFrame::default(),
            }
        })
        .collect();

    let roi_cfg = *model.roi_net.config();
    for batch in &shard.batches {
        let batch_span = tr.begin("replay.batch");
        let mut inputs = Vec::with_capacity(batch.len());
        for &slot in batch {
            let s = &mut streams[slot];
            inputs.push(tr.span("frontend.sense", || {
                s.front
                    .sense_events_into(&s.seq.frames[s.next].clean, &mut s.events);
                s.front.roi_input(&roi_cfg, &s.events)
            }));
        }
        for (&slot, input) in batch.iter().zip(&inputs) {
            let roi_out = tr.span("roi_net.forward", || {
                inference_mode(|| model.roi_net.forward(input))
            })?;
            let s = &mut streams[slot];
            out.cold_frames += usize::from(!s.front.has_feedback());
            let roi = s.front.select_box(&model.roi_net, &roi_out);
            tr.span("frontend.readout", || {
                s.front
                    .read_out_into(roi, system.sample_rate, &mut s.sensed)
            })?;
        }
        let frames: Vec<(&[f32], &[f32])> = batch
            .iter()
            .map(|&slot| {
                let sensed = &streams[slot].sensed;
                (&sensed.image[..], &sensed.mask[..])
            })
            .collect();
        let predictions = tr.span("vit.forward_batch", || {
            inference_mode(|| model.vit.forward_batch(&frames))
        })?;
        out.launches += 1;
        out.launched_frames += batch.len();
        for (&slot, prediction) in batch.iter().zip(predictions) {
            let s = &mut streams[slot];
            let (gaze, tokens) = tr.span("frontend.absorb", || s.front.absorb(prediction));
            out.frames += 1;
            out.tokens += tokens as u64;
            out.sampled_px += s.sensed.sampled as u64;
            out.mipi_bytes += s.sensed.mipi_bytes;
            if tokens > 0 {
                out.macs += model.vit.macs(tokens, s.sensed.sampled);
            }
            let index = s.next - 1;
            let served = outcome.traces[slot].records.get(index);
            let same = served.is_some_and(|r| {
                r.index == index
                    && r.gaze_prediction.horizontal_deg.to_bits() == gaze.horizontal_deg.to_bits()
                    && r.gaze_prediction.vertical_deg.to_bits() == gaze.vertical_deg.to_bits()
                    && r.tokens == tokens
                    && r.sampled_pixels == s.sensed.sampled
                    && r.mipi_bytes == s.sensed.mipi_bytes
                    && r.roi_pixels == s.sensed.roi_pixels
            });
            if !same {
                let id = shard.sessions[slot].id;
                out.mismatch(format!(
                    "session {id} frame {index}: replay gaze {gaze:?} tokens {tokens} sampled {} \
                     vs served {served:?}",
                    s.sensed.sampled
                ));
            }
            s.next += 1;
        }
        tr.end(batch_span);
    }
    for (slot, s) in streams.iter().enumerate() {
        let served = outcome.traces[slot].records.len();
        if s.next - 1 != served {
            out.mismatch(format!(
                "session {}: replayed {} frames, served {served}",
                shard.sessions[slot].id,
                s.next - 1
            ));
        }
    }
    tr.end(open);
    Ok(())
}
