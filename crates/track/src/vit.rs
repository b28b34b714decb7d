use bliss_nn::{Builder, Linear, Module, Tape, TransformerBlock};
use bliss_npu::{GemmShape, WorkloadDesc};
use bliss_tensor::{
    kernels, take_f32_buffer, ExecPlan, GraphBuilder, IndexVec, NdArray, PlanCache, PlanCacheStats,
    QuantCalibration, QuantSpec, Tensor, TensorError,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;

/// Configuration of the sparse ViT segmenter (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViTConfig {
    /// Frame width the model segments.
    pub frame_width: usize,
    /// Frame height.
    pub frame_height: usize,
    /// Square patch side in pixels.
    pub patch: usize,
    /// Token channel width.
    pub dim: usize,
    /// Attention heads per MHA module.
    pub heads: usize,
    /// Encoder depth (paper: 12 MHA modules).
    pub enc_depth: usize,
    /// Decoder depth (paper: 2 MHA modules).
    pub dec_depth: usize,
    /// MLP expansion ratio inside each block.
    pub mlp_ratio: usize,
    /// Segmentation classes (OpenEDS: 4).
    pub num_classes: usize,
}

impl ViTConfig {
    /// Paper-scale model: 640x400 frames, 16-pixel patches, 12+2 MHA blocks
    /// with 3 heads and channel size 192 (Strudel et al. Segmenter layout).
    pub fn paper() -> Self {
        ViTConfig {
            frame_width: 640,
            frame_height: 400,
            patch: 16,
            dim: 192,
            heads: 3,
            enc_depth: 12,
            dec_depth: 2,
            // A 2x expansion keeps the sparse ViT ~4x below RITnet-class
            // MACs, matching the paper's §VI-A efficiency quote.
            mlp_ratio: 2,
            num_classes: 4,
        }
    }

    /// Miniature model trainable on a laptop CPU in seconds.
    pub fn miniature(frame_width: usize, frame_height: usize) -> Self {
        ViTConfig {
            frame_width,
            frame_height,
            patch: 10,
            dim: 48,
            heads: 3,
            enc_depth: 2,
            dec_depth: 1,
            mlp_ratio: 4,
            num_classes: 4,
        }
    }

    /// Patch-grid dimensions (partial border patches are zero-padded).
    pub fn grid_dims(&self) -> (usize, usize) {
        (
            self.frame_width.div_ceil(self.patch),
            self.frame_height.div_ceil(self.patch),
        )
    }

    /// Total patches in the grid.
    pub fn num_patches(&self) -> usize {
        let (gw, gh) = self.grid_dims();
        gw * gh
    }

    /// Lowered workload of one **cross-frame batched** inference launch over
    /// `frames` of `(tokens, pixels)` each — the timing model of
    /// [`SparseViT::forward_batch`].
    ///
    /// Every weight GEMM (patch embedding, the fused `[dim, 3*dim]` QKV
    /// projection, output projection, MLP, pixel head) runs *once* over the
    /// summed token rows, amortising array fill/drain and partial row tiles;
    /// the quadratic score/AV products stay per-frame because attention is
    /// block-diagonal and never crosses a frame boundary. For a single frame
    /// the total MAC count equals [`ViTConfig::workload`].
    pub fn batched_workload(&self, frames: &[(usize, usize)]) -> WorkloadDesc {
        let p2 = self.patch * self.patch;
        let hd = self.dim / self.heads.max(1);
        let total_t: usize = frames.iter().map(|&(t, _)| t).sum();
        let total_pixels: usize = frames.iter().map(|&(_, p)| p).sum();
        let mut w = WorkloadDesc::new("sparse-vit-batched");
        w.push_linear(total_t, 2 * p2, self.dim);
        for _ in 0..self.enc_depth {
            w.push_linear(total_t, self.dim, 3 * self.dim);
            for &(t, _) in frames {
                for _ in 0..self.heads {
                    w.gemms.push(GemmShape::activation(t, hd, t));
                    w.gemms.push(GemmShape::activation(t, t, hd));
                }
            }
            w.push_linear(total_t, self.dim, self.dim);
            w.push_linear(total_t, self.dim, self.dim * self.mlp_ratio);
            w.push_linear(total_t, self.dim * self.mlp_ratio, self.dim);
        }
        let total_dec: usize = frames.iter().map(|&(t, _)| t + self.num_classes).sum();
        for _ in 0..self.dec_depth {
            w.push_linear(total_dec, self.dim, 3 * self.dim);
            for &(t, _) in frames {
                let dt = t + self.num_classes;
                for _ in 0..self.heads {
                    w.gemms.push(GemmShape::activation(dt, hd, dt));
                    w.gemms.push(GemmShape::activation(dt, dt, hd));
                }
            }
            w.push_linear(total_dec, self.dim, self.dim);
            w.push_linear(total_dec, self.dim, self.dim * self.mlp_ratio);
            w.push_linear(total_dec, self.dim * self.mlp_ratio, self.dim);
        }
        for &(t, _) in frames {
            w.gemms
                .push(GemmShape::activation(t, self.dim, self.num_classes));
        }
        w.push_linear(total_pixels, 2, self.num_classes);
        w
    }

    /// Lowered workload for `tokens` occupied patches and `pixels`
    /// classification queries (pure shape math — no parameters allocated).
    pub fn workload(&self, tokens: usize, pixels: usize) -> WorkloadDesc {
        let p2 = self.patch * self.patch;
        let mut w = WorkloadDesc::new("sparse-vit");
        w.push_linear(tokens, 2 * p2, self.dim);
        for _ in 0..self.enc_depth {
            w.push_transformer_block_ratio(tokens, self.dim, self.heads, self.mlp_ratio);
        }
        let dec_tokens = tokens + self.num_classes;
        for _ in 0..self.dec_depth {
            w.push_transformer_block_ratio(dec_tokens, self.dim, self.heads, self.mlp_ratio);
        }
        w.gemms
            .push(GemmShape::activation(tokens, self.dim, self.num_classes));
        w.push_linear(pixels, 2, self.num_classes);
        w
    }
}

/// A batch of frames lowered to stacked transformer inputs: every active
/// frame's occupied-patch tokens and sampled-pixel queries appended in input
/// order, plus one [`FrameSpan`] per input frame.
///
/// The buffers are cleared, never freed, between batches, so a holder that
/// has seen a batch's working set lowers it again without allocating.
#[derive(Default)]
struct Lowered {
    /// `(values, sample-mask)` rows of every kept patch, `[sum_t, 2*p^2]`.
    tokens: Vec<f32>,
    /// Patch-grid index of every kept patch (its position-embedding row).
    kept: Vec<usize>,
    /// Frame-flat index of every sampled pixel.
    pixel_indices: Vec<usize>,
    /// Frame-local token owning each sampled pixel.
    pixel_token: Vec<usize>,
    /// `(value, 1)` features of every sampled pixel, `[sum_S, 2]`.
    pixel_feat: Vec<f32>,
    /// Active frames' token counts: the block-diagonal spans and the
    /// plan-cache key.
    token_counts: Vec<usize>,
    /// One entry per input frame.
    spans: Vec<FrameSpan>,
    /// Per-patch occupancy flags of the frame being lowered.
    occupancy: Vec<bool>,
}

/// Where one input frame's rows sit in a [`Lowered`] batch.
#[derive(Clone, Copy)]
struct FrameSpan {
    /// Occupied patch tokens; `0` for a frame with no sampled pixel.
    tokens: usize,
    /// First row of the frame's pixel queries (and of its logits).
    px: usize,
    /// Number of pixel queries.
    rows: usize,
}

impl Lowered {
    fn clear(&mut self) {
        self.tokens.clear();
        self.kept.clear();
        self.pixel_indices.clear();
        self.pixel_token.clear();
        self.pixel_feat.clear();
        self.token_counts.clear();
        self.spans.clear();
    }
}

/// Output of one sparse segmentation forward pass.
#[derive(Debug)]
pub struct SegPrediction {
    /// Frame-flat pixel index of every logits row (the sampled pixels).
    /// Pooled: the buffer returns to the thread's index pool when the
    /// prediction is dropped.
    pub pixel_indices: IndexVec,
    /// Per-pixel class logits, `[S, num_classes]`.
    pub logits: Tensor,
    /// Number of occupied patch tokens the transformer processed — the
    /// quantity that shrinks with sparse sampling and drives compute savings.
    pub tokens: usize,
}

/// A constant tensor over a pooled copy of `data`.
fn pooled_constant(data: &[f32], shape: &[usize]) -> Result<Tensor, TensorError> {
    let mut buf = take_f32_buffer(data.len());
    buf.extend_from_slice(data);
    Ok(Tensor::constant(NdArray::from_vec(buf, shape)?))
}

/// First index of the row maximum (ties break low, matching
/// [`NdArray::argmax_rows`]) — shared by every per-pixel class decode so a
/// tie-breaking change cannot silently diverge between them.
fn argmax_row(row: &[f32]) -> usize {
    let mut best = 0usize;
    for (j, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = j;
        }
    }
    best
}

impl SegPrediction {
    /// Per-pixel argmax classes as `(frame_index, class)` pairs.
    pub fn classes(&self) -> Vec<(usize, u8)> {
        let mut out = Vec::new();
        self.classes_into(&mut out);
        out
    }

    /// Writes the per-pixel argmax classes into `out` (cleared first),
    /// computing the row argmax inline — the steady-state serving path
    /// reuses one pair buffer per stream instead of allocating per frame.
    pub fn classes_into(&self, out: &mut Vec<(usize, u8)>) {
        out.clear();
        let logits = self.logits.value();
        assert_eq!(logits.ndim(), 2, "logits are rank 2");
        let n = logits.shape()[1];
        out.reserve(self.pixel_indices.len());
        for (r, &i) in self.pixel_indices.iter().enumerate() {
            let row = &logits.data()[r * n..(r + 1) * n];
            out.push((i, argmax_row(row) as u8));
        }
    }

    /// Expands the sparse classification into a full-frame mask
    /// (background class 0 everywhere else).
    pub fn seg_map(&self, width: usize, height: usize) -> Vec<u8> {
        let mut map = Vec::new();
        self.seg_map_into(width, height, &mut map);
        map
    }

    /// Writes the full-frame mask into `map` (resized and zeroed first), so
    /// a per-stream buffer can be reused across frames.
    pub fn seg_map_into(&self, width: usize, height: usize, map: &mut Vec<u8>) {
        map.clear();
        map.resize(width * height, 0u8);
        let logits = self.logits.value();
        let n = logits.shape()[1];
        for (r, &i) in self.pixel_indices.iter().enumerate() {
            if i < map.len() {
                let row = &logits.data()[r * n..(r + 1) * n];
                map[i] = argmax_row(row) as u8;
            }
        }
    }
}

/// Cached planned-inference state shared by every clone of a [`SparseViT`]
/// (fleet hosts clone the network, so one compiled plan serves all of them).
struct VitPlans {
    /// Compiled execution plans keyed by the batch's token span layout
    /// `[t_1..t_k]` (active frames only).
    cache: PlanCache,
    /// Quantised (int8) plans, same key space as `cache`. Kept separate so
    /// switching precision never mixes plan kinds for one layout.
    qcache: PlanCache,
    /// Calibrated int8 quantisation parameters (weight-site keyed), present
    /// after [`SparseViT::finish_int8_calibration`].
    quant: Option<Rc<QuantSpec>>,
    /// In-progress activation-range calibration.
    calib: Option<QuantCalibration>,
    /// Whether planned inference routes through the quantised plans.
    use_int8: bool,
    /// Pixel-head weight/bias handles cached once so the per-frame
    /// refinement tail reads them without re-collecting parameter vectors.
    pixel_params: Option<(Tensor, Tensor)>,
    /// The holder [`SparseViT::forward_batch`] lowers into, on both
    /// engines.
    batch: Option<PlannedBatch>,
}

impl Default for VitPlans {
    fn default() -> Self {
        VitPlans {
            cache: PlanCache::new(),
            qcache: PlanCache::new(),
            quant: None,
            calib: None,
            use_int8: false,
            pixel_params: None,
            batch: Some(PlannedBatch::new()),
        }
    }
}

impl std::fmt::Debug for VitPlans {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VitPlans")
            .field("stats", &self.cache.stats())
            .finish()
    }
}

/// Reusable lowering and output buffers of [`SparseViT::forward_batch_into`]
/// — the strict zero-allocation planned inference entry point.
///
/// The batch owns every buffer and keeps it between calls, so a
/// steady-state iteration over a repeating span layout performs **zero heap
/// allocations**. The results of the last call are read through
/// [`PlannedBatch::frame`].
#[derive(Default)]
pub struct PlannedBatch {
    /// The last batch's lowered inputs and per-frame spans.
    lowered: Lowered,
    /// Per-pixel logits of every active frame, `[sum_S, classes]`, in the
    /// row order of the lowered pixel queries.
    logits: Vec<f32>,
    /// Class count of the last run.
    classes: usize,
}

/// Borrowed view of one frame's planned-inference result.
#[derive(Debug)]
pub struct PlannedFrameView<'a> {
    /// Frame-flat pixel index of every logits row.
    pub pixel_indices: &'a [usize],
    /// Row-major `[rows, classes]` per-pixel logits.
    pub logits: &'a [f32],
    /// Occupied patch tokens the transformer processed for this frame.
    pub tokens: usize,
}

impl PlannedBatch {
    /// An empty batch holder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Frames in the last completed batch (including empty ones); `0` after
    /// a failed call.
    pub fn len(&self) -> usize {
        self.lowered.spans.len()
    }

    /// Whether the holder has no frames recorded.
    pub fn is_empty(&self) -> bool {
        self.lowered.spans.is_empty()
    }

    /// Class count of the last run's logits rows.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The `i`-th input frame's result; `None` if that frame had no sampled
    /// pixel.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn frame(&self, i: usize) -> Option<PlannedFrameView<'_>> {
        let s = self.lowered.spans[i];
        (s.tokens > 0).then(|| PlannedFrameView {
            pixel_indices: &self.lowered.pixel_indices[s.px..s.px + s.rows],
            logits: &self.logits[s.px * self.classes..(s.px + s.rows) * self.classes],
            tokens: s.tokens,
        })
    }

    /// Copies every frame's result into a [`SegPrediction`] (pooled pixel
    /// indices and logits).
    fn predictions(&self) -> Result<Vec<Option<SegPrediction>>, TensorError> {
        (0..self.len())
            .map(|i| {
                self.frame(i)
                    .map(|f| {
                        let rows = f.pixel_indices.len();
                        Ok(SegPrediction {
                            pixel_indices: IndexVec::from_slice(f.pixel_indices),
                            logits: pooled_constant(f.logits, &[rows, self.classes])?,
                            tokens: f.tokens,
                        })
                    })
                    .transpose()
            })
            .collect()
    }
}

impl std::fmt::Debug for PlannedBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlannedBatch")
            .field("frames", &self.len())
            .field("classes", &self.classes)
            .field("logit_rows", &(self.logits.len() / self.classes.max(1)))
            .finish()
    }
}

/// The sparse-robust Vision Transformer segmenter.
///
/// Architecture (paper Fig. 6, Segmenter-style):
///
/// 1. **Patch embedding** — each occupied patch's `(values, sample-mask)`
///    pixels are linearly projected to a token; position embeddings are
///    gathered for the kept patches only. *Empty patches produce no token*,
///    so attention cost falls super-linearly with pixel volume.
/// 2. **Encoder** — `enc_depth` MHA transformer blocks.
/// 3. **Decoder** — learnable class embeddings are appended, `dec_depth`
///    blocks mix them with patch tokens, and patch logits are the scaled dot
///    product between patch tokens and class tokens.
/// 4. **Pixel head** — a tiny per-pixel refinement (`[value, 1] -> classes`)
///    added to the patch logits recovers sub-patch detail (the dark pupil
///    boundary inside a patch).
#[derive(Debug, Clone)]
pub struct SparseViT {
    patch_embed: Linear,
    pos_embed: Tensor,
    encoder: Vec<TransformerBlock>,
    decoder: Vec<TransformerBlock>,
    class_embed: Tensor,
    pixel_head: Linear,
    config: ViTConfig,
    /// Shared planned-inference state; `Rc` so clones (fleet hosts) reuse
    /// one plan cache. Weight *values* may change under a live plan (plans
    /// read the shared parameter tensors); weight shapes are fixed by
    /// `config`.
    plans: Rc<RefCell<VitPlans>>,
}

impl SparseViT {
    /// Creates the model with random initialisation.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, config: ViTConfig) -> Self {
        let p2 = config.patch * config.patch;
        SparseViT {
            patch_embed: Linear::new(rng, 2 * p2, config.dim),
            pos_embed: Tensor::parameter(NdArray::randn(
                rng,
                &[config.num_patches(), config.dim],
                0.02,
            )),
            encoder: (0..config.enc_depth)
                .map(|_| {
                    TransformerBlock::with_mlp_ratio(
                        rng,
                        config.dim,
                        config.heads,
                        config.mlp_ratio,
                    )
                })
                .collect(),
            decoder: (0..config.dec_depth)
                .map(|_| {
                    TransformerBlock::with_mlp_ratio(
                        rng,
                        config.dim,
                        config.heads,
                        config.mlp_ratio,
                    )
                })
                .collect(),
            class_embed: Tensor::parameter(NdArray::randn(
                rng,
                &[config.num_classes, config.dim],
                0.02,
            )),
            pixel_head: Linear::new(rng, 2, config.num_classes),
            config,
            plans: Rc::new(RefCell::new(VitPlans::default())),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ViTConfig {
        &self.config
    }

    /// Segments a sparse frame.
    ///
    /// `image` is the full-frame sparse image (zeros at unsampled pixels) and
    /// `sampled` the 0/1 sampling mask, both `width*height` long. Returns
    /// `None` when no pixel is sampled (e.g. mid-blink with an empty ROI).
    ///
    /// Equivalent to [`SparseViT::forward_batch`] with a single frame — both
    /// paths share the same kernels, so solo and batched results are
    /// bit-identical.
    ///
    /// # Errors
    ///
    /// Returns shape errors if the buffers do not match the configured frame.
    pub fn forward(
        &self,
        image: &[f32],
        sampled: &[f32],
    ) -> Result<Option<SegPrediction>, TensorError> {
        Ok(self
            .forward_batch(&[(image, sampled)])?
            .pop()
            .expect("one output per input frame"))
    }

    /// Lowers `frames` into `low` (cleared first): each frame's
    /// occupied-patch tokens, patch indices and sampled-pixel queries are
    /// appended straight to the stacked buffers, and every input frame gets
    /// one span (zero tokens when no pixel is sampled).
    ///
    /// # Errors
    ///
    /// Shape errors, leaving `low` empty, if any frame's buffers do not
    /// match the configured frame.
    fn lower(&self, frames: &[(&[f32], &[f32])], low: &mut Lowered) -> Result<(), TensorError> {
        low.clear();
        let (w, h) = (self.config.frame_width, self.config.frame_height);
        if let Some((image, sampled)) = frames
            .iter()
            .find(|(image, sampled)| image.len() != w * h || sampled.len() != w * h)
        {
            return Err(TensorError::InvalidArgument {
                op: "sparse_vit_forward",
                message: format!(
                    "expected {} pixels, got image {} / mask {}",
                    w * h,
                    image.len(),
                    sampled.len()
                ),
            });
        }
        let p = self.config.patch;
        let (gw, gh) = self.config.grid_dims();
        let p2 = p * p;
        for &(image, sampled) in frames {
            // Pass 1: parallel occupancy scan — one read-only task per patch
            // (cost hint: a patch scans up to p^2 mask pixels, so miniature
            // grids stay on the calling thread).
            low.occupancy.clear();
            low.occupancy.resize(gw * gh, false);
            bliss_parallel::par_chunks_with_cost(&mut low.occupancy, 1, p2, |patch_idx, flag| {
                let (x0, y0) = ((patch_idx % gw) * p, (patch_idx / gw) * p);
                flag[0] = (y0..(y0 + p).min(h)).any(|y| {
                    sampled[y * w + x0..y * w + (x0 + p).min(w)]
                        .iter()
                        .any(|&m| m > 0.0)
                });
            });
            let first = low.kept.len();
            low.kept.extend((0..gw * gh).filter(|&i| low.occupancy[i]));
            let t = low.kept.len() - first;
            let px = low.pixel_indices.len();
            if t > 0 {
                low.token_counts.push(t);
                let kept = &low.kept[first..];

                // Pass 2: parallel token gather — each kept patch fills its
                // own `(values, sample-mask)` row of the stacked input.
                let row0 = low.tokens.len();
                low.tokens.resize(row0 + t * 2 * p2, 0.0);
                bliss_parallel::par_chunks(&mut low.tokens[row0..], 2 * p2, |token, chunk| {
                    let patch_idx = kept[token];
                    let (gy, gx) = (patch_idx / gw, patch_idx % gw);
                    let (values, mask) = chunk.split_at_mut(p2);
                    for dy in 0..p {
                        let y = gy * p + dy;
                        if y >= h {
                            break;
                        }
                        for dx in 0..p {
                            let x = gx * p + dx;
                            if x >= w {
                                break;
                            }
                            let fi = y * w + x;
                            values[dy * p + dx] = image[fi];
                            mask[dy * p + dx] = sampled[fi];
                        }
                    }
                });

                // Pass 3: register sampled pixels as classification queries
                // (serial: the outputs are variable-length appends, and only
                // kept patches are visited).
                for (token, &patch_idx) in kept.iter().enumerate() {
                    let (gy, gx) = (patch_idx / gw, patch_idx % gw);
                    for dy in 0..p {
                        let y = gy * p + dy;
                        if y >= h {
                            break;
                        }
                        for dx in 0..p {
                            let x = gx * p + dx;
                            if x >= w {
                                break;
                            }
                            let fi = y * w + x;
                            if sampled[fi] > 0.0 {
                                low.pixel_indices.push(fi);
                                low.pixel_token.push(token);
                                low.pixel_feat.extend([image[fi], 1.0]);
                            }
                        }
                    }
                }
            }
            low.spans.push(FrameSpan {
                tokens: t,
                px,
                rows: low.pixel_indices.len() - px,
            });
        }
        Ok(())
    }

    /// Segments a batch of sparse frames with **cross-frame batched
    /// inference**: the patch embedding, every transformer projection/MLP and
    /// the pixel head run as *one* GEMM over all frames' tokens, while
    /// attention stays block-diagonal per frame (see
    /// [`bliss_nn::TransformerBlock::apply`]). One set of kernel
    /// launches replaces K — the serving runtime's hot path.
    ///
    /// Every output is **bit-identical** to running its frame through
    /// [`SparseViT::forward`] alone: each per-row kernel accumulates in an
    /// order independent of the surrounding batch, and attention never
    /// crosses a frame boundary.
    ///
    /// Frames with no sampled pixel yield `None` at their position.
    ///
    /// # Errors
    ///
    /// Returns shape errors if any buffer does not match the configured
    /// frame.
    pub fn forward_batch(
        &self,
        frames: &[(&[f32], &[f32])],
    ) -> Result<Vec<Option<SegPrediction>>, TensorError> {
        // The shared holder leaves the planned state for the call, so the
        // planned run can borrow the plan cache.
        let mut batch = self.plans.borrow_mut().batch.take().unwrap_or_default();
        let result = if bliss_tensor::in_inference_mode() {
            self.forward_batch_into(frames, &mut batch)
                .and_then(|()| batch.predictions())
        } else {
            self.lower(frames, &mut batch.lowered)
                .and_then(|()| self.tape_forward(&batch.lowered))
        };
        self.plans.borrow_mut().batch = Some(batch);
        result
    }

    /// The tape body of [`SparseViT::forward_batch`] over a lowered batch.
    fn tape_forward(&self, low: &Lowered) -> Result<Vec<Option<SegPrediction>>, TensorError> {
        if low.token_counts.is_empty() {
            return Ok(low.spans.iter().map(|_| None).collect());
        }
        let p2 = self.config.patch * self.config.patch;
        let tokens = pooled_constant(&low.tokens, &[low.kept.len(), 2 * p2])?;
        let patch_logits = self.token_pass(&mut Tape, &tokens, &low.kept[..], &low.token_counts)?;

        // Pixel head: one GEMM over every frame's sampled-pixel features.
        let feats = pooled_constant(&low.pixel_feat, &[low.pixel_indices.len(), 2])?;
        let refined = self.pixel_head.forward(&feats)?;

        // Per-frame mask decoding: each frame's patch logits expanded to its
        // pixel queries, plus its refinement rows.
        let mut patch_logits = patch_logits.into_iter();
        low.spans
            .iter()
            .map(|s| {
                if s.tokens == 0 {
                    return Ok(None);
                }
                let patch = patch_logits
                    .next()
                    .expect("one logits node per active frame");
                let rows = s.px..s.px + s.rows;
                let expanded = patch.gather_rows(&low.pixel_token[rows.clone()])?;
                let logits = expanded.add(&refined.slice_rows(s.px, s.px + s.rows)?)?;
                Ok(Some(SegPrediction {
                    pixel_indices: IndexVec::from_slice(&low.pixel_indices[rows]),
                    logits,
                    tokens: s.tokens,
                }))
            })
            .collect()
    }

    /// The cross-frame batched token pass over a lowered batch, written
    /// once for both engines: patch embedding plus position gather,
    /// block-diagonal encoder, per-frame class-embedding append, decoder,
    /// and per-frame scaled patch x class logits (one node per frame). The
    /// per-pixel refinement tail is not part of it: its row count changes
    /// every frame, which would defeat the shape-keyed plan cache.
    fn token_pass<B: Builder>(
        &self,
        b: &mut B,
        tokens: &B::Node,
        kept: &B::Index,
        token_counts: &[usize],
    ) -> Result<Vec<B::Node>, TensorError> {
        let classes = self.config.num_classes;
        let pos_table = b.param(&self.pos_embed);
        let pos = b.gather_rows(&pos_table, kept)?;
        let emb = self.patch_embed.apply(b, tokens)?;
        let mut x = b.add(&emb, &pos)?;
        let mut enc_spans = Vec::with_capacity(token_counts.len());
        let mut cursor = 0usize;
        for &t in token_counts {
            enc_spans.push((cursor, cursor + t));
            cursor += t;
        }
        for block in &self.encoder {
            x = block.apply(b, &x, &enc_spans)?;
        }

        // Decoder: each frame's token rows get their own copy of the class
        // embeddings appended; spans grow by `classes` rows.
        let cls = b.param(&self.class_embed);
        let mut dec_parts = Vec::with_capacity(2 * token_counts.len());
        let mut dec_spans = Vec::with_capacity(token_counts.len());
        let mut dec_cursor = 0usize;
        for &(s, e) in &enc_spans {
            dec_parts.push(b.slice_rows(&x, s, e)?);
            dec_parts.push(cls.clone());
            dec_spans.push((dec_cursor, dec_cursor + (e - s) + classes));
            dec_cursor += (e - s) + classes;
        }
        let mut d = b.concat_rows(&dec_parts)?;
        for block in &self.decoder {
            d = block.apply(b, &d, &dec_spans)?;
        }

        let inv = 1.0 / (self.config.dim as f32).sqrt();
        let mut logits = Vec::with_capacity(token_counts.len());
        for (&t, &(ds, de)) in token_counts.iter().zip(&dec_spans) {
            let patch = b.slice_rows(&d, ds, ds + t)?;
            let cls_rows = b.slice_rows(&d, ds + t, de)?;
            let cls_t = b.transpose(&cls_rows)?;
            let mm = b.matmul(&patch, &cls_t)?;
            logits.push(b.scale(&mm, inv));
        }
        Ok(logits)
    }

    /// The token pass on the graph engine for one span layout, one output
    /// per active frame. Returns the *builder*: the caller compiles it
    /// straight ([`ExecPlan::compile`]), instruments it for int8
    /// calibration, or rewrites it through [`ExecPlan::compile_quantized`].
    fn batch_graph(&self, token_counts: &[usize]) -> Result<GraphBuilder, TensorError> {
        let p2 = self.config.patch * self.config.patch;
        let total: usize = token_counts.iter().sum();
        let mut g = GraphBuilder::default();
        let tokens = g.input(&[total, 2 * p2]);
        let kept = g.index_input(total);
        for logits in self.token_pass(&mut g, &tokens, &kept, token_counts)? {
            g.mark_output(logits);
        }
        Ok(g)
    }

    /// Segments a batch of sparse frames through the **compiled planned
    /// path**, writing every result into the reusable `out` holder.
    ///
    /// The frames are lowered once into `out`'s stacked buffers. The token
    /// pass executes a cached [`ExecPlan`] keyed by the batch's span layout
    /// `[t_1..t_k]` (compiled on first sight of a layout); the variable-row
    /// pixel refinement tail runs as direct [`bliss_tensor::kernels`] calls
    /// on the same buffers. In steady state — a holder that has seen the
    /// working set, a previously seen span layout — one call performs
    /// **zero heap allocations**, and every frame's logits are
    /// bit-identical to the tape [`SparseViT::forward_batch`] at any thread
    /// count (the plan dispatches to the same slice-level kernels).
    ///
    /// # Errors
    ///
    /// Returns shape errors if any buffer does not match the configured
    /// frame; `out` then holds no frame.
    pub fn forward_batch_into(
        &self,
        frames: &[(&[f32], &[f32])],
        out: &mut PlannedBatch,
    ) -> Result<(), TensorError> {
        out.classes = self.config.num_classes;
        let result = self
            .lower(frames, &mut out.lowered)
            .and_then(|()| self.run_lowered(out));
        if result.is_err() {
            // No span may outlive a failed call and slice stale logits.
            out.lowered.clear();
        }
        result
    }

    /// Runs the cached plan and the pixel-head tail over `out`'s lowered
    /// batch, writing `out.logits`.
    fn run_lowered(&self, out: &mut PlannedBatch) -> Result<(), TensorError> {
        let (low, classes) = (&out.lowered, out.classes);
        out.logits.clear();
        if low.token_counts.is_empty() {
            return Ok(());
        }
        // Look up (or compile) the plan for this span layout.
        let plan = {
            let mut plans = self.plans.borrow_mut();
            let counts = &low.token_counts;
            if plans.use_int8 {
                let spec = plans
                    .quant
                    .clone()
                    .expect("use_int8 implies a finished calibration spec");
                plans.qcache.get_or_build(counts, || {
                    ExecPlan::compile_quantized(self.batch_graph(counts)?, &spec)
                })?
            } else {
                plans
                    .cache
                    .get_or_build(counts, || ExecPlan::compile(self.batch_graph(counts)?))?
            }
        };
        plan.execute(&[&low.tokens], &[&low.kept])?;

        // Pixel refinement head: one GEMM over every frame's sampled-pixel
        // features, written straight into the logits rows.
        let (pw, pb) = {
            let mut plans = self.plans.borrow_mut();
            if plans.pixel_params.is_none() {
                let p = self.pixel_head.parameters();
                plans.pixel_params = Some((p[0].clone(), p[1].clone()));
            }
            plans.pixel_params.clone().expect("just initialised")
        };
        out.logits.resize(low.pixel_indices.len() * classes, 0.0);
        kernels::matmul_into(
            &low.pixel_feat,
            pw.value().data(),
            2,
            classes,
            &mut out.logits,
        );
        kernels::add_row_assign(&mut out.logits, pb.value().data());

        // Per-frame decode: add each frame's patch logits (a plan output)
        // to the rows of its pixel queries.
        for (slot, s) in low.spans.iter().filter(|s| s.tokens > 0).enumerate() {
            let dst = &mut out.logits[s.px * classes..(s.px + s.rows) * classes];
            let owners = &low.pixel_token[s.px..s.px + s.rows];
            plan.with_output(slot, |patch| {
                for (row, &t) in dst.chunks_exact_mut(classes).zip(owners) {
                    for (l, &v) in row.iter_mut().zip(&patch[t * classes..(t + 1) * classes]) {
                        *l += v;
                    }
                }
            });
        }
        Ok(())
    }

    /// Plan-cache traffic/occupancy counters of the shared planned state
    /// (soak harnesses gate on `plans`/`arena_elems` staying bounded).
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.plans.borrow().cache.stats()
    }

    /// Plan-cache counters for the **quantised** (int8) plan cache.
    pub fn quant_plan_stats(&self) -> PlanCacheStats {
        self.plans.borrow().qcache.stats()
    }

    /// Starts (or restarts) post-training int8 calibration: clears any
    /// previous activation ranges, quantisation spec and quantised plans,
    /// and drops back to f32 inference until
    /// [`Self::finish_int8_calibration`] runs.
    pub fn begin_int8_calibration(&self) {
        let mut plans = self.plans.borrow_mut();
        plans.calib = Some(QuantCalibration::new());
        plans.quant = None;
        plans.use_int8 = false;
        plans.qcache.clear();
    }

    /// Feeds one batch of frames through an **instrumented** f32 plan and
    /// folds each quantisable matmul's activation absmax into the running
    /// calibration. Frames use the same `(image, sampled)` convention as
    /// [`Self::forward_batch`]; all-static frames contribute nothing.
    ///
    /// This is an offline pass: the instrumented plan pins every tapped
    /// activation as an extra output and is compiled per call, not cached.
    ///
    /// # Errors
    ///
    /// Returns shape errors if a buffer does not match the configured
    /// frame, or plan compile/execute errors.
    pub fn observe_int8_calibration(&self, frames: &[(&[f32], &[f32])]) -> Result<(), TensorError> {
        let mut low = Lowered::default();
        self.lower(frames, &mut low)?;
        if low.token_counts.is_empty() {
            return Ok(());
        }
        let mut g = self.batch_graph(&low.token_counts)?;
        let taps = QuantCalibration::instrument(&mut g);
        let plan = ExecPlan::compile(g)?;
        plan.execute(&[&low.tokens], &[&low.kept])?;
        let mut plans = self.plans.borrow_mut();
        let calib = plans.calib.get_or_insert_with(QuantCalibration::new);
        calib.observe_plan(&plan, &[&low.tokens], &taps);
        Ok(())
    }

    /// Freezes the observed activation ranges into per-channel symmetric
    /// int8 weight scales + per-site activation scales, stores the spec,
    /// and returns the number of quantised matmul sites. Does **not** flip
    /// inference to int8 — call [`Self::set_int8`] for that.
    ///
    /// Deterministic: the spec depends only on the live weight values and
    /// the observed ranges, so re-running calibration over the same frames
    /// after a snapshot restore reproduces it bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns `InvalidArgument` if no calibration is in progress or no
    /// batch was observed.
    pub fn finish_int8_calibration(&self) -> Result<usize, TensorError> {
        let g = self.batch_graph(&[1])?;
        let mut plans = self.plans.borrow_mut();
        let calib = plans
            .calib
            .take()
            .ok_or_else(|| TensorError::InvalidArgument {
                op: "finish_int8_calibration",
                message: "no calibration in progress (call begin_int8_calibration \
                      and observe at least one batch first)"
                    .to_string(),
            })?;
        if calib.observed_sites() == 0 {
            return Err(TensorError::InvalidArgument {
                op: "finish_int8_calibration",
                message: "no activation ranges observed (every calibration batch \
                          was empty or all-static)"
                    .to_string(),
            });
        }
        let mut spec = calib.finish(&g);
        // The patch embedding stays f32: its activation range is set by
        // cold-start full-frame reads, so the dim sparse frames that
        // dominate steady-state tracking would quantise coarsely at the
        // very first layer (classic first-layer exclusion). Its share of
        // the model's MACs is small, so the energy win is untouched.
        spec.remove(self.patch_embed.parameters()[0].id());
        let sites = spec.len();
        plans.quant = Some(Rc::new(spec));
        plans.qcache.clear();
        Ok(sites)
    }

    /// Routes planned inference through the quantised int8 plans (`true`)
    /// or the f32 plans (`false`). The tape path (training) always stays
    /// f32. The flag lives on the shared planned state, so it applies to
    /// every clone of this model.
    ///
    /// # Errors
    ///
    /// Returns `InvalidArgument` when enabling without a finished
    /// calibration spec.
    pub fn set_int8(&self, enable: bool) -> Result<(), TensorError> {
        let mut plans = self.plans.borrow_mut();
        if enable && plans.quant.is_none() {
            return Err(TensorError::InvalidArgument {
                op: "set_int8",
                message: "no int8 quantisation spec: run calibration first".to_string(),
            });
        }
        plans.use_int8 = enable;
        Ok(())
    }

    /// Whether planned inference currently runs the int8 path.
    pub fn int8_enabled(&self) -> bool {
        self.plans.borrow().use_int8
    }

    /// Number of calibrated quantisation sites (0 before calibration).
    pub fn int8_sites(&self) -> usize {
        self.plans.borrow().quant.as_ref().map_or(0, |s| s.len())
    }

    /// Lowered workload for `tokens` occupied patches and `pixels`
    /// classification queries, for the NPU simulator.
    pub fn workload(&self, tokens: usize, pixels: usize) -> WorkloadDesc {
        self.config.workload(tokens, pixels)
    }

    /// MAC count for a given occupancy, convenience over [`Self::workload`].
    pub fn macs(&self, tokens: usize, pixels: usize) -> u64 {
        self.workload(tokens, pixels).total_macs()
    }
}

impl Module for SparseViT {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.patch_embed.parameters();
        p.push(self.pos_embed.clone());
        for b in &self.encoder {
            p.extend(b.parameters());
        }
        for b in &self.decoder {
            p.extend(b.parameters());
        }
        p.push(self.class_embed.clone());
        p.extend(self.pixel_head.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> SparseViT {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = ViTConfig {
            frame_width: 40,
            frame_height: 30,
            patch: 10,
            dim: 16,
            heads: 2,
            enc_depth: 1,
            dec_depth: 1,
            mlp_ratio: 4,
            num_classes: 4,
        };
        SparseViT::new(&mut rng, cfg)
    }

    #[test]
    fn dense_mask_keeps_all_patches() {
        let vit = tiny();
        let image = vec![0.5f32; 1200];
        let mask = vec![1.0f32; 1200];
        let pred = vit.forward(&image, &mask).unwrap().unwrap();
        assert_eq!(pred.tokens, vit.config().num_patches());
        assert_eq!(pred.pixel_indices.len(), 1200);
        assert_eq!(pred.logits.shape(), vec![1200, 4]);
    }

    #[test]
    fn empty_mask_returns_none() {
        let vit = tiny();
        let image = vec![0.0f32; 1200];
        let mask = vec![0.0f32; 1200];
        assert!(vit.forward(&image, &mask).unwrap().is_none());
    }

    #[test]
    fn sparse_mask_drops_tokens() {
        let vit = tiny();
        let image = vec![0.5f32; 1200];
        let mut mask = vec![0.0f32; 1200];
        // Sample a single pixel: exactly one patch stays.
        mask[15 * 40 + 25] = 1.0;
        let pred = vit.forward(&image, &mask).unwrap().unwrap();
        assert_eq!(pred.tokens, 1);
        assert_eq!(pred.pixel_indices, vec![15 * 40 + 25]);
    }

    #[test]
    fn batched_workload_macs_match_solo_and_attention_stays_per_frame() {
        let cfg = ViTConfig::paper();
        // A single frame's batched launch costs exactly the solo workload.
        assert_eq!(
            cfg.batched_workload(&[(108, 6851)]).total_macs(),
            cfg.workload(108, 6851).total_macs()
        );
        // A K-frame batch costs exactly K solo launches in MACs (the fused
        // GEMMs save *launches*, not arithmetic), and far less than one
        // monolithic launch over the summed tokens, whose attention would be
        // quadratic in K*t.
        let k = 8usize;
        let batch: Vec<(usize, usize)> = (0..k).map(|_| (108, 6851)).collect();
        let batched = cfg.batched_workload(&batch).total_macs();
        assert_eq!(batched, k as u64 * cfg.workload(108, 6851).total_macs());
        let monolithic = cfg.workload(108 * k, 6851 * k).total_macs();
        assert!(batched < (monolithic * 7) / 10, "{batched} vs {monolithic}");
    }

    #[test]
    fn batched_workload_fuses_weight_launches() {
        // What the per-GEMM dispatch overhead amortises: a K-frame batch
        // launches every weight GEMM once, so it dispatches far fewer
        // kernels than K solo launches — only the block-diagonal attention
        // products (and the per-frame seg-head query) stay per frame.
        let cfg = ViTConfig::paper();
        let solo = cfg.batched_workload(&[(108, 6851)]).launches();
        let k = 8usize;
        let batch: Vec<(usize, usize)> = (0..k).map(|_| (108, 6851)).collect();
        let batched = cfg.batched_workload(&batch).launches();
        assert!(batched < k * solo, "{batched} vs {k}x{solo}");
        // 4 fused weight GEMMs per transformer block + patch embedding +
        // pixel head never multiply with K — exactly those launches are
        // saved, (k-1) times over.
        let blocks = cfg.enc_depth + cfg.dec_depth;
        assert_eq!(k * solo - batched, (k - 1) * (4 * blocks + 2));
    }

    #[test]
    fn macs_shrink_with_tokens() {
        let vit = tiny();
        let dense = vit.macs(12, 1200);
        let sparse = vit.macs(3, 100);
        assert!(sparse < dense / 3);
    }

    #[test]
    fn classes_and_seg_map_agree() {
        let vit = tiny();
        let image = vec![0.5f32; 1200];
        let mut mask = vec![0.0f32; 1200];
        mask[0] = 1.0;
        mask[700] = 1.0;
        let pred = vit.forward(&image, &mask).unwrap().unwrap();
        let classes = pred.classes();
        assert_eq!(classes.len(), 2);
        let map = pred.seg_map(40, 30);
        for (i, c) in classes {
            assert_eq!(map[i], c);
        }
    }

    #[test]
    fn trainable_gradients_flow_everywhere() {
        let vit = tiny();
        let image = vec![0.4f32; 1200];
        let mask = vec![1.0f32; 1200];
        let pred = vit.forward(&image, &mask).unwrap().unwrap();
        let targets = vec![1usize; pred.pixel_indices.len()];
        let loss = pred.logits.cross_entropy_rows(&targets, None).unwrap();
        loss.backward().unwrap();
        let with_grads = vit
            .parameters()
            .iter()
            .filter(|p| p.grad().is_some())
            .count();
        // Position embeddings for dropped patches get no gradient only when
        // patches are dropped; with a dense mask everything has gradients.
        assert_eq!(with_grads, vit.parameters().len());
    }

    #[test]
    fn rejects_wrong_buffer_size() {
        let vit = tiny();
        assert!(vit.forward(&[0.0; 10], &[0.0; 10]).is_err());
        assert!(vit
            .forward_batch(&[(&[0.0; 10][..], &[0.0; 10][..])])
            .is_err());
    }

    /// Builds a deterministic pseudo-random sparse frame.
    fn synth_frame(seed: u64, rate: f32) -> (Vec<f32>, Vec<f32>) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut image = vec![0.0f32; 1200];
        let mut mask = vec![0.0f32; 1200];
        for i in 0..1200 {
            if rng.gen::<f32>() < rate {
                mask[i] = 1.0;
                image[i] = rng.gen::<f32>();
            }
        }
        (image, mask)
    }

    #[test]
    fn forward_batch_is_bit_identical_to_solo_forwards() {
        let vit = tiny();
        // Mixed batch: dense, sparse, empty, single-pixel frames.
        let dense = synth_frame(1, 1.0);
        let sparse = synth_frame(2, 0.05);
        let empty = (vec![0.0f32; 1200], vec![0.0f32; 1200]);
        let mut single = (vec![0.0f32; 1200], vec![0.0f32; 1200]);
        single.0[777] = 0.3;
        single.1[777] = 1.0;
        let frames = [&dense, &sparse, &empty, &single];
        let batch: Vec<(&[f32], &[f32])> = frames.iter().map(|f| (&f.0[..], &f.1[..])).collect();
        let batched = vit.forward_batch(&batch).unwrap();
        assert_eq!(batched.len(), 4);
        assert!(batched[2].is_none(), "empty frame must yield None");
        for (i, f) in frames.iter().enumerate() {
            let solo = vit.forward(&f.0, &f.1).unwrap();
            match (&batched[i], &solo) {
                (Some(b), Some(s)) => {
                    assert_eq!(b.pixel_indices, s.pixel_indices);
                    assert_eq!(b.tokens, s.tokens);
                    assert_eq!(
                        b.logits.value().data(),
                        s.logits.value().data(),
                        "frame {i} logits must be bit-identical"
                    );
                }
                (None, None) => {}
                _ => panic!("frame {i}: batched/solo presence disagrees"),
            }
        }
    }

    #[test]
    fn paper_config_dimensions() {
        let cfg = ViTConfig::paper();
        assert_eq!(cfg.grid_dims(), (40, 25));
        assert_eq!(cfg.num_patches(), 1000);
        assert_eq!(cfg.enc_depth, 12);
        assert_eq!(cfg.dec_depth, 2);
    }

    #[test]
    fn forward_batch_into_matches_forward_batch() {
        let vit = tiny();
        let a = synth_frame(7, 0.2);
        let empty = (vec![0.0f32; 1200], vec![0.0f32; 1200]);
        let b = synth_frame(8, 0.6);
        let frames = [&a, &empty, &b];
        let batch: Vec<(&[f32], &[f32])> = frames.iter().map(|f| (&f.0[..], &f.1[..])).collect();
        let taped = vit.forward_batch(&batch).unwrap();
        let mut out = PlannedBatch::new();
        vit.forward_batch_into(&batch, &mut out).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.frame(1).is_none());
        for (i, t) in taped.iter().enumerate() {
            match (t, out.frame(i)) {
                (Some(t), Some(p)) => {
                    assert_eq!(&t.pixel_indices[..], p.pixel_indices, "frame {i}");
                    assert_eq!(t.tokens, p.tokens, "frame {i}");
                    assert_eq!(t.logits.value().data(), p.logits, "frame {i}");
                }
                (None, None) => {}
                _ => panic!("frame {i}: presence disagrees"),
            }
        }
    }

    #[test]
    fn reused_holder_matches_a_fresh_one_and_holds_nothing_after_an_error() {
        let vit = tiny();
        let dense = synth_frame(1, 1.0);
        let sparse = synth_frame(2, 0.05);
        let empty = (vec![0.0f32; 1200], vec![0.0f32; 1200]);
        let mut single = (vec![0.0f32; 1200], vec![0.0f32; 1200]);
        single.0[777] = 0.3;
        single.1[777] = 1.0;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Runs `batch` through the reused holder and checks every frame
        // against a fresh holder, bit for bit.
        let run_and_check = |reused: &mut PlannedBatch, batch: &[&(Vec<f32>, Vec<f32>)]| {
            let frames: Vec<(&[f32], &[f32])> =
                batch.iter().map(|f| (&f.0[..], &f.1[..])).collect();
            vit.forward_batch_into(&frames, reused).unwrap();
            let mut fresh = PlannedBatch::new();
            vit.forward_batch_into(&frames, &mut fresh).unwrap();
            assert_eq!(reused.len(), frames.len());
            for i in 0..frames.len() {
                match (reused.frame(i), fresh.frame(i)) {
                    (Some(r), Some(f)) => {
                        assert_eq!(r.pixel_indices, f.pixel_indices, "frame {i}");
                        assert_eq!(r.tokens, f.tokens, "frame {i}");
                        assert_eq!(bits(r.logits), bits(f.logits), "frame {i}");
                    }
                    (None, None) => {}
                    _ => panic!("frame {i}: presence disagrees"),
                }
            }
        };
        let mut reused = PlannedBatch::new();
        run_and_check(&mut reused, &[&dense, &empty, &sparse]);
        run_and_check(&mut reused, &[&single]);
        run_and_check(&mut reused, &[&sparse, &single, &empty, &dense]);
        run_and_check(&mut reused, &[&empty, &sparse]);

        // A wrong-size frame after a good one: the call fails and leaves no
        // span behind to slice the cleared logits.
        let bad: Vec<(&[f32], &[f32])> = vec![(&dense.0, &dense.1), (&[0.0; 10], &[0.0; 10])];
        assert!(vit.forward_batch_into(&bad, &mut reused).is_err());
        assert_eq!(reused.len(), 0);
        assert!(reused.is_empty());

        run_and_check(&mut reused, &[&single, &dense]);
    }

    #[test]
    fn plan_cache_replans_per_span_layout_and_reuses_across_clones() {
        let vit = tiny();
        let a = synth_frame(9, 0.3);
        let b = synth_frame(10, 0.7);
        let mut out = PlannedBatch::new();
        let solo_a: Vec<(&[f32], &[f32])> = vec![(&a.0, &a.1)];
        let pair: Vec<(&[f32], &[f32])> = vec![(&a.0, &a.1), (&b.0, &b.1)];
        vit.forward_batch_into(&solo_a, &mut out).unwrap();
        let s1 = vit.plan_stats();
        assert_eq!((s1.plans, s1.misses, s1.hits), (1, 1, 0));
        // Same layout again: pure cache hit.
        vit.forward_batch_into(&solo_a, &mut out).unwrap();
        let s2 = vit.plan_stats();
        assert_eq!((s2.plans, s2.misses, s2.hits), (1, 1, 1));
        // A new span layout compiles a second plan; the old one survives.
        vit.forward_batch_into(&pair, &mut out).unwrap();
        let s3 = vit.plan_stats();
        assert_eq!((s3.plans, s3.misses), (2, 2));
        // Clones share the cache (fleet hosts reuse one compiled plan).
        let clone = vit.clone();
        clone.forward_batch_into(&solo_a, &mut out).unwrap();
        let s4 = clone.plan_stats();
        assert_eq!((s4.plans, s4.hits), (2, s3.hits + 1));
        assert_eq!(vit.plan_stats().hits, s4.hits);
    }

    /// Calibrates `vit` over a small deterministic scenario set and flips
    /// it to int8.
    fn calibrate_int8(vit: &SparseViT) -> usize {
        vit.begin_int8_calibration();
        for seed in 0..4u64 {
            let f = synth_frame(20 + seed, 0.2 + 0.2 * seed as f32);
            vit.observe_int8_calibration(&[(&f.0, &f.1)]).unwrap();
        }
        let sites = vit.finish_int8_calibration().unwrap();
        vit.set_int8(true).unwrap();
        sites
    }

    #[test]
    fn int8_forward_tracks_f32_and_differs() {
        let vit = tiny();
        let a = synth_frame(30, 0.3);
        let b = synth_frame(31, 0.6);
        let batch: Vec<(&[f32], &[f32])> = [&a, &b].iter().map(|f| (&f.0[..], &f.1[..])).collect();
        let mut f32_out = PlannedBatch::new();
        vit.forward_batch_into(&batch, &mut f32_out).unwrap();
        let f32_logits = f32_out.logits.clone();

        let sites = calibrate_int8(&vit);
        // qkv + proj + fc1 + fc2 per block (1 enc + 1 dec); the patch
        // embedding is excluded by the first-layer f32 rule.
        assert_eq!(sites, 8, "quantised matmul sites");
        assert!(vit.int8_enabled());
        assert_eq!(vit.int8_sites(), sites);

        let mut q_out = PlannedBatch::new();
        vit.forward_batch_into(&batch, &mut q_out).unwrap();
        assert_eq!(q_out.logits.len(), f32_logits.len());
        let maxabs = f32_logits.iter().fold(0f32, |m, v| m.max(v.abs()));
        let mut max_diff = 0f32;
        let mut any_diff = false;
        for (q, r) in q_out.logits.iter().zip(&f32_logits) {
            let d = (q - r).abs();
            max_diff = max_diff.max(d);
            any_diff |= q.to_bits() != r.to_bits();
        }
        assert!(any_diff, "int8 path must actually quantise");
        assert!(
            max_diff <= 0.15 * maxabs.max(1.0),
            "int8 drifted too far from f32: max_diff={max_diff} maxabs={maxabs}"
        );
        // The quantised plan cache compiled exactly one plan for this
        // layout; the f32 cache was untouched by the int8 pass.
        let qs = vit.quant_plan_stats();
        assert_eq!((qs.plans, qs.misses), (1, 1));
    }

    #[test]
    fn int8_forward_is_bit_identical_across_thread_counts() {
        let vit = tiny();
        calibrate_int8(&vit);
        let a = synth_frame(40, 0.15);
        let b = synth_frame(41, 0.5);
        let batch: Vec<(&[f32], &[f32])> = [&a, &b].iter().map(|f| (&f.0[..], &f.1[..])).collect();
        let run = |threads: usize| {
            bliss_parallel::with_thread_count(threads, || {
                bliss_parallel::with_min_parallel_work(0, || {
                    let mut out = PlannedBatch::new();
                    vit.forward_batch_into(&batch, &mut out).unwrap();
                    out.logits.clone()
                })
            })
        };
        let serial = run(1);
        for threads in [2, 8] {
            let par = run(threads);
            assert_eq!(serial.len(), par.len());
            assert!(
                serial
                    .iter()
                    .zip(&par)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "int8 logits must be bit-identical at {threads} threads"
            );
        }
    }

    #[test]
    fn int8_recalibration_is_deterministic() {
        let vit = tiny();
        let a = synth_frame(50, 0.4);
        let batch: Vec<(&[f32], &[f32])> = vec![(&a.0, &a.1)];
        let sites1 = calibrate_int8(&vit);
        let mut out1 = PlannedBatch::new();
        vit.forward_batch_into(&batch, &mut out1).unwrap();
        // Re-running the same calibration set reproduces the spec exactly:
        // same sites, bit-identical logits.
        let sites2 = calibrate_int8(&vit);
        assert_eq!(sites1, sites2);
        let mut out2 = PlannedBatch::new();
        vit.forward_batch_into(&batch, &mut out2).unwrap();
        assert!(out1
            .logits
            .iter()
            .zip(&out2.logits)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn set_int8_requires_calibration() {
        let vit = tiny();
        assert!(vit.set_int8(true).is_err());
        assert!(!vit.int8_enabled());
        vit.begin_int8_calibration();
        assert!(
            vit.finish_int8_calibration().is_err(),
            "finishing with no observed batches must fail"
        );
        // Disabling is always allowed.
        vit.set_int8(false).unwrap();
    }
}
