use crate::{Conv2d, MultiHeadAttention};
use bliss_tensor::{GraphBuilder, IndexSlot, NodeId, Tensor, TensorError};

type Result<T> = std::result::Result<T, TensorError>;

/// The operations the networks are written in, over either of two engines.
///
/// Every layer's `apply` method is written once against this trait:
///
/// * [`Tape`] runs each op eagerly on [`Tensor`]s and records its backward
///   pass (training, and the reference planned inference is pinned to);
/// * [`GraphBuilder`] records the op into the static DAG an
///   [`bliss_tensor::ExecPlan`] compiles (no-grad inference).
///
/// Each op dispatches to the same slice-level kernels on both engines, so a
/// compiled plan is bit-identical to the tape at any thread count. Every
/// fallible op fails with the same [`TensorError`] as its [`Tensor`] method.
/// Convolution and attention are engine-specific: the tape runs each as one
/// fused op with a hand-written backward, the graph lowers it to kernels.
pub trait Builder {
    /// A value in the network under construction.
    type Node: Clone;
    /// Row indices consumed by [`Builder::gather_rows`].
    type Index: ?Sized;

    /// A trainable parameter; the engine reads its current value.
    fn param(&mut self, t: &Tensor) -> Self::Node;
    /// Matrix product `a x b` (shape errors as [`Tensor::matmul`]).
    fn matmul(&mut self, a: &Self::Node, b: &Self::Node) -> Result<Self::Node>;
    /// Elementwise sum (shape errors as [`Tensor::add`]).
    fn add(&mut self, a: &Self::Node, b: &Self::Node) -> Result<Self::Node>;
    /// Adds a `[n]` row to every row of an `[m, n]` matrix.
    fn add_row(&mut self, a: &Self::Node, row: &Self::Node) -> Result<Self::Node>;
    /// Multiplies every element by `factor`.
    fn scale(&mut self, a: &Self::Node, factor: f32) -> Self::Node;
    /// Elementwise ReLU.
    fn relu(&mut self, a: &Self::Node) -> Self::Node;
    /// Elementwise logistic sigmoid.
    fn sigmoid(&mut self, a: &Self::Node) -> Self::Node;
    /// Elementwise GELU.
    fn gelu(&mut self, a: &Self::Node) -> Self::Node;
    /// Matrix transpose.
    fn transpose(&mut self, a: &Self::Node) -> Result<Self::Node>;
    /// The same elements viewed under `shape`.
    fn reshape(&mut self, a: &Self::Node, shape: &[usize]) -> Result<Self::Node>;
    /// Rows `start..end` of a matrix.
    fn slice_rows(&mut self, a: &Self::Node, start: usize, end: usize) -> Result<Self::Node>;
    /// Matrices with equal column counts, stacked.
    fn concat_rows(&mut self, parts: &[Self::Node]) -> Result<Self::Node>;
    /// Rows of `a` picked by `indices`.
    fn gather_rows(&mut self, a: &Self::Node, indices: &Self::Index) -> Result<Self::Node>;
    /// Row-wise layer normalisation with scale `gamma` and shift `beta`.
    fn layer_norm(
        &mut self,
        x: &Self::Node,
        gamma: &Self::Node,
        beta: &Self::Node,
        eps: f32,
    ) -> Result<Self::Node>;
    /// `conv` applied to a `[c, h, w]` input.
    fn conv2d(&mut self, conv: &Conv2d, x: &Self::Node) -> Result<Self::Node>;
    /// `mha`'s heads over `x` with block-diagonal attention (rows attend
    /// only within their `spans` entry), concatenated head by head: the
    /// input of the output projection.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidArgument`] unless `spans` covers `x`'s rows in
    /// order with non-empty, gap-free ranges; shape errors otherwise.
    fn block_attention(
        &mut self,
        mha: &MultiHeadAttention,
        x: &Self::Node,
        spans: &[(usize, usize)],
    ) -> Result<Self::Node>;
}

/// The autograd-tape engine: ops run eagerly on [`Tensor`]s and record
/// their backward passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tape;

impl Builder for Tape {
    type Node = Tensor;
    type Index = [usize];

    fn param(&mut self, t: &Tensor) -> Tensor {
        t.clone()
    }
    fn matmul(&mut self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        a.matmul(b)
    }
    fn add(&mut self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        a.add(b)
    }
    fn add_row(&mut self, a: &Tensor, row: &Tensor) -> Result<Tensor> {
        a.add_row(row)
    }
    fn scale(&mut self, a: &Tensor, factor: f32) -> Tensor {
        a.scale(factor)
    }
    fn relu(&mut self, a: &Tensor) -> Tensor {
        a.relu()
    }
    fn sigmoid(&mut self, a: &Tensor) -> Tensor {
        a.sigmoid()
    }
    fn gelu(&mut self, a: &Tensor) -> Tensor {
        a.gelu()
    }
    fn transpose(&mut self, a: &Tensor) -> Result<Tensor> {
        a.transpose()
    }
    fn reshape(&mut self, a: &Tensor, shape: &[usize]) -> Result<Tensor> {
        a.reshape(shape)
    }
    fn slice_rows(&mut self, a: &Tensor, start: usize, end: usize) -> Result<Tensor> {
        a.slice_rows(start, end)
    }
    fn concat_rows(&mut self, parts: &[Tensor]) -> Result<Tensor> {
        Tensor::concat_rows(parts)
    }
    fn gather_rows(&mut self, a: &Tensor, indices: &[usize]) -> Result<Tensor> {
        a.gather_rows(indices)
    }
    fn layer_norm(
        &mut self,
        x: &Tensor,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
    ) -> Result<Tensor> {
        x.layer_norm(gamma, beta, eps)
    }
    fn conv2d(&mut self, conv: &Conv2d, x: &Tensor) -> Result<Tensor> {
        conv.on_tape(x)
    }
    fn block_attention(
        &mut self,
        mha: &MultiHeadAttention,
        x: &Tensor,
        spans: &[(usize, usize)],
    ) -> Result<Tensor> {
        mha.heads_on_tape(x, spans)
    }
}

/// The planned-inference engine: ops are recorded, shape-checked, into a
/// static DAG for [`bliss_tensor::ExecPlan::compile`].
impl Builder for GraphBuilder {
    type Node = NodeId;
    type Index = IndexSlot;

    fn param(&mut self, t: &Tensor) -> NodeId {
        GraphBuilder::param(self, t)
    }
    fn matmul(&mut self, a: &NodeId, b: &NodeId) -> Result<NodeId> {
        GraphBuilder::matmul(self, *a, *b)
    }
    fn add(&mut self, a: &NodeId, b: &NodeId) -> Result<NodeId> {
        GraphBuilder::add(self, *a, *b)
    }
    fn add_row(&mut self, a: &NodeId, row: &NodeId) -> Result<NodeId> {
        GraphBuilder::add_row(self, *a, *row)
    }
    fn scale(&mut self, a: &NodeId, factor: f32) -> NodeId {
        GraphBuilder::scale(self, *a, factor)
    }
    fn relu(&mut self, a: &NodeId) -> NodeId {
        GraphBuilder::relu(self, *a)
    }
    fn sigmoid(&mut self, a: &NodeId) -> NodeId {
        GraphBuilder::sigmoid(self, *a)
    }
    fn gelu(&mut self, a: &NodeId) -> NodeId {
        GraphBuilder::gelu(self, *a)
    }
    fn transpose(&mut self, a: &NodeId) -> Result<NodeId> {
        GraphBuilder::transpose(self, *a)
    }
    fn reshape(&mut self, a: &NodeId, shape: &[usize]) -> Result<NodeId> {
        GraphBuilder::reshape(self, *a, shape)
    }
    fn slice_rows(&mut self, a: &NodeId, start: usize, end: usize) -> Result<NodeId> {
        GraphBuilder::slice_rows(self, *a, start, end)
    }
    fn concat_rows(&mut self, parts: &[NodeId]) -> Result<NodeId> {
        GraphBuilder::concat_rows(self, parts)
    }
    fn gather_rows(&mut self, a: &NodeId, indices: &IndexSlot) -> Result<NodeId> {
        GraphBuilder::gather_rows(self, *a, *indices)
    }
    fn layer_norm(
        &mut self,
        x: &NodeId,
        gamma: &NodeId,
        beta: &NodeId,
        eps: f32,
    ) -> Result<NodeId> {
        GraphBuilder::layer_norm(self, *x, *gamma, *beta, eps)
    }

    fn conv2d(&mut self, conv: &Conv2d, x: &NodeId) -> Result<NodeId> {
        conv.on_graph(self, *x)
    }

    fn block_attention(
        &mut self,
        mha: &MultiHeadAttention,
        x: &NodeId,
        spans: &[(usize, usize)],
    ) -> Result<NodeId> {
        mha.heads_on_graph(self, *x, spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LayerNormLayer, Linear, Mlp, TransformerBlock};
    use bliss_tensor::{ExecPlan, NdArray};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs a layer on both engines over a random input of `shape`,
    /// compiles the graph, and checks two executions of the plan reproduce
    /// the tape bit-for-bit.
    fn assert_engines_agree(
        rng: &mut StdRng,
        shape: &[usize],
        taped: impl FnOnce(&Tensor) -> Result<Tensor>,
        graph: impl FnOnce(&mut GraphBuilder, NodeId) -> Result<NodeId>,
    ) {
        let x = NdArray::randn(rng, shape, 1.0);
        let taped = taped(&Tensor::constant(x.clone())).unwrap();
        let mut g = GraphBuilder::default();
        let xin = g.input(shape);
        let out = graph(&mut g, xin).unwrap();
        g.mark_output(out);
        let plan = ExecPlan::compile(g).unwrap();
        for _ in 0..2 {
            plan.execute(&[x.data()], &[]).unwrap();
            plan.with_output(0, |data| assert_eq!(data, taped.value().data()));
        }
    }

    #[test]
    fn linear_graph_matches_tape_bitwise() {
        let rng = &mut StdRng::seed_from_u64(30);
        let l = Linear::new(rng, 8, 3);
        assert_engines_agree(rng, &[5, 8], |x| l.forward(x), |g, x| l.apply(g, &x));
    }

    #[test]
    fn conv_graph_matches_tape_bitwise() {
        let rng = &mut StdRng::seed_from_u64(31);
        let c = Conv2d::new(rng, 2, 4, 3, 2, 1);
        assert_engines_agree(rng, &[2, 8, 8], |x| c.forward(x), |g, x| c.apply(g, &x));
    }

    #[test]
    fn layer_norm_graph_matches_tape_bitwise() {
        let rng = &mut StdRng::seed_from_u64(32);
        let n = LayerNormLayer::new(6);
        assert_engines_agree(rng, &[4, 6], |x| n.forward(x), |g, x| n.apply(g, &x));
    }

    #[test]
    fn mlp_graph_matches_tape_bitwise() {
        let rng = &mut StdRng::seed_from_u64(33);
        let m = Mlp::new(rng, 6, 24);
        assert_engines_agree(rng, &[3, 6], |x| m.forward(x), |g, x| m.apply(g, &x));
    }

    #[test]
    fn mha_spans_graph_matches_tape_bitwise() {
        let rng = &mut StdRng::seed_from_u64(20);
        let m = MultiHeadAttention::new(rng, 12, 3);
        let s = [(0, 4), (4, 9)];
        let taped = |x: &Tensor| m.apply(&mut Tape, x, &s);
        assert_engines_agree(rng, &[9, 12], taped, |g, x| m.apply(g, &x, &s));
    }

    #[test]
    fn transformer_block_graph_matches_tape_bitwise() {
        let rng = &mut StdRng::seed_from_u64(21);
        let b = TransformerBlock::new(rng, 8, 2);
        let s = [(0, 7), (7, 10)];
        let taped = |x: &Tensor| b.apply(&mut Tape, x, &s);
        assert_engines_agree(rng, &[10, 8], taped, |g, x| b.apply(g, &x, &s));
    }

    #[test]
    fn graph_rejects_wrong_conv_channels_and_malformed_spans() {
        let mut rng = StdRng::seed_from_u64(34);
        let c = Conv2d::new(&mut rng, 2, 4, 3, 1, 1);
        let mut g = GraphBuilder::default();
        let xin = g.input(&[3, 8, 8]);
        assert!(c.apply(&mut g, &xin).is_err());

        let mha = MultiHeadAttention::new(&mut rng, 8, 2);
        let xin = g.input(&[6, 8]);
        assert!(mha.apply(&mut g, &xin, &[(0, 3)]).is_err());
        assert!(mha.apply(&mut g, &xin, &[(0, 4), (3, 6)]).is_err());
    }
}
