"""Tests for the encoder module, binarisation, and the fair loss.

The fused fair loss (one batched gather-sum over all I·K counterfactual
pairs) is parity-tested against the original loop implementation — kept and
exported as ``fair_representation_loss_reference`` — with a hypothesis
harness drawing shapes (I, K, N, d), masks (including zero-valid attributes
and all-invalid indexes) and weights: value, per-attribute disparities and
gradient must agree to 1e-9.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CounterfactualIndex,
    CounterfactualSearch,
    EncoderModule,
    binarize_attributes,
    fair_representation_loss,
    fair_representation_loss_minibatch,
    fair_representation_loss_minibatch_reference,
    fair_representation_loss_reference,
)
from repro.tensor import Tensor


class TestBinarize:
    def test_median_split_balanced(self):
        values = np.arange(10.0).reshape(10, 1)
        binary = binarize_attributes(values)
        assert binary.sum() == 5  # strictly-above-median half

    def test_quantile_parameter(self):
        values = np.arange(100.0).reshape(100, 1)
        binary = binarize_attributes(values, quantile=0.9)
        assert binary.sum() == pytest.approx(10, abs=1)

    def test_constant_column_all_zero(self):
        binary = binarize_attributes(np.ones((5, 2)))
        assert binary.sum() == 0

    def test_output_dtype_and_shape(self):
        binary = binarize_attributes(np.random.default_rng(0).normal(size=(8, 3)))
        assert binary.dtype == np.int64
        assert binary.shape == (8, 3)
        assert set(np.unique(binary)) <= {0, 1}

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            binarize_attributes(np.ones(5))
        with pytest.raises(ValueError):
            binarize_attributes(np.ones((5, 2)), quantile=1.5)


class TestEncoderModule:
    def test_extract_before_pretrain_raises(self, tiny_graph):
        encoder = EncoderModule(4, 8, np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            encoder.extract(Tensor(tiny_graph.features), tiny_graph.adjacency)

    def test_pretrain_then_extract_shape(self, small_graph):
        encoder = EncoderModule(small_graph.num_features, 8, np.random.default_rng(0))
        encoder.pretrain(
            Tensor(small_graph.features),
            small_graph.adjacency,
            small_graph.labels,
            small_graph.train_mask,
            small_graph.val_mask,
            epochs=20,
        )
        out = encoder.extract(Tensor(small_graph.features), small_graph.adjacency)
        assert out.shape == (small_graph.num_nodes, 8)
        # A one-off pass: no propagation matrix outlives it.
        assert encoder.network._prop_cache == {}

    def test_mlp_backbone_ignores_structure(self, small_graph):
        import scipy.sparse as sp

        encoder = EncoderModule(
            small_graph.num_features, 4, np.random.default_rng(0), backbone="mlp"
        )
        encoder.pretrain(
            Tensor(small_graph.features),
            small_graph.adjacency,
            small_graph.labels,
            small_graph.train_mask,
            small_graph.val_mask,
            epochs=10,
        )
        out1 = encoder.extract(Tensor(small_graph.features), small_graph.adjacency)
        empty = sp.csr_matrix((small_graph.num_nodes, small_graph.num_nodes))
        out2 = encoder.extract(Tensor(small_graph.features), empty)
        np.testing.assert_allclose(out1, out2)

    def test_gcn_backbone_uses_structure(self, small_graph):
        import scipy.sparse as sp

        encoder = EncoderModule(
            small_graph.num_features, 4, np.random.default_rng(0), backbone="gcn"
        )
        encoder.pretrain(
            Tensor(small_graph.features),
            small_graph.adjacency,
            small_graph.labels,
            small_graph.train_mask,
            small_graph.val_mask,
            epochs=10,
        )
        out1 = encoder.extract(Tensor(small_graph.features), small_graph.adjacency)
        empty = sp.csr_matrix((small_graph.num_nodes, small_graph.num_nodes))
        out2 = encoder.extract(Tensor(small_graph.features), empty)
        assert not np.allclose(out1, out2)

    def test_encoder_learns_the_task(self, small_graph):
        encoder = EncoderModule(small_graph.num_features, 16, np.random.default_rng(0))
        history = encoder.pretrain(
            Tensor(small_graph.features),
            small_graph.adjacency,
            small_graph.labels,
            small_graph.train_mask,
            small_graph.val_mask,
            epochs=80,
        )
        assert history.best_val_accuracy > 0.6


class TestFairRepresentationLoss:
    def _setup(self, seed=0, n=20, d=4, attrs=2, k=2):
        rng = np.random.default_rng(seed)
        reps = rng.normal(size=(n, d))
        labels = rng.integers(0, 2, size=n)
        binary = rng.integers(0, 2, size=(n, attrs))
        index = CounterfactualSearch(top_k=k).search(reps, labels, binary)
        return reps, index

    def test_matches_manual_computation(self):
        reps, index = self._setup()
        weights = np.array([0.3, 0.7])
        loss, disparities = fair_representation_loss(
            Tensor(reps, requires_grad=True), index, weights
        )
        manual = np.zeros(2)
        for attr in range(2):
            valid = index.valid[attr]
            if not valid.any():
                continue
            for k in range(index.top_k):
                cf = reps[index.indices[attr, :, k]]
                sq = ((reps - cf) ** 2).sum(axis=1)
                manual[attr] += (sq * valid).sum() / valid.sum()
        np.testing.assert_allclose(disparities, manual)
        assert float(loss.data) == pytest.approx(float(weights @ manual))

    def test_zero_when_representations_identical(self):
        reps = np.ones((10, 3))
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=10)
        binary = rng.integers(0, 2, size=(10, 2))
        index = CounterfactualSearch(top_k=1).search(reps, labels, binary)
        loss, disparities = fair_representation_loss(
            Tensor(reps), index, np.array([0.5, 0.5])
        )
        assert float(loss.data) == pytest.approx(0.0)
        np.testing.assert_allclose(disparities, 0.0)

    def test_gradients_flow_to_representations(self):
        reps, index = self._setup(seed=2)
        tensor = Tensor(reps, requires_grad=True)
        loss, _ = fair_representation_loss(tensor, index, np.array([0.5, 0.5]))
        loss.backward()
        assert tensor.grad is not None
        assert np.abs(tensor.grad).sum() > 0

    def test_zero_weight_attribute_excluded_from_loss(self):
        reps, index = self._setup(seed=3)
        loss_full, disp = fair_representation_loss(
            Tensor(reps), index, np.array([1.0, 0.0])
        )
        assert float(loss_full.data) == pytest.approx(disp[0])

    def test_invalid_pairs_contribute_zero(self):
        reps = np.random.default_rng(4).normal(size=(8, 2))
        labels = np.zeros(8, dtype=int)
        binary = np.zeros((8, 1), dtype=int)  # no counterfactuals exist
        index = CounterfactualSearch(top_k=2).search(reps, labels, binary)
        loss, disparities = fair_representation_loss(
            Tensor(reps), index, np.array([1.0])
        )
        assert float(loss.data) == 0.0
        np.testing.assert_allclose(disparities, 0.0)

    def test_weight_length_mismatch(self):
        reps, index = self._setup(seed=5)
        with pytest.raises(ValueError):
            fair_representation_loss(Tensor(reps), index, np.array([1.0]))

    def test_representation_row_mismatch(self):
        reps, index = self._setup(seed=6)
        with pytest.raises(ValueError):
            fair_representation_loss(
                Tensor(reps[:-1]), index, np.array([0.5, 0.5])
            )


# --------------------------------------------------------------------- #
# hypothesis parity harness: fused loss vs loop oracle
# --------------------------------------------------------------------- #
def _draw_case(seed: int):
    """A random (representations, index, weights) triple with hard edges.

    The index mirrors the search contract: invalid (attribute, node) pairs
    self-point.  The draw deliberately covers zero-valid attributes, fully
    invalid indexes, zero weights and mixed feature scales.
    """
    rng = np.random.default_rng(seed)
    num_attrs = int(rng.integers(1, 6))
    num_nodes = int(rng.integers(4, 60))
    top_k = int(rng.integers(1, 5))
    dim = int(rng.integers(1, 8))
    scale = float(rng.choice([0.1, 1.0, 10.0]))
    reps = rng.normal(scale=scale, size=(num_nodes, dim))

    valid_rate = float(rng.choice([0.0, 0.3, 0.8, 1.0]))
    valid = rng.random((num_attrs, num_nodes)) < valid_rate
    if num_attrs > 1 and rng.random() < 0.5:
        valid[int(rng.integers(num_attrs))] = False  # zero-valid attribute
    indices = rng.integers(0, num_nodes, size=(num_attrs, num_nodes, top_k))
    self_idx = np.broadcast_to(
        np.arange(num_nodes)[None, :, None], indices.shape
    )
    indices = np.where(valid[:, :, None], indices, self_idx)
    index = CounterfactualIndex(indices=indices, valid=valid)

    weights = rng.random(num_attrs)
    weights[rng.random(num_attrs) < 0.3] = 0.0  # exercise zero weights
    total = weights.sum()
    if total > 0:
        weights = weights / total
    return reps, index, weights


def _grad_of(tensor: Tensor) -> np.ndarray:
    """Gradient with ``None`` (constant-loss path) read as zeros."""
    if tensor.grad is None:
        return np.zeros(tensor.shape)
    return tensor.grad


class TestFusedLossParityHarness:
    """Fused fair loss == loop oracle, value and gradient, to 1e-9."""

    @settings(deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_fullbatch_parity(self, seed):
        reps, index, weights = _draw_case(seed)
        fused_t = Tensor(reps, requires_grad=True)
        fused_loss, fused_disp = fair_representation_loss(fused_t, index, weights)
        fused_loss.backward()
        ref_t = Tensor(reps, requires_grad=True)
        ref_loss, ref_disp = fair_representation_loss_reference(
            ref_t, index, weights
        )
        ref_loss.backward()
        np.testing.assert_allclose(
            float(fused_loss.data), float(ref_loss.data), rtol=1e-9, atol=1e-9
        )
        np.testing.assert_allclose(fused_disp, ref_disp, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            _grad_of(fused_t), _grad_of(ref_t), rtol=1e-9, atol=1e-9
        )

    @settings(deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_minibatch_parity(self, seed):
        reps, index, weights = _draw_case(seed)
        rng = np.random.default_rng(seed + 1)
        num_attrs, num_nodes, _ = index.indices.shape
        batch = np.sort(
            rng.choice(num_nodes, size=int(rng.integers(1, num_nodes + 1)), replace=False)
        )
        attrs = None
        if num_attrs > 1 and rng.random() < 0.5:
            attrs = np.sort(
                rng.choice(
                    num_attrs, size=int(rng.integers(1, num_attrs)), replace=False
                )
            )
        attr_slice = np.arange(num_attrs) if attrs is None else attrs
        targets = index.indices[np.ix_(attr_slice, batch)][
            index.valid[np.ix_(attr_slice, batch)]
        ]
        seeds = np.unique(np.concatenate([batch, targets.reshape(-1)]))

        fused_t = Tensor(reps[seeds], requires_grad=True)
        fused = fair_representation_loss_minibatch(
            fused_t, index, weights, batch, seeds, attrs=attrs
        )
        fused[0].backward()
        ref_t = Tensor(reps[seeds], requires_grad=True)
        ref = fair_representation_loss_minibatch_reference(
            ref_t, index, weights, batch, seeds, attrs=attrs
        )
        ref[0].backward()
        np.testing.assert_allclose(
            float(fused[0].data), float(ref[0].data), rtol=1e-9, atol=1e-9
        )
        np.testing.assert_allclose(fused[1], ref[1], rtol=1e-9, atol=1e-9)
        np.testing.assert_array_equal(fused[2], ref[2])
        np.testing.assert_allclose(
            _grad_of(fused_t), _grad_of(ref_t), rtol=1e-9, atol=1e-9
        )

    def test_all_invalid_pairs_zero_loss_and_gradient(self):
        rng = np.random.default_rng(3)
        reps = rng.normal(size=(10, 4))
        indices = np.tile(np.arange(10)[None, :, None], (2, 1, 3))
        index = CounterfactualIndex(
            indices=indices, valid=np.zeros((2, 10), dtype=bool)
        )
        t = Tensor(reps, requires_grad=True)
        loss, disp = fair_representation_loss(t, index, np.full(2, 0.5))
        loss.backward()
        assert float(loss.data) == 0.0
        np.testing.assert_array_equal(disp, np.zeros(2))
        np.testing.assert_array_equal(_grad_of(t), np.zeros((10, 4)))

    def test_searched_index_parity(self):
        # Parity on a *real* searched index, not just synthetic ones.
        rng = np.random.default_rng(11)
        reps = rng.normal(size=(50, 5))
        labels = rng.integers(0, 2, size=50)
        binary = rng.integers(0, 2, size=(50, 4))
        index = CounterfactualSearch(top_k=3).search(reps, labels, binary)
        weights = np.full(4, 0.25)
        fused_t = Tensor(reps, requires_grad=True)
        loss_f, disp_f = fair_representation_loss(fused_t, index, weights)
        loss_f.backward()
        ref_t = Tensor(reps, requires_grad=True)
        loss_r, disp_r = fair_representation_loss_reference(ref_t, index, weights)
        loss_r.backward()
        np.testing.assert_allclose(
            float(loss_f.data), float(loss_r.data), rtol=1e-9
        )
        np.testing.assert_allclose(disp_f, disp_r, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            _grad_of(fused_t), _grad_of(ref_t), rtol=1e-9, atol=1e-9
        )
