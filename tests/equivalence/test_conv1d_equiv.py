"""Conv1D fast paths vs the preserved gather/add.at oracle, plus
finite-difference gradient checks.

The fast paths (reshape im2col for non-overlapping windows, fancy-index
scatter for disjoint windows) must be *bitwise* identical to the original
implementation in all stride/kernel regimes; the finite-difference checks
then validate the oracle itself against numerical gradients.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.conv1d import Conv1D

from tests.equivalence.conftest import assert_bitwise_equal
from tests.oracles.nn import _reference_conv1d_backward, _reference_conv1d_forward

#: (kernel_size, stride) covering the tiling, gapped, and overlapping regimes.
REGIMES = [(5, 5), (1, 1), (3, 5), (4, 2), (2, 3), (3, 1)]


def _layer_and_input(k, s, batch=2, windows=4, cin=3, cout=2, seed=0, use_bias=True):
    rng = np.random.default_rng(seed)
    length = (windows - 1) * s + k
    layer = Conv1D(cin, cout, k, stride=s, use_bias=use_bias, rng=seed)
    x = rng.normal(size=(batch, length, cin))
    return layer, x


class TestBitwiseForward:
    @pytest.mark.parametrize("k,s", REGIMES)
    def test_forward_matches_reference(self, k, s):
        layer, x = _layer_and_input(k, s)
        out = layer.forward(x)
        ref = _reference_conv1d_forward(
            x, layer.weight.value, layer.bias.value, k, s
        )
        assert_bitwise_equal(out, ref, f"k={k} s={s}")

    @settings(max_examples=40)
    @given(
        st.integers(1, 4),  # kernel
        st.integers(1, 4),  # stride
        st.integers(1, 3),  # batch
        st.integers(1, 5),  # windows
        st.integers(1, 4),  # channels
        st.integers(0, 5),  # seed
    )
    def test_forward_matches_reference_fuzzed(self, k, s, batch, windows, cin, seed):
        layer, x = _layer_and_input(k, s, batch=batch, windows=windows, cin=cin, seed=seed)
        ref = _reference_conv1d_forward(x, layer.weight.value, layer.bias.value, k, s)
        assert_bitwise_equal(layer.forward(x), ref)

    def test_forward_without_bias(self):
        layer, x = _layer_and_input(3, 3, use_bias=False)
        ref = _reference_conv1d_forward(x, layer.weight.value, None, 3, 3)
        assert_bitwise_equal(layer.forward(x), ref)

    def test_trailing_remainder_positions(self):
        """Input length not a multiple of the stride grid uses the gather path."""
        layer = Conv1D(2, 2, 3, stride=3, rng=0)
        x = np.random.default_rng(3).normal(size=(2, 11, 2))  # 11 = 3*3 + 2 left over
        ref = _reference_conv1d_forward(x, layer.weight.value, layer.bias.value, 3, 3)
        assert_bitwise_equal(layer.forward(x), ref)


class TestBitwiseBackward:
    @pytest.mark.parametrize("k,s", REGIMES)
    def test_backward_matches_reference(self, k, s):
        layer, x = _layer_and_input(k, s)
        out = layer.forward(x)
        grad = np.random.default_rng(7).normal(size=out.shape)
        dx = layer.backward(grad)
        ref_dx, ref_dw, ref_db = _reference_conv1d_backward(
            x, layer.weight.value, grad, k, s
        )
        assert_bitwise_equal(dx, ref_dx, f"dx k={k} s={s}")
        assert_bitwise_equal(layer.weight.grad, ref_dw, f"dw k={k} s={s}")
        assert_bitwise_equal(layer.bias.grad, ref_db, f"db k={k} s={s}")

    @settings(max_examples=40)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(0, 5),
    )
    def test_backward_matches_reference_fuzzed(self, k, s, batch, windows, seed):
        layer, x = _layer_and_input(k, s, batch=batch, windows=windows, seed=seed)
        out = layer.forward(x)
        grad = np.random.default_rng(seed + 100).normal(size=out.shape)
        dx = layer.backward(grad)
        ref_dx, ref_dw, ref_db = _reference_conv1d_backward(
            x, layer.weight.value, grad, k, s
        )
        assert_bitwise_equal(dx, ref_dx)
        assert_bitwise_equal(layer.weight.grad, ref_dw)
        assert_bitwise_equal(layer.bias.grad, ref_db)

    def test_gradients_accumulate(self):
        layer, x = _layer_and_input(3, 3)
        out = layer.forward(x)
        grad = np.ones_like(out)
        layer.backward(grad)
        first = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(grad)
        np.testing.assert_array_equal(layer.weight.grad, 2 * first)


class TestDummyPaddedBatches:
    """All-zero rows (dummy vertices / sequence padding) must stay inert."""

    def test_zero_windows_give_zero_outputs(self):
        layer, x = _layer_and_input(4, 4, use_bias=False)
        x[:, 4:8, :] = 0.0  # zero out window 1 of every batch element
        out = layer.forward(x)
        assert np.all(out[:, 1, :] == 0.0)

    def test_padded_batch_rows_receive_zero_input_gradient(self):
        layer, x = _layer_and_input(4, 4, use_bias=False)
        x[-1, :, :] = 0.0  # final batch element entirely dummy
        out = layer.forward(x)
        grad = np.zeros_like(out)
        grad[:-1] = 1.0  # loss ignores the dummy element
        dx = layer.backward(grad)
        assert np.all(dx[-1] == 0.0)


class TestFiniteDifference:
    @pytest.mark.parametrize("k,s", [(3, 3), (2, 1), (3, 5)])
    def test_weight_gradient(self, k, s):
        layer, x = _layer_and_input(k, s, batch=2, windows=3, cin=2, cout=2)
        rng = np.random.default_rng(11)
        probe = rng.normal(size=layer.forward(x).shape)

        def loss():
            return float(np.sum(layer.forward(x) * probe))

        layer.forward(x)
        layer.weight.grad[...] = 0.0
        layer.backward(probe)
        analytic = layer.weight.grad.copy()
        eps = 1e-6
        w = layer.weight.value
        numeric = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                orig = w[i, j]
                w[i, j] = orig + eps
                up = loss()
                w[i, j] = orig - eps
                down = loss()
                w[i, j] = orig
                numeric[i, j] = (up - down) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

    def test_bias_gradient(self):
        layer, x = _layer_and_input(3, 3)
        rng = np.random.default_rng(12)
        probe = rng.normal(size=layer.forward(x).shape)
        layer.forward(x)
        layer.bias.grad[...] = 0.0
        layer.backward(probe)
        analytic = layer.bias.grad.copy()
        eps = 1e-6
        b = layer.bias.value
        numeric = np.zeros_like(b)
        for j in range(b.shape[0]):
            orig = b[j]
            b[j] = orig + eps
            up = float(np.sum(layer.forward(x) * probe))
            b[j] = orig - eps
            down = float(np.sum(layer.forward(x) * probe))
            b[j] = orig
            numeric[j] = (up - down) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("k,s", [(3, 3), (2, 1), (3, 5)])
    def test_input_gradient(self, k, s):
        layer, x = _layer_and_input(k, s, batch=1, windows=3, cin=2)
        rng = np.random.default_rng(13)
        probe = rng.normal(size=layer.forward(x).shape)
        layer.forward(x)
        analytic = layer.backward(probe)
        eps = 1e-6
        numeric = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            orig = x[idx]
            x[idx] = orig + eps
            up = float(np.sum(layer.forward(x) * probe))
            x[idx] = orig - eps
            down = float(np.sum(layer.forward(x) * probe))
            x[idx] = orig
            numeric[idx] = (up - down) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)
