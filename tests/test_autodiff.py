import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latentpoison import autodiff as ad
from latentpoison.autodiff import (
    Adam,
    ShapeMismatchError,
    Tensor,
    adam_step,
    backward,
    bce,
    kl_standard_normal,
    lp_penalty,
    mlp,
)
from gradcheck import grad_check
from reduction import total

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)
unit_open = st.floats(min_value=1e-6, max_value=1 - 1e-6, allow_nan=False)


def _sigmoid(values):
    return ad._sigmoid(np.asarray(values, dtype=np.float64))


def _affine(x, weights, bias):
    """One affine layer: a one-layer chain with no activation."""
    return mlp(x, [(Tensor(weights), Tensor(bias))], None)


def _bruteforce_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


class TestLinear:
    def test_identity_weights(self):
        out = _affine([[1.0, 2.0]], np.eye(2), [0.0, 0.0])
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_zero_input_passes_bias(self):
        out = _affine([[0.0, 0.0]], [[5.0, -1.0], [2.0, 7.0]], [3.0, 4.0])
        np.testing.assert_array_equal(out.data, [[3.0, 4.0]])

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 2))
        bias = rng.standard_normal(2)
        out = _affine(a, b, bias)
        np.testing.assert_allclose(out.data, _bruteforce_matmul(a, b) + bias, rtol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 2\)"):
            _affine(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(2))

    def test_bias_shape_error(self):
        with pytest.raises(ShapeMismatchError, match="bias"):
            _affine(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(3))

    def test_gradients_reach_all_inputs(self):
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.ones((3, 2)))
        b = Tensor(np.zeros(2))
        backward(total(mlp(x, [(w, b)], None)), [x, w, b])
        assert x.grad.shape == (2, 3)
        assert w.grad.shape == (3, 2)
        np.testing.assert_array_equal(b.grad, [2.0, 2.0])

    def test_one_node_bitwise_equals_matmul_plus_bias_graph(self):
        rng = np.random.default_rng(6)
        arrays = rng.standard_normal((5, 4)), rng.standard_normal((4, 3)), rng.standard_normal(3)
        scale = rng.standard_normal((5, 3))

        def run(affine):
            x, w, b = (Tensor(a.copy()) for a in arrays)
            out = affine(x, w, b)
            backward(total(out * out * scale), [x, w, b])
            return [out.data.tobytes()] + [t.grad.tobytes() for t in (x, w, b)]

        one_node = run(lambda x, w, b: mlp(x, [(w, b)], None))
        assert one_node == run(lambda x, w, b: ad.add(ad.matmul(x, w), b))


class TestSigmoid:
    def test_symmetry_point(self):
        assert _sigmoid(0.0) == 0.5

    def test_saturation(self):
        assert abs(_sigmoid(50.0) - 1.0) < 1e-12

    def test_stays_strictly_inside_unit_interval(self):
        out = _sigmoid([-1000.0, -50.0, 0.0, 50.0, 1000.0])
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_value_matches_scalar_formula(self):
        expected = 1.0 / (1.0 + math.exp(-1.0))
        assert _sigmoid(1.0) == pytest.approx(expected, abs=1e-15)

    def test_bitwise_equals_three_exp_expression(self):
        x = np.array([0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 709.0, -709.0,
                      745.0, -745.0, 1e4, -1e4])
        expected = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        expected = np.clip(expected, ad._SIG_FLOOR, ad._SIG_CEIL)
        assert _sigmoid(x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(16,), (63, 1), (7, 13), (64, 256)])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 37.0, 100.0, 800.0])
    def test_bitwise_equals_the_where_formula(self, shape, scale):
        # the two-branch np.where form, compared bit for bit (NaN and sign bits too)
        special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 709.0, -709.0, -745.0, -746.0,
                   1e-320, -1e-320, 36.7, -36.7, 37.5, -37.5, 3.0]
        x = np.random.default_rng(int(scale * 10)).normal(size=shape) * scale
        x.flat[: len(special)] = special[: x.size]
        e = np.exp(-np.abs(x))
        expected = np.clip(np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)),
                           ad._SIG_FLOOR, ad._SIG_CEIL)
        out = _sigmoid(x)
        assert out.shape == x.shape
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))

    @given(hnp.arrays(np.float64, (3, 2), elements=finite_floats))
    def test_range_property(self, x):
        out = _sigmoid(x)
        assert np.all((out > 0) & (out < 1))


def _chain(rng, widths):
    """Input of shape [5, widths[0]] and one (weights, bias) pair per pair of widths."""
    x = rng.standard_normal((5, widths[0]))
    layers = [(rng.standard_normal((a, b)) * 0.7, rng.standard_normal(b) * 0.3)
              for a, b in zip(widths, widths[1:])]
    return x, layers


def _reference_chain(x, layers, last, g):
    """The chain's output and the gradients of x, w0, b0, w1, ... for output gradient ``g``.

    Per layer: ``h @ w`` plus the bias, then tanh or the two-branch sigmoid; the
    backward pass uses each layer's own expressions, one layer at a time.
    """
    acts = ["tanh"] * (len(layers) - 1) + [last]
    outs = [x]
    for (w, b), act in zip(layers, acts):
        z = outs[-1] @ w
        z += b
        if act == "tanh":
            z = np.tanh(z)
        elif act == "sigmoid":
            e = np.exp(-np.abs(z))
            z = np.clip(np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e)),
                        ad._SIG_FLOOR, ad._SIG_CEIL)
        outs.append(z)
    grads = []
    for i in reversed(range(len(layers))):
        out = outs[i + 1]
        if acts[i] == "tanh":
            g = g * (1.0 - out * out)
        elif acts[i] == "sigmoid":
            g = g * out * (1.0 - out)
        grads = [outs[i].T @ g, g.sum(axis=0)] + grads
        g = g @ layers[i][0].T
    return outs[-1], [g] + grads


def _chain_tensors(x, layers):
    xt = Tensor(x.copy(), name="x")
    pairs = [(Tensor(w.copy()), Tensor(b.copy())) for w, b in layers]
    return xt, pairs, [xt] + [t for pair in pairs for t in pair]


LASTS = ["tanh", "sigmoid", None]
WIDTHS = [(4, 3), (4, 6, 3), (4, 6, 5, 3)]


class TestMlp:
    @pytest.mark.parametrize("last", LASTS)
    @pytest.mark.parametrize("widths", WIDTHS, ids=["1-layer", "2-layer", "3-layer"])
    def test_bitwise_equals_the_reference(self, last, widths):
        rng = np.random.default_rng(len(widths))
        x, layers = _chain(rng, widths)
        scale = rng.standard_normal((5, widths[-1]))
        expected_out, expected_grads = _reference_chain(x, layers, last, scale)
        xt, pairs, parents = _chain_tensors(x, layers)
        out = mlp(xt, pairs, last)
        backward(total(out * scale), parents)
        assert out.data.tobytes() == expected_out.tobytes()
        for t, expected in zip(parents, expected_grads):
            assert t.grad.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("last", LASTS)
    def test_matches_finite_differences(self, last):
        def build(rng):
            x, layers = _chain(rng, (4, 6, 5, 3))
            xt, pairs, parents = _chain_tensors(x, layers)
            scale = rng.standard_normal((5, 3))
            return (lambda: total(mlp(xt, pairs, last) * scale)), parents

        assert grad_check(build, seed=8, fd_step=1e-5) < 1e-4

    @pytest.mark.parametrize("last", LASTS)
    def test_frozen_chain_differentiates_its_input_alone(self, last):
        x, layers = _chain(np.random.default_rng(9), (4, 6, 5, 3))
        xt, pairs, parents = _chain_tensors(x, layers)
        backward(total(mlp(xt, pairs, last)), parents)
        all_parents = xt.grad
        xt, pairs, parents = _chain_tensors(x, layers)
        backward(total(mlp(xt, pairs, last)), [xt])
        assert xt.grad.tobytes() == all_parents.tobytes()
        assert all(t.grad is None for t in parents[1:])

    def test_repeated_backward_gives_the_same_gradients(self):
        x, layers = _chain(np.random.default_rng(10), (4, 6, 5, 3))
        xt, pairs, parents = _chain_tensors(x, layers)
        out = mlp(xt, pairs, "sigmoid")
        loss = total(out * 3.0)
        backward(loss, parents)
        first = [t.grad for t in parents]
        backward(loss, parents)
        for t, grad in zip(parents, first):
            assert t.grad is not grad and t.grad.tobytes() == grad.tobytes()
        # a new output gradient on the same node is swept anew: doubling is exact
        backward(total(out * 6.0), parents)
        for t, grad in zip(parents, first):
            assert np.array_equal(t.grad, 2.0 * grad)

    def test_graph_is_freed_without_the_cycle_collector(self):
        # Tensor has no weakref slot, so the output's array stands for it: the
        # node's gradient closures hold that array, and nothing else does.
        x, layers = _chain(np.random.default_rng(11), (4, 6, 3))
        xt, pairs, parents = _chain_tensors(x, layers)
        gc.disable()
        try:
            out = mlp(xt, pairs, "tanh")
            backward(total(out), parents)
            alive = weakref.ref(out.data)
            del out
            assert alive() is None
        finally:
            gc.enable()

    def test_layer_named_in_shape_errors(self):
        w, b = Tensor(np.zeros((3, 4))), Tensor(np.zeros(4))
        with pytest.raises(ShapeMismatchError, match=r"layer 1: input \(2, 4\) vs weights \(3, 4\)"):
            mlp(np.zeros((2, 3)), [(w, b), (w, b)], None)
        with pytest.raises(ShapeMismatchError, match=r"layer 0: bias \(3,\) vs weights"):
            mlp(np.zeros((2, 3)), [(w, Tensor(np.zeros(3)))], None)


class TestBce:
    def test_perfect_prediction_is_near_zero(self):
        out = bce(Tensor([[1.0 - 1e-7]]), [[1.0]])
        assert out.data == pytest.approx(0.0, abs=1e-6)

    def test_coin_flip_value(self):
        assert bce(Tensor([[0.5]]), [[1.0]]).data == pytest.approx(math.log(2), abs=1e-12)

    def test_confident_mistake(self):
        assert bce(Tensor([[0.8]]), [[0.0]]).data == pytest.approx(-math.log(0.2), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            bce(Tensor([[0.5, 0.5]]), [[1.0]])

    @given(
        hnp.arrays(np.float64, (2, 3), elements=unit_open),
        hnp.arrays(np.float64, (2, 3), elements=st.floats(0, 1)),
    )
    def test_non_negative(self, p, t):
        assert bce(Tensor(p), t).data >= 0.0


class TestKlStandardNormal:
    def test_zero_when_posterior_equals_prior(self):
        assert kl_standard_normal(Tensor([[0.0]]), Tensor([[0.0]])).data == 0.0

    def test_closed_form_half(self):
        assert kl_standard_normal(Tensor([[1.0]]), Tensor([[0.0]])).data == pytest.approx(0.5)

    def test_batch_mean_dim_sum(self):
        mu = Tensor([[1.0, 0.0], [0.0, 1.0]])
        lv = Tensor(np.zeros((2, 2)))
        assert kl_standard_normal(mu, lv).data == pytest.approx(0.5)

    def test_monte_carlo_oracle(self):
        # direct estimate of E_q[log q(z) - log p(z)] over many draws
        mu, log_var = 0.3, -0.2
        sd = math.exp(log_var / 2)
        rng = np.random.default_rng(99)
        z = mu + sd * rng.standard_normal(200_000)
        contrib = (-0.5 * ((z - mu) / sd) ** 2 - math.log(sd)) - (-0.5 * z**2)
        estimate, se = contrib.mean(), contrib.std() / math.sqrt(z.size)
        closed = float(kl_standard_normal(Tensor([[mu]]), Tensor([[log_var]])).data)
        assert abs(closed - estimate) < 3 * se

    @given(
        hnp.arrays(np.float64, (2, 2), elements=st.floats(-3, 3)),
        hnp.arrays(np.float64, (2, 2), elements=st.floats(-3, 3)),
    )
    def test_non_negative(self, mu, lv):
        assert kl_standard_normal(Tensor(mu), Tensor(lv)).data >= -1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            kl_standard_normal(Tensor([[0.0]]), Tensor([[0.0, 0.0]]))


class TestBackward:
    def test_power_rule(self):
        w = Tensor([1.0, 2.0])
        backward(total(w * w), [w])
        np.testing.assert_array_equal(w.grad, [2.0, 4.0])

    def test_non_scalar_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            backward(Tensor([1.0, 2.0]), [])

    def test_only_wrt_tensors_get_grad(self):
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.ones((3, 1)))
        b = Tensor(np.zeros(1))
        hidden = ad.matmul(x, w)
        loss = total(ad.exp(hidden + b), mean=True)
        backward(loss, [w])
        assert w.grad is not None and w.grad.shape == (3, 1)
        for node in (x, b, hidden, loss):
            assert node.grad is None

    def test_repeated_calls_overwrite(self):
        w = Tensor([1.0, 2.0])
        loss = total(w * 3.0)
        backward(loss, [w])
        backward(loss, [w])
        np.testing.assert_array_equal(w.grad, [3.0, 3.0])
        backward(total(w), [w])
        np.testing.assert_array_equal(w.grad, [1.0, 1.0])

    def test_unreachable_tensor_gets_none(self):
        w = Tensor([1.0, 2.0], name="w")
        unused = Tensor([5.0], name="unused")
        unused.grad = np.ones(1)
        backward(total(w), [w, unused])
        assert unused.grad is None
        with pytest.raises(ValueError, match="unused has no gradient"):
            Adam([w, unused], lr=0.1).step()

    def test_adam_step_clears_consumed_gradients(self):
        w = Tensor([1.0, 2.0], name="w")
        optimizer = Adam([w], lr=0.1)
        backward(total(w * w), [w])
        optimizer.step()
        assert w.grad is None
        with pytest.raises(ValueError, match="w has no gradient"):
            optimizer.step()

    def test_every_reachable_tensor_gets_matching_grad(self):
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.ones((3, 1)))
        out = ad.exp(ad.matmul(x, w))
        loss = total(out, mean=True)
        backward(loss, [x, w, out, loss])
        for node in (x, w, out, loss):
            assert node.grad is not None and node.grad.shape == node.data.shape

    def test_two_layer_sigmoid_network_matches_finite_differences(self):
        def build(rng):
            w1 = Tensor(rng.standard_normal((4, 5)) * 0.5, name="w1")
            b1 = Tensor(rng.standard_normal(5) * 0.1, name="b1")
            w2 = Tensor(rng.standard_normal((5, 1)) * 0.5, name="w2")
            b2 = Tensor(rng.standard_normal(1) * 0.1, name="b2")
            x = rng.standard_normal((3, 4))
            t = rng.uniform(0.1, 0.9, (3, 1))

            def loss_fn():
                hidden = mlp(Tensor(x), [(w1, b1)], "sigmoid")
                return bce(mlp(hidden, [(w2, b2)], "sigmoid"), t)

            return loss_fn, [w1, b1, w2, b2]

        assert grad_check(build, seed=3, fd_step=1e-5) < 1e-4

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_linearity_of_differentiation(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        values = rng.standard_normal(4)

        def gradient_of(build_loss):
            w = Tensor(values.copy())
            backward(build_loss(w), [w])
            return w.grad

        g_sum = gradient_of(lambda w: total(w * a) + total(w * b))
        g_parts = gradient_of(lambda w: total(w * a)) + gradient_of(lambda w: total(w * b))
        np.testing.assert_allclose(g_sum, g_parts, atol=1e-12)


class TestLpPenalty:
    def test_l1_and_l2_values(self):
        v = Tensor([3.0, -4.0])
        assert lp_penalty(v, 1).data == pytest.approx(7.0)
        assert lp_penalty(v, 2).data == pytest.approx(5.0)

    def test_l1_subgradient_zero_at_origin(self):
        v = Tensor([0.0, 1.0, -2.0])
        backward(lp_penalty(v, 1), [v])
        np.testing.assert_array_equal(v.grad, [0.0, 1.0, -1.0])

    def test_l2_gradient_zero_at_origin(self):
        v = Tensor([0.0, 0.0])
        backward(lp_penalty(v, 2), [v])
        np.testing.assert_array_equal(v.grad, [0.0, 0.0])

    def test_invalid_order(self):
        with pytest.raises(ValueError, match="1 or 2"):
            lp_penalty(Tensor([1.0]), 3)


def _reference_adam(grad_fn, w0, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    # straight transcription of the bias-corrected update rule
    w, m, v = w0, 0.0, 0.0
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        w -= lr * (m / (1 - beta1**t)) / (math.sqrt(v / (1 - beta2**t)) + eps)
    return w


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = Tensor([0.0])
        adam_step([p], [np.zeros(1)], Adam([p], lr=0.001))
        np.testing.assert_array_equal(p.data, [0.0])

    def test_first_step_is_minus_lr(self):
        p = Tensor([0.0])
        adam_step([p], [np.ones(1)], Adam([p], lr=0.001))
        assert p.data[0] == pytest.approx(-0.001, abs=1e-6)

    def test_quadratic_descent_matches_reference(self):
        p = Tensor([0.0], name="w")
        opt = Adam([p], lr=0.1)
        for _ in range(100):
            backward(total((p + -3.0) * (p + -3.0)), opt.params)
            opt.step()
        expected = _reference_adam(lambda w: 2 * (w - 3.0), 0.0, 0.1, 100)
        assert p.data[0] == pytest.approx(expected, abs=1e-12)
        assert abs(p.data[0] - 3.0) < 0.5

    def test_step_count_increments(self):
        p = Tensor([1.0])
        opt = Adam([p], lr=0.01)
        for expected in (1, 2, 3):
            adam_step([p], [np.ones(1)], opt)
            assert opt.step_count == expected

    def test_non_finite_gradient_names_parameter(self):
        p = Tensor([1.0], name="enc0.weight")
        with pytest.raises(ValueError, match="enc0.weight"):
            adam_step([p], [np.array([np.nan])], Adam([p], lr=0.01))

    @pytest.mark.parametrize("lr", [0.0, -0.1])
    def test_non_positive_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="learning rate"):
            Adam([Tensor([1.0])], lr=lr)

    def test_missing_gradient_names_parameter(self):
        p = Tensor([1.0], name="dec1.bias")
        opt = Adam([p], lr=0.01)
        with pytest.raises(ValueError, match="dec1.bias"):
            opt.step()


class TestGradCheck:
    def test_linear_model_is_exact_to_rounding(self):
        def build(rng):
            w = Tensor(rng.standard_normal(6), name="w")
            x = rng.standard_normal(6)
            return (lambda: total(w * x)), [w]

        assert grad_check(build, seed=11) < 1e-8

    def test_corrupted_gradient_reported_as_one(self):
        def doubled_square_sum(x: Tensor) -> Tensor:
            out = np.asarray((x.data**2).sum())
            # deliberately wrong by a factor of two
            return Tensor(out, _parents=(x,), _backward=(lambda g: g * 4.0 * x.data,))

        def build(rng):
            w = Tensor(rng.uniform(0.5, 1.5, 4), name="w")
            return (lambda: doubled_square_sum(w)), [w]

        assert grad_check(build, seed=2) == pytest.approx(1.0, abs=1e-3)

    def test_fd_step_outside_range_rejected(self):
        with pytest.raises(ValueError, match="fd_step"):
            grad_check(lambda rng: ((lambda: Tensor(0.0)), []), seed=0, fd_step=1e-2)


def test_operations_deterministic():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((5, 4)))
        w = Tensor(rng.standard_normal((4, 3)))
        out = total(mlp(x, [(w, Tensor(np.zeros(3)))], "sigmoid"), mean=True)
        backward(out, [w])
        return out.data.copy(), w.grad.copy()

    first, second = run(), run()
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1], second[1])
