"""Gradient and graph-mechanics tests for the autodiff engine."""

import math
import warnings

import numpy as np
import pytest

from metacert import autodiff as ad
from metacert.autodiff import Tensor
from metacert.rng import Rng


def finite_diff_grad(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a flat array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = fn(x)
        flat[i] = keep - h
        down = fn(x)
        flat[i] = keep
        gf[i] = (up - down) / (2 * h)
    return g


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, rel: float = 1e-4):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    err = np.abs(analytic - numeric) / denom
    assert err.max() < rel, f"max relative gradient error {err.max():.3g}"


def check_op(build_loss, *shapes, seed=0):
    """FD-check the gradient of a scalar loss w.r.t. every input tensor."""
    rng = Rng(seed)
    datas = [rng.normal(s) for s in shapes]
    tensors = [Tensor(d.copy(), requires_grad=True) for d in datas]
    loss = build_loss(*tensors)
    loss.backward()
    for i, (t, d) in enumerate(zip(tensors, datas)):
        def f(x, i=i):
            args = [Tensor(dd) for dd in datas]
            args[i] = Tensor(x)
            return build_loss(*args).item()
        assert_grad_close(t.grad, finite_diff_grad(f, d.copy()))


class TestOpGradients:
    def test_matmul(self):
        check_op(lambda a, b: ad.mean(ad.matmul(a, b)), (3, 4), (4, 2))

    def test_add(self):
        check_op(lambda a, b: ad.mean(ad.add(a, b)), (3, 4), (3, 4))

    def test_add_bias_broadcast(self):
        # the bias row of a dense layer broadcasts over the batch; add does not
        x = Tensor(np.arange(15.).reshape(5, 3))
        b = Tensor(np.array([[0.5, -1.0, 2.0]]), requires_grad=True)
        out = ad.dense(x, Tensor(np.eye(3)), b, relu=False)
        assert np.array_equal(out.data, x.data + b.data)
        check_op(lambda b: ad.mean(ad.tanh(ad.dense(x, Tensor(np.eye(3)), b, relu=False))),
                 (1, 3))
        with pytest.raises(ValueError):
            ad.add(x, b)

    def test_dense_relu_and_linear(self):
        for relu in (True, False):
            check_op(lambda x, w, b, relu=relu: ad.mean(ad.tanh(ad.dense(x, w, b, relu))),
                     (5, 4), (4, 3), (1, 3), seed=7)

    def test_sub(self):
        check_op(lambda a, b: ad.mean(ad.tanh(ad.sub(a, b))), (2, 3), (2, 3))

    def test_mul_scalar(self):
        check_op(lambda a: ad.mean(ad.mul_scalar(a, -2.5)), (4, 2))

    def test_mul_elem(self):
        w = np.array([[0.5, -1.5, 2.0]])
        check_op(lambda a: ad.mean(ad.tanh(ad.mul_elem(a, np.tile(w, (4, 1))))), (4, 3))

    def test_mul_tensor(self):
        check_op(lambda a, b: ad.mean(ad.tanh(ad.mul(a, b))), (3, 4), (3, 4))

    def test_power_scalar(self):
        def build(a):
            sq = ad.add(ad.mul(a, a), ad.constant(np.full((3, 2), 0.1)))
            return ad.mean(ad.power_scalar(sq, -0.5))
        check_op(build, (3, 2))
        with pytest.raises(ValueError):
            ad.power_scalar(Tensor(np.array([[-1.0]])), 0.5)

    def test_mean_gradient_value(self):
        # d/dx_i mean(x^2) = x_i: at x = (1, 2) the gradient is (1, 2)
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        loss = ad.mean(ad.mul(x, x))
        loss.backward()
        assert np.allclose(loss.data, 2.5)
        assert np.allclose(x.grad, [[1.0, 2.0]])

    def test_concat_axis0_and_axis1(self):
        check_op(lambda a, b: ad.mean(ad.tanh(ad.concat([a, b], axis=0))), (2, 3), (4, 3))
        check_op(lambda a, b: ad.mean(ad.tanh(ad.concat([a, b], axis=1))), (2, 3), (2, 2))

    def test_slice_cols_overlapping_accumulates(self):
        # overlapping windows read the same entries twice; both gradients land
        check_op(lambda a: ad.mean(ad.tanh(ad.concat(
            [ad.slice_cols(a, 0, 3), ad.slice_cols(a, 1, 4)], axis=1))), (4, 4))

    def test_transpose_reshape_slice(self):
        check_op(lambda a: ad.mean(ad.tanh(ad.transpose(a))), (3, 5))
        check_op(lambda a: ad.mean(ad.tanh(ad.reshape(a, (2, 6)))), (3, 4))
        check_op(lambda a: ad.mean(ad.tanh(ad.slice_cols(a, 1, 4))), (3, 5))

    def test_activations(self):
        relu = lambda a: ad.dense(a, Tensor(np.eye(3)), Tensor(np.zeros((1, 3))), relu=True)
        for act in (ad.tanh, relu):
            check_op(lambda a, act=act: ad.mean(act(a)), (4, 3), seed=3)

    def test_softmax_both_axes(self):
        check_op(lambda a: ad.mean(ad.mul_elem(ad.softmax(a, axis=0), np.arange(12.).reshape(4, 3))), (4, 3))
        check_op(lambda a: ad.mean(ad.mul_elem(ad.softmax(a, axis=1), np.arange(12.).reshape(4, 3))), (4, 3))

    def test_bce_gradient(self):
        labels = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        check_op(lambda z: ad.binary_cross_entropy(z, labels), (5, 1))


class TestActivationValues:
    def test_tanh_at_zero(self):
        t = Tensor(np.zeros((1, 1)), requires_grad=True)
        out = ad.tanh(t)
        out.backward()
        assert out.item() == 0.0 and t.grad[0, 0] == 1.0

    def test_softmax_uniform(self):
        out = ad.softmax(Tensor(np.zeros((3, 1))), axis=0)
        assert np.allclose(out.data, 1 / 3)

    def test_relu_backward_negative_input(self):
        t = Tensor(np.array([[-1.0]]), requires_grad=True)
        w = Tensor(np.array([[2.0]]), requires_grad=True)
        b = Tensor(np.array([[0.5]]), requires_grad=True)
        out = ad.dense(t, w, b, relu=True)
        ad.mean(out).backward()
        assert out.item() == 0.0
        assert t.grad[0, 0] == 0.0 and w.grad[0, 0] == 0.0 and b.grad[0, 0] == 0.0

    def test_bce_at_zero_logits(self):
        loss = ad.binary_cross_entropy(Tensor(np.zeros((4, 1))), np.array([1., -1., 1., -1.]))
        assert loss.item() == pytest.approx(math.log(2), abs=1e-12)


class TestStraightThrough:
    def test_sign_values_and_tie(self):
        out = ad.sign_st(Tensor(np.array([[-0.3, 0.7, 0.0]])))
        assert np.array_equal(out.data, [[-1.0, 1.0, 1.0]])

    def test_sign_backward_is_pure_identity(self):
        # the upstream gradient passes through unchanged, with no |x| <= 1 window
        t = Tensor(np.array([[-5.0, 0.2, 7.0]]), requires_grad=True)
        out = ad.sign_st(t)
        out._backward(np.array([[2.0, -3.0, 4.0]]))
        assert np.array_equal(t.grad, [[2.0, -3.0, 4.0]])

    def test_sign_soft_twin_matches_fd(self):
        check_op(lambda a: ad.mean(ad.tanh(ad.sign_st(a, soft=True))), (3, 2))

    def test_hard_select_forward_and_tie(self):
        values = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        top = ad.hard_select_st(Tensor(np.array([[0.1], [0.9]])), values)
        assert np.array_equal(top.data, [[3.0, 4.0]])
        tie = ad.hard_select_st(Tensor(np.array([[0.5], [0.5]])), values)
        assert np.array_equal(tie.data, [[1.0, 2.0]])

    def test_hard_select_backward_matches_soft_mixture(self):
        # analytic gradient of the hard op equals FD of the declared mixture
        rng = Rng(11)
        p_raw = rng.normal((3, 1))
        values = rng.normal((3, 2))

        def soft_loss(logits):
            probs = ad.softmax(Tensor(logits), axis=0)
            sel = ad.hard_select_st(probs, Tensor(values), soft=True)
            return ad.mean(ad.tanh(sel)).item()

        logits_t = Tensor(p_raw.copy(), requires_grad=True)
        probs_t = ad.softmax(logits_t, axis=0)
        sel = ad.hard_select_st(probs_t, Tensor(values), soft=True)
        ad.mean(ad.tanh(sel)).backward()
        assert_grad_close(logits_t.grad, finite_diff_grad(soft_loss, p_raw.copy()))

    def test_attention_select_soft_twin_matches_fd(self):
        # gradients w.r.t. the embedding, the keys and both heads' queries
        values = Rng(12).normal((5, 3))

        def build(z, keys, w0, b0, w1, b1):
            _, rows = ad.attention_select(z, keys, [(w0, b0), (w1, b1)], values, 0.8,
                                          soft=True)
            return ad.mean(ad.tanh(rows))

        check_op(build, (1, 4), (5, 2), (4, 2), (1, 2), (4, 2), (1, 2), seed=13)

    def test_attention_select_forward_and_nan(self):
        # both heads pick row 1, so it comes out once; NaN keys are non-finite
        z = Tensor(np.array([[1.0, 0.0]]))
        keys = Tensor(np.array([[0.0, 0.0], [9.0, 0.0], [-9.0, 0.0]]))
        heads = [(Tensor(np.eye(2)), Tensor(np.zeros((1, 2)))),
                 (Tensor(2.0 * np.eye(2)), Tensor(np.zeros((1, 2))))]
        values = np.arange(6.0).reshape(3, 2)
        positions, rows = ad.attention_select(z, keys, heads, values, 1.0)
        assert positions == (1,) and np.array_equal(rows.data, [[2.0, 3.0]])
        keys.data[0, 0] = np.nan
        with pytest.raises(ad.NonFiniteError):
            ad.attention_select(z, keys, heads, values, 1.0)

    def test_hard_select_rejects_bad_probs(self):
        values = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ad.hard_select_st(Tensor(np.array([[np.nan], [0.5]])), values)
        with pytest.raises(ValueError):
            ad.hard_select_st(Tensor(np.array([[0.7], [0.7]])), values)


# A downstream MLP 2 -> 5 -> 4 -> 1 packed in one row: (fan_in, fan_out,
# w_start, b_start, stop) per layer, as ``hypernet.gamma_layout`` writes it.
LAYOUT = ((2, 5, 0, 10, 15), (5, 4, 15, 35, 39), (4, 1, 39, 43, 44))


def pool_chain(rows, labels):
    """The structural chain ``set_pool`` replaced."""
    pooled = ad.matmul(ad.transpose(rows), labels)
    return ad.mul_scalar(ad.transpose(pooled), 1.0 / rows.data.shape[0])


def standardize_chain(rows, mean, inv_scale):
    """The structural chain ``standardize`` replaced, statistics broadcast by
    ``ones @ .``."""
    ones = ad.constant(np.ones((rows.data.shape[0], 1)))
    feats = ad.slice_cols(rows, 0, mean.data.shape[1])
    return ad.mul(ad.sub(feats, ad.matmul(ones, mean)), ad.matmul(ones, inv_scale))


def fold_chain(raw, mean, inv_scale, fan_out):
    """The structural chain ``fold`` replaced."""
    fan_in = mean.data.shape[1]
    b_start, stop = fan_in * fan_out, fan_in * fan_out + fan_out
    w_tilde = ad.reshape(ad.slice_cols(raw, 0, b_start), (fan_in, fan_out))
    w1 = ad.mul(w_tilde, ad.matmul(ad.transpose(inv_scale), ad.constant(np.ones((1, fan_out)))))
    b1 = ad.sub(ad.slice_cols(raw, b_start, stop), ad.matmul(ad.mul(mean, inv_scale), w_tilde))
    rest = ad.slice_cols(raw, stop, raw.data.shape[1])
    return ad.concat([ad.reshape(w1, (1, b_start)), b1, rest], axis=1)


def packed_mlp_chain(gamma, layout, x):
    """The structural chain ``packed_mlp`` replaced: one ``dense`` per layer."""
    for layer, (fan_in, fan_out, w_start, b_start, stop) in enumerate(layout):
        w = ad.reshape(ad.slice_cols(gamma, w_start, b_start), (fan_in, fan_out))
        x = ad.dense(x, w, ad.slice_cols(gamma, b_start, stop), relu=layer < len(layout) - 1)
    return x


class TestFusedStages:
    """The fused model-stage nodes.  Gradients match finite differences with
    every parent needing one, as the soft twin's statistics do; forward and
    gradients equal the replaced structural chain bit for bit, where the
    statistics are constants; and each node on a constant stack equals it on
    each set alone, bit for bit."""

    def test_set_pool_gradients(self):
        check_op(lambda rows, labels: ad.mean(ad.tanh(ad.set_pool(rows, labels))),
                 (5, 3), (5, 1), seed=20)

    def test_standardize_gradients(self):
        check_op(lambda rows, mean, inv: ad.mean(ad.tanh(ad.standardize(rows, mean, inv))),
                 (4, 3), (1, 2), (1, 2), seed=21)

    def test_fold_gradients(self):
        # a 2 x 3 first layer (weights 0:6, biases 6:9) and four more entries
        check_op(lambda raw, mean, inv: ad.mean(ad.tanh(ad.fold(raw, mean, inv, 3))),
                 (1, 13), (1, 2), (1, 2), seed=22)

    def test_packed_mlp_gradients(self):
        check_op(lambda gamma, x: ad.mean(ad.tanh(ad.packed_mlp(gamma, LAYOUT, x))),
                 (1, 44), (6, 2), seed=23)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nodes_replay_their_chains(self, seed):
        rng = Rng(40 + seed)
        rows = rng.normal((60, 16))
        labels = np.where(rng.normal((60, 1)) >= 0.0, 1.0, -1.0)
        mean, inv = rng.normal((1, 2)), np.exp(rng.normal((1, 2)))
        cases = (
            (ad.set_pool, pool_chain, (rows, labels), (True, False)),
            (ad.set_pool, pool_chain, (rows, labels), (True, True)),
            (ad.standardize, standardize_chain, (rows[:3, :3], mean, inv), (True, False, False)),
            (lambda *a: ad.fold(*a, 5), lambda *a: fold_chain(*a, 5),
             (rng.normal((1, 21)), mean, inv), (True, False, False)),
            (lambda *a: ad.packed_mlp(a[0], LAYOUT, a[1]), lambda *a: packed_mlp_chain(
                a[0], LAYOUT, a[1]), (rng.normal((1, 44)), rng.normal((30, 2))), (True, False)),
        )
        for fused, chain, datas, needs in cases:
            results = []
            for build in (fused, chain):
                args = [Tensor(d.copy(), requires_grad=r) for d, r in zip(datas, needs)]
                out = build(*args)
                ad.mean(ad.tanh(out)).backward()
                results.append([out.data.tobytes()] + [a.grad.tobytes() for a in args
                                                       if a.requires_grad])
            assert results[0] == results[1], fused

    @pytest.mark.parametrize("n_sets", [1, 3])
    def test_node_on_stack_equals_each_set_alone(self, n_sets):
        rng = Rng(50 + n_sets)
        rows = rng.normal((n_sets, 40, 16))
        labels = np.where(rng.normal((n_sets, 40, 1)) >= 0.0, 1.0, -1.0)
        mean, inv = rng.normal((n_sets, 1, 2)), np.exp(rng.normal((n_sets, 1, 2)))
        raw, gammas, x = rng.normal((n_sets, 4, 21)), rng.normal((n_sets, 44)), rng.normal((30, 2))
        # the graph nodes on constant stacks of the sets
        w, b = rng.normal((16, 7)), rng.normal((1, 7))
        heads = [(Tensor(rng.normal((16, 3))), Tensor(rng.normal((1, 3)))) for _ in range(4)]
        dense = {relu: ad.dense(Tensor(rows), Tensor(w), Tensor(b), relu) for relu in (0, 1)}
        node_pooled = ad.set_pool(Tensor(rows), Tensor(labels))
        node_standardized = ad.standardize(Tensor(rows), Tensor(mean), Tensor(inv))
        node_folded = ad.fold(Tensor(raw[:, :, None]), Tensor(mean[:, None]),
                              Tensor(inv[:, None]), 5)
        node_outputs = ad.packed_mlp(Tensor(gammas), LAYOUT, Tensor(x))
        sliced = ad.slice_cols(Tensor(rows), 3, 9)
        keys = rows[..., :3] * 4.0  # sharp softmaxes, so heads collide
        pooled = node_pooled.data
        positions, stacked_rows = ad.attention_select(Tensor(pooled), Tensor(keys), heads, rows,
                                                      0.5)
        assert len(positions) == n_sets
        for t in range(n_sets):
            stats = Tensor(mean[t]), Tensor(inv[t])
            assert (ad.set_pool(Tensor(rows[t]), Tensor(labels[t])).data.tobytes()
                    == node_pooled.data[t].tobytes())
            assert (ad.standardize(Tensor(rows[t]), *stats).data.tobytes()
                    == node_standardized.data[t].tobytes())
            for i in range(4):
                assert (ad.fold(Tensor(raw[t, i:i + 1]), *stats, 5).data.tobytes()
                        == node_folded.data[t, i].tobytes())
            assert (ad.packed_mlp(Tensor(gammas[t:t + 1]), LAYOUT, Tensor(x)).data.tobytes()
                    == node_outputs.data[:, t:t + 1].tobytes())
            for relu, node in dense.items():
                assert (ad.dense(Tensor(rows[t]), Tensor(w), Tensor(b), relu).data.tobytes()
                        == node.data[t].tobytes())
            assert ad.slice_cols(Tensor(rows[t]), 3, 9).data.tobytes() == sliced.data[t].tobytes()
            alone, alone_rows = ad.attention_select(Tensor(pooled[t]), Tensor(keys[t]), heads,
                                                    rows[t], 0.5)
            assert positions[t] == alone
            assert (stacked_rows is None
                    or stacked_rows.data[t].tobytes() == alone_rows.data.tobytes())
        # the sets keep one stack of rows unless collisions leave them uneven
        assert (stacked_rows is None) == (len({len(pos) for pos in positions}) > 1)


def stacked_case(build, specs, n_sets, seed):
    """Run ``build`` on a stack of ``n_sets`` sets and on each set alone.

    ``specs`` holds one ``(shape, stacked)`` per input: a stacked input is
    one ``shape`` array per set, (n_sets, *shape) on the stack, and a shared
    one, such as a parameter, is the same array for the stack and for every
    set.  Every input needs a gradient.  The loss is sum(out * probe), the
    probe drawn once for the stack, so the stack's loss is the sum of the
    sets' losses.  Returns (the stack's (output, gradients), and for each set
    its (output, gradients)).
    """
    rng = Rng(seed)
    datas = [rng.normal((n_sets, *shape) if stacked else shape) for shape, stacked in specs]
    probe = None

    def run(args):
        nonlocal probe
        tensors = [Tensor(a.copy(), requires_grad=True) for a in args]
        out = build(*tensors)
        if probe is None:
            probe = rng.normal(out.data.shape)
        weights = probe if out.data.shape == probe.shape else probe[len(per_set)]
        ad.mean(ad.mul_elem(out, weights * out.data.size)).backward()
        return out.data, [t.grad for t in tensors]

    per_set = []
    whole = run(datas)
    for t in range(n_sets):
        per_set.append(run([d[t] if stacked else d for d, (_, stacked) in zip(datas, specs)]))
    return whole, per_set


# (name, build, one (shape, stacked) per input)
STACKED_NODES = (
    ("dense_relu", lambda x, w, b: ad.dense(x, w, b, relu=True),
     (((6, 4), True), ((4, 3), False), ((1, 3), False))),
    ("dense_linear", lambda x, w, b: ad.dense(x, w, b, relu=False),
     (((6, 4), True), ((4, 3), False), ((1, 3), False))),
    ("set_pool", ad.set_pool, (((6, 4), True), ((6, 1), True))),
    ("standardize", ad.standardize, (((5, 4), True), ((1, 2), False), ((1, 2), False))),
    ("fold", lambda raw, mean, inv: ad.fold(raw, mean, inv, 3),
     (((1, 13), True), ((1, 2), False), ((1, 2), False))),
    # packed_mlp's stack is its gamma rows over one shared x; its (m, n)
    # output is transposed so that the sets lead
    ("packed_mlp", lambda gamma, x: ad.transpose(ad.packed_mlp(
        ad.reshape(gamma, (-1, 44)), LAYOUT, x)), (((44,), True), ((6, 2), False))),
    ("concat", lambda emb, message: ad.concat([emb, message], axis=-1),
     (((1, 3), False), ((1, 2), True))),
    ("slice_cols", lambda a: ad.slice_cols(a, 1, 3), (((4, 5), True),)),
    ("tanh", ad.tanh, (((4, 3), True),)),
    ("sign_st", ad.sign_st, (((4, 3), True),)),
    ("add", ad.add, (((4, 3), True), ((4, 3), True))),
)


class TestStackedGradients:
    """Every node of the training graph takes leading stack axes, forward
    and backward.  A stack of one set gives the op on that set alone, bit
    for bit, output and every gradient; on a stack of three, an input
    shared by the sets (a parameter) gets the sum of the three sets'
    gradients and a stacked input gets each set's own."""

    @staticmethod
    def check(specs, whole, per_set):
        (out, grads), n_sets = whole, len(per_set)
        if n_sets == 1:
            (set_out, set_grads), = per_set
            assert out.tobytes() == set_out.tobytes()
            for grad, set_grad in zip(grads, set_grads):
                assert grad.tobytes() == set_grad.tobytes()
            return
        for i, (grad, (_, stacked)) in enumerate(zip(grads, specs)):
            expected = ([set_grads[i] for _, set_grads in per_set] if stacked
                        else sum(set_grads[i] for _, set_grads in per_set))
            np.testing.assert_allclose(grad, expected, rtol=1e-12)

    @pytest.mark.parametrize("n_sets", [1, 3])
    @pytest.mark.parametrize("name, build, specs", STACKED_NODES, ids=[c[0] for c in STACKED_NODES])
    def test_stack_equals_its_sets(self, name, build, specs, n_sets):
        self.check(specs, *stacked_case(build, specs, n_sets, seed=60 + len(name)))

    @pytest.mark.parametrize("n_sets", [1, 3])
    def test_attention_select_with_collided_heads(self, n_sets):
        # heads 0 and 1 are the same layer, so every set keeps two rows of three
        values = Rng(70).normal((n_sets, 6, 3))
        specs = (((1, 4), True), ((6, 2), True), ((4, 2), False), ((1, 2), False),
                 ((4, 2), False), ((1, 2), False))
        picked = []

        def build(z, keys, w0, b0, w2, b2):
            sets_values = values if keys.data.ndim == 3 else values[len(picked) - 1]
            positions, rows = ad.attention_select(z, keys, [(w0, b0), (w0, b0), (w2, b2)],
                                                  sets_values, 0.7)
            picked.append(positions)
            return rows

        whole, per_set = stacked_case(build, specs, n_sets, seed=72)
        assert list(picked[0]) == picked[1:] and all(len(pos) == 2 for pos in picked[1:])
        self.check(specs, whole, per_set)

    @pytest.mark.parametrize("n_sets", [1, 3])
    def test_bce_of_a_stack_is_the_mean_over_its_sets(self, n_sets):
        rng = Rng(80 + n_sets)
        logits = rng.normal((n_sets, 7, 1))
        labels = np.where(rng.normal((n_sets, 7)) >= 0.0, 1.0, -1.0)
        stack = Tensor(logits.copy(), requires_grad=True)
        loss = ad.binary_cross_entropy(stack, labels)
        loss.backward()
        alone = []
        for t in range(n_sets):
            one = Tensor(logits[t].copy(), requires_grad=True)
            alone.append((ad.binary_cross_entropy(one, labels[t]), one))
            alone[-1][0].backward()
        if n_sets == 1:
            assert loss.data.tobytes() == alone[0][0].data.tobytes()
            assert stack.grad.tobytes() == alone[0][1].grad.tobytes()
        else:
            np.testing.assert_allclose(loss.item(), np.mean([l.item() for l, _ in alone]),
                                       rtol=1e-12)
            np.testing.assert_allclose(stack.grad, [one.grad / n_sets for _, one in alone],
                                       rtol=1e-12)

    def test_uneven_collisions_give_positions_only(self):
        # set 0's two heads pick rows 0 and 1; set 1's queries are zero, so
        # both heads tie and pick row 0
        keys = np.array([[[9.0], [0.0]], [[9.0], [-9.0]]])
        heads = [(Tensor(np.ones((1, 1)), requires_grad=True), Tensor(np.zeros((1, 1)))),
                 (Tensor(np.array([[-1.0]])), Tensor(np.zeros((1, 1))))]
        z = Tensor(np.array([[[1.0]], [[0.0]]]))
        positions, rows = ad.attention_select(z, Tensor(keys), heads, np.ones((2, 2, 1)), 1.0)
        assert positions == ((0, 1), (0,)) and rows is None


class TestGraphMechanics:
    def test_fanout_accumulates_both_paths(self):
        x = Tensor(np.array([[1.5, -0.5]]), requires_grad=True)
        y = ad.add(ad.tanh(x), ad.mul_scalar(x, 2.0))
        ad.mean(y).backward()

        def f(v):
            t = Tensor(v)
            return ad.mean(ad.add(ad.tanh(t), ad.mul_scalar(t, 2.0))).item()

        assert_grad_close(x.grad, finite_diff_grad(f, x.data.copy()))

    def test_each_backward_runs_exactly_once(self):
        calls = []
        x = Tensor(np.ones((1, 1)), requires_grad=True)
        mid = ad.mul_scalar(x, 3.0)
        orig = mid._backward
        mid._backward = lambda g: (calls.append(1), orig(g))[1]
        out = ad.add(mid, mid)  # mid feeds two slots of the same op
        ad.mean(out).backward()
        assert len(calls) == 1
        assert x.grad[0, 0] == 6.0

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ad.tanh(t).backward()

    def test_no_op_mutates_inputs(self):
        rng = Rng(5)
        a_data, b_data = rng.normal((3, 3)), rng.normal((3, 3))
        a, b = Tensor(a_data.copy()), Tensor(b_data.copy())
        bias = Tensor(np.ones((1, 3)))
        for out in (ad.matmul(a, b), ad.add(a, b), ad.sub(a, b), ad.tanh(a),
                    ad.dense(a, b, bias, relu=True), ad.dense(a, b, bias, relu=False),
                    ad.softmax(a, 0), ad.sign_st(a), ad.concat([a, b], 0),
                    ad.slice_cols(a, 0, 2), ad.mean(a), ad.transpose(a),
                    ad.mul_scalar(a, 2.0)):
            out.data *= 1.0  # touch the output; inputs must be unaffected
        assert np.array_equal(a.data, a_data) and np.array_equal(b.data, b_data)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ValueError):
            ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
        with pytest.raises(ValueError):
            ad.dense(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.ones((1, 3))),
                     relu=True)


class TestMetrics:
    def test_zero_one_perfect_predictions(self):
        assert ad.zero_one_loss(np.array([5.0, -3.0]), np.array([1.0, -1.0])) == 0.0

    def test_zero_one_sign_zero_counts_positive(self):
        assert ad.zero_one_loss(np.array([0.0]), np.array([1.0])) == 0.0
        assert ad.zero_one_loss(np.array([0.0]), np.array([-1.0])) == 1.0
        # the same rule in every metric: -0.0 counts as +1, a NaN logit as
        # -1, and a label other than -1 and +1 disagrees with every logit
        z = np.array([0.0, -0.0, np.nan, 2.0, -2.0, 3.0])
        y = np.array([1.0, 1.0, -1.0, 0.0, np.nan, 1.0])
        assert ad.zero_one_errors(z, y) == 2
        assert ad.row_losses(z[None], y, "zero_one")[0] == 2 / 6
        assert np.array_equal(ad.sign_st(Tensor(z)).data, [1.0, 1.0, -1.0, 1.0, -1.0, 1.0])

    def test_linear_loss_confident_predictions(self):
        val = ad.linear_loss(np.array([50.0, -50.0]), np.array([1.0, -1.0]))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_linear_loss_range(self):
        rng = Rng(3)
        z = rng.normal(20) * 4
        y = np.where(rng.normal(20) > 0, 1.0, -1.0)
        assert 0.0 <= ad.linear_loss(z, y) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ad.zero_one_loss(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            ad.linear_loss(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            ad.row_losses(np.ones((2, 3)), np.ones(4), "zero_one")

    def test_row_losses_equal_the_scalar_metrics_per_row(self):
        z = Rng(3).normal((6, 25))
        z[0, :5] = 0.0  # sign(0) counts as +1 in every row too
        y = np.where(Rng(4).normal(25) > 0, 1.0, -1.0)
        for kind, metric in (("zero_one", ad.zero_one_loss), ("linear", ad.linear_loss)):
            rows = ad.row_losses(z, y, kind)
            assert rows.shape == (6,)
            assert all(rows[i] == metric(z[i], y) for i in range(6)), kind
        with pytest.raises(ValueError):
            ad.row_losses(z, y, "hinge")

    def test_sigmoid_equals_the_masked_form_bit_for_bit(self):
        def masked(x):  # the former form: one exp per element, chosen by mask
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 5e-324]
        x = np.concatenate([special, Rng(8).normal(2000) * 40.0, Rng(9).normal(500) * 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ad._sigmoid(x)
        assert np.array_equal(got.view(np.uint64), masked(x).view(np.uint64))


class TestRoundTrips:
    def test_concat_then_slice_round_trip(self):
        rng = Rng(9)
        a, b = Tensor(rng.normal((3, 2))), Tensor(rng.normal((3, 3)))
        both = ad.concat([a, b], axis=1)
        back = ad.slice_cols(both, 0, 2)
        assert np.array_equal(back.data, a.data)

    def test_matmul_identity(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        out = ad.matmul(Tensor(np.eye(2)), x)
        assert np.array_equal(out.data, x.data)
