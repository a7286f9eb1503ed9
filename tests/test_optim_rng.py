"""Adam, Kaiming initialization, and random-stream tests."""

import math

import numpy as np
import pytest

from metacert import autodiff as ad
from metacert.autodiff import Tensor
from metacert.hypernet import (HypernetConfig, downstream_forward, hypernet_forward,
                               init_hypernet_params)
from metacert.optim import Adam, AdamState, adam_step, kaiming_uniform_init
from metacert.rng import Rng
from metacert.tasks import MoonsEnvironmentSpec, gen_moons_task


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        value = np.array([1.0, -2.0, 3.0])
        state = AdamState(np.zeros(3), np.zeros(3))
        new = adam_step(value, np.zeros(3), state, lr=0.1)
        assert np.array_equal(new, value)

    def test_first_step_is_minus_lr(self):
        # bias-corrected m_hat / sqrt(v_hat) = 1 on the first step with g = 1
        state = AdamState(np.zeros(1), np.zeros(1))
        new = adam_step(np.array([0.0]), np.array([1.0]), state, lr=0.1)
        assert new[0] == pytest.approx(-0.1, rel=1e-7)

    def test_quadratic_decreases_monotonically(self):
        p = Tensor(np.array([[2.0]]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.05)
        values = []
        for _ in range(50):
            loss = ad.mean(ad.mul_elem(p, p.data))  # value = p^2 (grad handled below)
            p.grad = 2 * p.data
            values.append(float(p.data[0, 0] ** 2))
            opt.step()
            opt.zero_grad()
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_lr_zero_never_moves(self):
        p = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.0)
        for _ in range(5):
            p.grad = np.ones_like(p.data)
            opt.step()
        assert np.array_equal(p.data, [[1.0, 2.0]])

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            p = Tensor(np.array([[1.0]]), requires_grad=True)
            opt = Adam({"p": p}, lr=0.01)
            for step in range(10):
                p.grad = np.array([[math.sin(step)]])
                opt.step()
            runs.append(p.data.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_colliding_head_is_skipped(self):
        # Two heads with equal queries select the same row; the duplicate's
        # row is dropped, so its query gets no gradient and Adam leaves its
        # values and its step count alone (so the step counts are per
        # tensor, and a flat update must skip that tensor's segment).
        cfg = HypernetConfig("SCH_MINUS", c=2, b=0, mlp1=(12,), mlp2=(10,), mlp3=(5,),
                             deepset_dim=6, attention_dim=8)
        params = init_hypernet_params(cfg, Rng(1))
        for kind in ("w0", "b0"):
            params[f"compressor.query1.{kind}"].data = \
                params[f"compressor.query0.{kind}"].data.copy()
        before = {name: t.data.copy() for name, t in params.items()}
        task = gen_moons_task(MoonsEnvironmentSpec(examples_per_task=30, master_seed=5), 0)
        opt = Adam(params, lr=1e-2)
        gamma, art = hypernet_forward(params, cfg, task.features[:20], task.labels[:20])
        assert art.c_effective == 1
        logits = downstream_forward(gamma, cfg.mlp3_shapes, ad.constant(task.features[20:]))
        ad.binary_cross_entropy(logits, task.labels[20:]).backward()
        opt.step()
        for kind in ("w0", "b0"):
            name = f"compressor.query1.{kind}"
            assert params[name].grad is None
            assert np.array_equal(params[name].data, before[name])
            assert opt.state[name].t == 0
            twin = f"compressor.query0.{kind}"
            assert params[twin].grad is not None and opt.state[twin].t == 1


    def test_flat_step_equals_per_tensor_reference(self):
        # the flat update against one adam_step call per tensor that got a
        # gradient, bit for bit, with random skips; "never" gets no gradient
        # at all, so its bias corrections 1 - beta^0 = 0 must never be formed
        rng = Rng(21)
        shapes = {"a": (3, 4), "b": (1, 4), "never": (2, 2), "c": (5,), "d": (4, 1)}
        params = {n: Tensor(rng.normal(s), requires_grad=True) for n, s in shapes.items()}
        ref_values = {n: p.data.copy() for n, p in params.items()}
        ref_states = {n: AdamState(np.zeros(s), np.zeros(s)) for n, s in shapes.items()}
        opt = Adam(params, lr=3e-3)
        for step in range(60):
            if step == 30:  # a rebound p.data is what the next step updates
                params["b"].data = ref_values["b"] = rng.normal(shapes["b"])
            opt.zero_grad()
            for name, p in params.items():
                if name != "never" and rng.uniform(0.0, 1.0) < 0.7:
                    p.grad = rng.normal(shapes[name]) * 10.0 ** rng.uniform(-3.0, 3.0)
                    ref_values[name] = adam_step(ref_values[name], p.grad,
                                                 ref_states[name], lr=3e-3)
            opt.step()
            for name, p in params.items():
                state, ref = opt.state[name], ref_states[name]
                assert np.array_equal(p.data, ref_values[name]), (step, name)
                assert np.array_equal(state.m, ref.m) and np.array_equal(state.v, ref.v)
                assert state.t == ref.t, (step, name)
        assert opt.state["never"].t == 0 and opt.state["a"].t > 30

    def test_training_step_leaves_constants_without_grad(self):
        # backward computes and stores gradients only for tensors that need
        # one; the inputs, their standardized copies and the noise are constants
        cfg = HypernetConfig("PBSCH", c=2, b=4, mlp1=(12,), mlp2=(10,), mlp3=(5,),
                             deepset_dim=6, attention_dim=8)
        params = init_hypernet_params(cfg, Rng(2))
        opt = Adam(params, lr=1e-3)
        task = gen_moons_task(MoonsEnvironmentSpec(examples_per_task=30, master_seed=5), 0)
        gamma, art = hypernet_forward(params, cfg, task.features[:20], task.labels[:20],
                                      eps=Rng(2).normal(cfg.b))
        assert art.c_effective == 2
        logits = downstream_forward(gamma, cfg.mlp3_shapes, ad.constant(task.features[20:]))
        loss = ad.binary_cross_entropy(logits, task.labels[20:])
        loss.backward()
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        constants = [t for t in nodes.values() if not t.requires_grad]
        assert len(constants) >= 5
        assert all(t.grad is None and not t._parents for t in constants)
        assert all(t.grad is not None for t in params.values())
        opt.step()
        assert all(opt.state[name].t == 1 for name in params)


class TestKaimingUniform:
    def test_support(self):
        t = kaiming_uniform_init((200, 50), fan_in=200, rng=Rng(0))
        bound = math.sqrt(6.0 / 200)
        assert np.all(np.abs(t.data) <= bound)
        assert t.requires_grad

    def test_mean_within_3_sigma(self):
        n = 100_000
        fan_in = 64
        t = kaiming_uniform_init((n,), fan_in=fan_in, rng=Rng(1))
        bound = math.sqrt(6.0 / fan_in)
        sigma_mean = bound / math.sqrt(3.0) / math.sqrt(n)
        assert abs(t.data.mean()) < 3 * sigma_mean

    def test_same_seed_identical(self):
        a = kaiming_uniform_init((4, 4), 4, Rng(7, (1, 2)))
        b = kaiming_uniform_init((4, 4), 4, Rng(7, (1, 2)))
        assert np.array_equal(a.data, b.data)

    def test_bad_fan_in(self):
        with pytest.raises(ValueError):
            kaiming_uniform_init((2, 2), 0, Rng(0))


class TestRng:
    def test_same_seed_same_stream(self):
        assert np.array_equal(Rng(42).normal(10), Rng(42).normal(10))

    def test_split_paths_are_independent_and_reproducible(self):
        root = Rng(42)
        a = root.split(1, 5).normal(8)
        b = root.split(1, 6).normal(8)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, Rng(42).split(1).split(5).normal(8))

    def test_split_does_not_consume_parent_state(self):
        r1, r2 = Rng(3), Rng(3)
        r1.split(0)
        assert np.array_equal(r1.normal(4), r2.normal(4))

    def test_one_matrix_draw_replays_successive_vector_draws(self):
        # mc_expected_loss draws all its messages at once and relies on this
        rng = Rng(9, (2, 1))
        rows = [rng.normal(4) for _ in range(7)]
        assert np.array_equal(Rng(9, (2, 1)).normal((7, 4)), np.array(rows))

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            Rng(1).split(-1)

    def test_negative_seed_rejected_when_built(self):
        # it used to fail only at the first draw, in numpy, naming no seed
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            Rng(-1)

    def test_lazy_generator_draws_as_an_eagerly_built_one(self):
        for key in ((), (2,), (1, 5, 0)):
            eager = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(11, spawn_key=key)))
            lazy = Rng(11, key)
            assert np.array_equal(lazy.normal((3, 4)), eager.standard_normal((3, 4)))
            assert np.array_equal(lazy.uniform(-1.0, 2.0, 5), eager.uniform(-1.0, 2.0, 5))
            assert np.array_equal(lazy.permutation(9), eager.permutation(9))

    def test_split_only_stream_builds_no_generator(self, monkeypatch):
        built = []
        pcg64 = np.random.PCG64

        def counting(seed):
            built.append(seed)
            return pcg64(seed)

        monkeypatch.setattr(np.random, "PCG64", counting)
        parent = Rng(3).split(2)
        children = [parent.split(task_id) for task_id in range(4)]
        grandchild = children[0].split(1)
        assert built == []
        grandchild.normal(2)
        grandchild.normal(2)
        assert len(built) == 1
        with pytest.raises(ValueError):  # the key check does not wait for a draw
            parent.split(-1)
