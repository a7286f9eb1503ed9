"""Hypernetwork component and architecture tests."""

import base64
import json
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from metacert import autodiff as ad
from metacert import hypernet
from metacert.autodiff import Tensor
from metacert.hypernet import (CompressionArtifacts, HypernetConfig,
                               canonical_order, decode_gamma, deepset_embed, downstream_forward,
                               encode, downstream_param_count,
                               downstream_shapes,
                               hypernet_forward, init_hypernet_params,
                               load_checkpoint, mlp_forward, msg_compress,
                               pb_encode, reconstruct, sample_compress,
                               save_checkpoint, set_statistics)
from metacert.rng import Rng
from metacert.tasks import MoonsEnvironmentSpec, gen_moons_tasks

import reference_ops as ref

SMALL = dict(mlp1=(12,), mlp2=(10,), mlp3=(5,), deepset_dim=6, attention_dim=8)


def small_config(arch="SCH_PLUS", c=2, b=3, **kw):
    return HypernetConfig(arch, c=c, b=b, **{**SMALL, **kw})


def small_task(m=30, seed=5):
    spec = MoonsEnvironmentSpec(n_train_tasks=1, n_test_tasks=1,
                                examples_per_task=m, master_seed=seed)
    return gen_moons_tasks(spec, [0])[0]


def params_for(cfg, seed=1):
    return init_hypernet_params(cfg, Rng(seed).split(0))


def std_set(features):
    """A feature set standardized by its own statistics, as ``encode`` hands it on."""
    return hypernet._standardized_input(features)


def value_rows(x, y):
    """The raw ``(features | label)`` rows the compressor selects from."""
    return np.column_stack([x.data, y.data])


def cut_values(entry, n_bytes):
    """Drop the last ``n_bytes`` of a checkpoint tensor's values block."""
    raw = base64.b64decode(entry["values"])
    entry["values"] = base64.b64encode(raw[:-n_bytes]).decode("ascii")


def assert_forward_permutation_invariant(monkeypatch, cfg, task, perm):
    """Permuting the task leaves the bottleneck unchanged, bit for bit.

    The message and the compression rows the reconstructor receives are
    identical, and the stored indices name the same original examples.
    """
    rows = []

    def spy(*args, **kwargs):
        out = sample_compress(*args, **kwargs)
        rows.append(out[1].data)
        return out

    monkeypatch.setattr(hypernet, "sample_compress", spy)
    params = params_for(cfg)
    x, y = task.features, task.labels
    _, a1 = hypernet_forward(params, cfg, x, y)
    _, a2 = hypernet_forward(params, cfg, x[perm], y[perm])
    if cfg.has_binary_message:
        assert np.array_equal(a1.message, a2.message)
    assert len(rows) == 2 and np.array_equal(rows[0], rows[1])
    assert sorted(a1.indices) == sorted(int(perm[i]) for i in a2.indices)


class TestConfig:
    def test_architecture_constraints(self):
        with pytest.raises(ValueError):
            HypernetConfig("PBH", c=1, b=4)
        with pytest.raises(ValueError):
            HypernetConfig("PBH", c=0, b=0)
        with pytest.raises(ValueError):
            HypernetConfig("SCH_MINUS", c=0, b=0)
        with pytest.raises(ValueError):
            HypernetConfig("SCH_MINUS", c=2, b=1)
        with pytest.raises(ValueError):
            HypernetConfig("SCH_PLUS", c=2, b=0)
        with pytest.raises(ValueError):
            HypernetConfig("PBSCH", c=2, b=0)
        with pytest.raises(ValueError):
            HypernetConfig("NOPE", c=0, b=1)
        HypernetConfig("PBSCH", c=0, b=4)  # degenerate compression is legal

    @pytest.mark.parametrize("field, value", [
        ("attention_dim", 0), ("attention_dim", -1), ("input_dim", 0), ("deepset_dim", 0),
        ("mlp1", (0,)), ("mlp2", (-3,)), ("mlp3", (0,)), ("mlp3", (5, 0)),
        ("mlp1", (float("nan"),))])
    def test_sizes_below_one_rejected(self, field, value):
        # each used to fail later: division by zero, fan_in, reshape, negative dims
        with pytest.raises(ValueError, match=f"^{field}"):
            HypernetConfig("SCH_PLUS", c=2, b=3, **{**SMALL, field: value})

    def test_empty_mlp_is_legal(self):
        cfg = HypernetConfig("SCH_PLUS", c=2, b=3, **{**SMALL, "mlp1": (), "mlp3": ()})
        assert cfg.mlp1 == () and cfg.mlp3_shapes == ((2, 1),)


class TestDeepSet:
    def test_hand_example_identity_network(self):
        # g = identity (2 -> 2), y = (+1, -1), X = ((1,0), (0,1)):
        # z = (1/2) (x1 - x2) = (0.5, -0.5) up to input permutation
        params = {"g.w0": Tensor(np.eye(2), requires_grad=True),
                  "g.b0": Tensor(np.zeros((1, 2)), requires_grad=True)}
        x = ad.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
        y = ad.constant(np.array([[1.0], [-1.0]]))
        z = deepset_embed(params, "g", x, y)
        assert np.allclose(z.data, [[0.5, -0.5]], atol=1e-15)

    def test_duplicating_every_example_preserves_embedding(self):
        task = small_task()
        cfg = small_config()
        params = params_for(cfg)
        x = ad.constant(task.features)
        y = ad.constant(task.labels.reshape(-1, 1))
        z1 = deepset_embed(params, "message.deepset", x, y)
        x2 = ad.constant(np.vstack([task.features, task.features]))
        y2 = ad.constant(np.vstack([task.labels.reshape(-1, 1)] * 2))
        z2 = deepset_embed(params, "message.deepset", x2, y2)
        assert np.allclose(z1.data, z2.data, atol=1e-12)

    def test_empty_set_rejected(self):
        cfg = small_config()
        params = params_for(cfg)
        with pytest.raises(ValueError):
            deepset_embed(params, "message.deepset",
                          ad.constant(np.zeros((0, 2))), ad.constant(np.zeros((0, 1))))


class TestEncoders:
    def test_pb_encode_range_and_shape(self):
        cfg = small_config("PBSCH", c=2, b=5)
        params = params_for(cfg)
        task = small_task()
        mu = pb_encode(params, std_set(task.features),
                       ad.constant(task.labels.reshape(-1, 1)))
        assert mu.data.shape == (1, 5)
        assert np.all(np.abs(mu.data) < 1.0)  # tanh range bounds the message cost

    def test_pb_encode_zero_weights_give_zero_message(self):
        cfg = small_config("PBH", c=0, b=4)
        params = params_for(cfg)
        for name, t in params.items():
            if name.startswith("message.trunk"):
                t.data = np.zeros_like(t.data)
        task = small_task()
        mu = pb_encode(params, std_set(task.features),
                       ad.constant(task.labels.reshape(-1, 1)))
        assert np.array_equal(mu.data, np.zeros((1, 4)))

    def test_msg_compress_exactly_pm1(self):
        cfg = small_config("SCH_PLUS", c=2, b=6)
        params = params_for(cfg)
        task = small_task()
        omega = msg_compress(params, std_set(task.features),
                             ad.constant(task.labels.reshape(-1, 1)))
        assert set(np.unique(omega.data)) <= {-1.0, 1.0}

    def test_message_permutation_invariance(self, monkeypatch):
        cfg = small_config("SCH_PLUS", c=2, b=6)
        assert_forward_permutation_invariant(monkeypatch, cfg, small_task(m=30),
                                             Rng(9).permutation(30))

    def test_msg_gradient_flows_through_straight_through(self):
        cfg = small_config("SCH_PLUS", c=2, b=4)
        params = params_for(cfg)
        task = small_task()
        omega = msg_compress(params, std_set(task.features),
                             ad.constant(task.labels.reshape(-1, 1)))
        ref.mean(omega).backward()
        trunk_grads = [np.abs(t.grad).sum() for n, t in params.items()
                       if n.startswith("message.") and t.grad is not None]
        assert sum(trunk_grads) > 0.0


class TestSampleCompressor:
    def test_single_example_selected_with_certainty(self):
        cfg = small_config("SCH_MINUS", c=1, b=0)
        params = params_for(cfg)
        x = ad.constant(np.array([[0.3, -0.8]]))
        y = ad.constant(np.array([[1.0]]))
        indices, rows = sample_compress(params, cfg, std_set(x.data), y, value_rows(x, y))
        assert indices == (0,)
        assert np.array_equal(rows.data, [[0.3, -0.8, 1.0]])

    def test_selected_content_invariant_under_permutation(self, monkeypatch):
        cfg = small_config("SCH_MINUS", c=3, b=0)
        assert_forward_permutation_invariant(monkeypatch, cfg, small_task(m=40),
                                             Rng(13).permutation(40))

    def test_crafted_key_alignment_wins(self):
        # force one key to align with every query by zeroing the key net and
        # planting a huge bias toward a margin on a single coordinate
        cfg = small_config("SCH_MINUS", c=1, b=0, mlp1=())
        params = params_for(cfg)
        task = small_task(m=12)
        # single linear key layer: logits = x_std @ w; make it favor column 0
        params["compressor.keys.w0"].data = np.zeros_like(
            params["compressor.keys.w0"].data)
        params["compressor.keys.w0"].data[0, :] = 10.0
        x = ad.constant(task.features)
        y = ad.constant(task.labels.reshape(-1, 1))
        indices, _ = sample_compress(params, cfg, std_set(x.data), y, value_rows(x, y))
        query = mlp_forward(params, "compressor.query0",
                            deepset_embed(params, "compressor.deepset",
                                          ad.constant(task.features), y))
        expect = np.argmax(task.features[:, 0]) if query.data.sum() > 0 else np.argmin(task.features[:, 0])
        assert indices[0] == expect

    def test_compression_larger_than_set_rejected(self):
        cfg = small_config("SCH_MINUS", c=5, b=0)
        params = params_for(cfg)
        with pytest.raises(ValueError):
            x, y = ad.constant(np.zeros((3, 2))), ad.constant(np.ones((3, 1)))
            sample_compress(params, cfg, std_set(x.data), y, value_rows(x, y))


def per_head_select(params, cfg, z, keys, features, labels, soft=False):
    """The per-head graph that ``ad.attention_select`` stands for, the
    reference: dense query, transpose, matmul, scale, softmax and
    straight-through selection for each head, then the concat of the rows."""
    values = ad.concat([features, labels], axis=1)
    chosen, soft_rows = {}, []
    for h in range(cfg.c):
        query = mlp_forward(params, f"compressor.query{h}", z)
        logits = ref.mul_scalar(ref.matmul(keys, ref.transpose(query)),
                               1.0 / math.sqrt(cfg.attention_dim))
        probs = ref.softmax(logits, axis=0)
        row = ref.hard_select_st(probs, values, soft=soft)
        soft_rows.append(row)
        chosen.setdefault(int(np.argmax(probs.data[:, 0])), row)
    positions = tuple(sorted(chosen))
    return positions, ad.concat(soft_rows if soft else [chosen[p] for p in positions], 0)


class TestAttentionSelect:
    """The fused head node against ``per_head_select``, bit for bit.  Task
    seed 8 makes two of the three heads collide."""

    @staticmethod
    def train_step(cfg, seed, fused, soft=False):
        """One training step's forward and backward through the compressor;
        returns (positions, rows, keys, z, params), gradients filled in."""
        params = params_for(cfg)
        task = small_task(m=30, seed=seed)
        order = canonical_order(task.features, task.labels)
        x = ad.constant(task.features[order])
        y = ad.constant(task.labels[order].reshape(-1, 1))
        xs_std = hypernet._standardized_input(x.data)
        keys = mlp_forward(params, "compressor.keys", xs_std)
        z = deepset_embed(params, "compressor.deepset", xs_std, y)
        if fused:
            heads = [(params[f"compressor.query{h}.w0"], params[f"compressor.query{h}.b0"])
                     for h in range(cfg.c)]
            positions, rows = ad.attention_select(
                z, keys, heads, np.column_stack([x.data, y.data]),
                1.0 / math.sqrt(cfg.attention_dim), soft=soft)
        else:
            positions, rows = per_head_select(params, cfg, z, keys, x, y, soft=soft)
        gamma = reconstruct(params, cfg, rows, None, soft=soft)
        logits = downstream_forward(gamma, downstream_shapes(2, cfg.mlp3),
                                    ad.constant(task.features))
        ad.binary_cross_entropy(logits, task.labels).backward()
        return positions, rows, keys, z, params

    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("soft", [False, True])
    def test_selection_and_gradients_equal_per_head_graph(self, c, soft):
        cfg = small_config("SCH_MINUS", c=c, b=0)
        collided = False
        for seed in (5, 8):
            pos, rows, keys, z, params = self.train_step(cfg, seed, fused=True, soft=soft)
            ref_pos, ref_rows, ref_keys, ref_z, ref_params = self.train_step(
                cfg, seed, fused=False, soft=soft)
            collided |= len(pos) < c
            assert pos == ref_pos and np.array_equal(rows.data, ref_rows.data), seed
            assert np.array_equal(keys.grad, ref_keys.grad), seed
            assert np.array_equal(z.grad, ref_z.grad), seed
            for name, t in params.items():
                ref = ref_params[name].grad
                assert (t.grad is None) == (ref is None), (seed, name)
                assert t.grad is None or np.array_equal(t.grad, ref), (seed, name)
        assert collided == (c == 3)


class TestReconstructor:
    def test_gamma_length_matches_downstream_parameter_count(self):
        cfg = small_config()
        params = params_for(cfg)
        rows = ad.constant(Rng(0).normal((2, 3)))
        msg = ad.constant(Rng(1).normal((1, 3)))
        gamma = reconstruct(params, cfg, rows, msg)
        shapes = cfg.mlp3_shapes
        assert gamma.data.shape == (1, downstream_param_count(shapes))
        assert downstream_param_count(shapes) == sum((a + 1) * b for a, b in shapes)

    def test_message_perturbation_changes_gamma(self):
        cfg = small_config()
        params = params_for(cfg)
        rows = ad.constant(Rng(0).normal((2, 3)))
        g1 = reconstruct(params, cfg, rows, ad.constant(np.zeros((1, 3))))
        g2 = reconstruct(params, cfg, rows, ad.constant(np.full((1, 3), 0.5)))
        assert np.linalg.norm(g1.data - g2.data) > 0.0

    def test_row_permutation_invariance(self):
        # decode_gamma owns the row sort: the same examples stored at other
        # positions, listed in another order, decode to the same gamma
        cfg = small_config("SCH_MINUS", c=4, b=0)
        params = params_for(cfg)
        task = small_task(m=20)
        indices = (2, 5, 11, 17)
        perm = Rng(0).permutation(len(task))
        position = np.argsort(perm)  # example i sits at position[i] after perm
        moved = tuple(int(position[i]) for i in reversed(indices))
        g1 = decode_gamma(params, cfg, task.features[None], task.labels[None], [indices], None)
        g2 = decode_gamma(params, cfg, task.features[perm][None], task.labels[perm][None],
                          [moved], None)
        assert np.array_equal(g1, g2)

    def test_needs_rows_or_message(self):
        cfg = small_config()
        params = params_for(cfg)
        with pytest.raises(ValueError):
            reconstruct(params, cfg, None, None)

    def test_soft_twin_gradients_match_finite_differences(self):
        # soft=True computes the compression rows' statistics with graph ops,
        # so every parent of the fused pooling, standardization, fold and
        # downstream nodes needs a gradient; the rows' label column is one
        cfg = small_config("PBSCH", c=3, b=2)
        params = params_for(cfg)
        rows_data = np.column_stack([Rng(4).normal((3, 2)), [1.0, -1.0, 1.0]])
        message = ad.constant(Rng(5).normal((1, 2)))
        task = small_task(m=12)

        def loss(rows):
            gamma = reconstruct(params, cfg, rows, message, soft=True)
            logits = downstream_forward(gamma, cfg.mlp3_shapes, ad.constant(task.features))
            return ad.binary_cross_entropy(logits, task.labels)

        rows = Tensor(rows_data, requires_grad=True)
        loss(rows).backward()
        checked = [(rows.grad, rows_data)] + [(t.grad, t.data) for name, t in params.items()
                                              if name.startswith("recon.")]
        for analytic, data in checked:
            numeric = np.zeros_like(data)
            for i in np.ndindex(data.shape):
                keep = data[i]
                data[i] = keep + 1e-5
                up = loss(Tensor(rows_data)).item()
                data[i] = keep - 1e-5
                down = loss(Tensor(rows_data)).item()
                data[i] = keep
                numeric[i] = (up - down) / 2e-5
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
            assert (np.abs(analytic - numeric) / denom).max() < 1e-4

    @pytest.mark.parametrize("soft", [False, True])
    @pytest.mark.parametrize("arch, c, b", [("PBH", 0, 3), ("SCH_MINUS", 3, 0),
                                            ("SCH_PLUS", 3, 3), ("PBSCH", 2, 3)])
    def test_stack_equals_each_set_and_message_alone(self, arch, c, b, soft):
        # (T, c', d + 1) rows and (n, T, 1, b) messages, the message index
        # leading as decode_gamma stacks them, give every set and message the
        # bits of the one-set call
        cfg = small_config(arch, c=c, b=b)
        params = params_for(cfg)
        n_sets, n_messages = 3, 4
        rows = messages = None
        if c:
            labels = np.where(Rng(6).normal((n_sets, c, 1)) >= 0.0, 1.0, -1.0)
            rows = np.concatenate([Rng(7).normal((n_sets, c, cfg.input_dim)), labels], axis=-1)
        if b:
            messages = Rng(8).normal((n_messages, n_sets, 1, b))

        def gamma(rows, message):
            return reconstruct(params, cfg, None if rows is None else ad.constant(rows),
                               None if message is None else ad.constant(message), soft=soft).data

        stacked = gamma(rows, messages)
        assert stacked.shape[-3:] == (n_sets, 1, downstream_param_count(cfg.mlp3_shapes))
        for t in range(n_sets):
            set_rows = None if rows is None else rows[t]
            if messages is None:
                assert stacked[t].tobytes() == gamma(set_rows, None).tobytes()
                continue
            for i in range(n_messages):
                assert stacked[i, t].tobytes() == gamma(set_rows, messages[i, t]).tobytes()

    def test_degenerate_compression_uses_learned_constant(self):
        cfg = small_config("PBSCH", c=0, b=3)
        params = params_for(cfg)
        assert "recon.const" in params
        gamma = reconstruct(params, cfg, None, ad.constant(np.zeros((1, 3))))
        assert gamma.data.shape[1] == downstream_param_count(cfg.mlp3_shapes)


class TestDownstream:
    def test_zero_gamma_gives_zero_logits(self):
        shapes = downstream_shapes(2, (5,))
        gamma = ad.constant(np.zeros((1, downstream_param_count(shapes))))
        out = downstream_forward(gamma, shapes, ad.constant(Rng(0).normal((7, 2))))
        assert np.array_equal(out.data, np.zeros((7, 1)))

    def test_hand_packed_single_layer(self):
        # pack w = (1, 2), b = 0.5 and evaluate at x = (1, 1): 3.5
        shapes = downstream_shapes(2, ())
        gamma = ad.constant(np.array([[1.0, 2.0, 0.5]]))
        out = downstream_forward(gamma, shapes, ad.constant(np.array([[1.0, 1.0]])))
        assert out.data[0, 0] == pytest.approx(3.5, abs=1e-15)

    def test_gamma_layout_tiles_gamma(self):
        # (fan_in, fan_out, w_start, b_start, stop) per layer, back to back
        shapes = downstream_shapes(2, (5, 3))
        assert hypernet.gamma_layout(shapes) == (
            (2, 5, 0, 10, 15), (5, 3, 15, 30, 33), (3, 1, 33, 36, 37))
        assert downstream_param_count(shapes) == 37

    def test_gamma_length_mismatch_rejected(self):
        shapes = downstream_shapes(2, (5,))
        with pytest.raises(ValueError):
            downstream_forward(ad.constant(np.zeros((1, 7))), shapes,
                               ad.constant(np.zeros((3, 2))))


class TestBatchedDecode:
    """``decode_gamma`` against the graph forward, the reference: row i of the
    batched decode equals ``hypernet_forward``'s gamma for message i, bit for
    bit.  Task seed 8 makes two of the three heads collide."""

    @pytest.mark.parametrize("arch, c, b", [("PBH", 0, 3), ("PBSCH", 3, 3)])
    def test_gaussian_rows_equal_graph_forward(self, arch, c, b):
        cfg = small_config(arch, c=c, b=b)
        params = params_for(cfg)
        collided = False
        for seed in (5, 8):
            task = small_task(m=30, seed=seed)
            _, art = hypernet_forward(params, cfg, task.features, task.labels,
                                      eps=np.zeros(b))
            collided |= art.c_effective < c
            eps = Rng(seed).normal((6, b))
            gammas, = decode_gamma(params, cfg, task.features[None], task.labels[None],
                                   [art.indices], (art.message + eps)[None])
            assert gammas.shape == (6, downstream_param_count(cfg.mlp3_shapes))
            for i in range(6):
                gamma, _ = hypernet_forward(params, cfg, task.features, task.labels,
                                            eps=eps[i])
                assert np.array_equal(gammas[i], gamma.data[0]), (seed, i)
        assert collided == (c > 0)

    @pytest.mark.parametrize("arch, b", [("SCH_PLUS", 3), ("SCH_MINUS", 0)])
    def test_sample_compression_row_equals_graph_forward(self, arch, b):
        cfg = small_config(arch, c=3, b=b)
        params = params_for(cfg)
        collided = False
        for seed in (5, 8):
            task = small_task(m=30, seed=seed)
            gamma, art = hypernet_forward(params, cfg, task.features, task.labels)
            collided |= art.c_effective < 3
            message = None if art.message is None else art.message[None, None]
            gammas, = decode_gamma(params, cfg, task.features[None], task.labels[None],
                                   [art.indices], message)
            assert gammas.shape == (1, gamma.data.size)
            assert np.array_equal(gammas[0], gamma.data[0]), seed
        assert collided

    def test_logit_rows_equal_graph_downstream(self):
        # two hidden layers, so the stacked (n, m, k) @ (n, k, h) product runs
        cfg = small_config("PBSCH", c=2, b=3, mlp3=(5, 4))
        params = params_for(cfg)
        task = small_task(m=30)
        _, art = hypernet_forward(params, cfg, task.features, task.labels,
                                  eps=np.zeros(3))
        gammas, = decode_gamma(params, cfg, task.features[None], task.labels[None],
                               [art.indices], (art.message + Rng(3).normal((4, 3)))[None])
        logits = downstream_forward(ad.constant(gammas), cfg.mlp3_shapes,
                                    ad.constant(task.features)).data.T
        assert logits.shape == (4, len(task))
        for i in range(4):
            ref = downstream_forward(ad.constant(gammas[i:i + 1]), cfg.mlp3_shapes,
                                     ad.constant(task.features))
            assert np.array_equal(logits[i], ref.data[:, 0]), i

    @pytest.mark.parametrize("mlp3", [(5,), (100,), (200, 200)])
    @pytest.mark.parametrize("n_rows", [1, 13])
    def test_per_row_feature_stacks_equal_per_row_calls(self, mlp3, n_rows):
        # row i on its own features[i], as a chunk's query sets are scored
        shapes = downstream_shapes(2, mlp3)
        gammas = Rng(4).normal((n_rows, downstream_param_count(shapes)))
        features = Rng(5).normal((n_rows, 37, 2))
        logits = downstream_forward(ad.constant(gammas), shapes, ad.constant(features)).data
        assert logits.shape == (37, n_rows)
        for i in range(n_rows):
            ref = downstream_forward(ad.constant(gammas[i:i + 1]), shapes,
                                     ad.constant(features[i]))
            assert np.array_equal(logits[:, i], ref.data[:, 0]), (mlp3, i)

    def test_logits_hold_one_buffer_per_layer(self):
        # bias add and ReLU write into the matmul output: a 100-message batch
        # on 198 complement rows peaks near one (n, m', h) buffer, not two
        shapes = downstream_shapes(2, (5,))
        gammas = Rng(0).normal((100, downstream_param_count(shapes)))
        features = Rng(1).normal((198, 2))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            downstream_forward(ad.constant(gammas), shapes, ad.constant(features))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 100 * 198 * 5 * 8

    def test_message_presence_and_width_checked(self):
        task = small_task()
        for arch, c, b, message in (("PBSCH", 2, 3, None),
                                    ("PBSCH", 2, 3, np.zeros(3)),
                                    ("PBSCH", 2, 3, np.zeros((2, 4))),
                                    ("SCH_MINUS", 2, 0, np.zeros((1, 0)))):
            cfg = small_config(arch, c=c, b=b)
            with pytest.raises(ValueError):
                decode_gamma(params_for(cfg), cfg, task.features[None], task.labels[None],
                             [(0, 1)], None if message is None else message[None])


class TestForwardAndArtifacts:
    def test_architecture_artifact_contracts(self):
        task = small_task(m=24)
        for arch, c, b in (("PBH", 0, 3), ("SCH_MINUS", 2, 0),
                           ("SCH_PLUS", 2, 3), ("PBSCH", 2, 3)):
            cfg = small_config(arch, c=c, b=b)
            params = params_for(cfg)
            gamma, art = hypernet_forward(params, cfg, task.features, task.labels,
                                          eps=Rng(77).normal(b))
            assert len(art.indices) <= c
            assert all(0 <= i < len(task) for i in art.indices)
            # the bottleneck record is (J, sigma) and nothing else
            assert [f.name for f in fields(art)] == ["indices", "message"]
            if arch == "SCH_MINUS":
                assert art.message is None
            elif arch == "SCH_PLUS":
                assert art.message.shape == (b,) and set(art.message) <= {-1.0, 1.0}
            else:  # the posterior mean mu = tanh(.)
                assert art.message.shape == (b,) and np.all(np.abs(art.message) < 1.0)
            assert gamma.data.shape == (1, downstream_param_count(cfg.mlp3_shapes))

    def test_pbh_zero_eps_equals_deterministic_decode(self):
        cfg = small_config("PBH", c=0, b=4)
        params = params_for(cfg)
        task = small_task()
        g1, art = hypernet_forward(params, cfg, task.features, task.labels,
                                   eps=np.zeros(4))
        g2, = decode_gamma(params, cfg, task.features[None], task.labels[None], [()],
                           art.message[None, None])
        assert np.array_equal(g1.data[0], g2[0])

    def test_same_rng_seed_reproduces_gamma(self):
        cfg = small_config("PBSCH", c=2, b=3)
        params = params_for(cfg)
        task = small_task()
        g1, _ = hypernet_forward(params, cfg, task.features, task.labels,
                                 eps=Rng(5).normal(3))
        g2, _ = hypernet_forward(params, cfg, task.features, task.labels,
                                 eps=Rng(5).normal(3))
        assert np.array_equal(g1.data, g2.data)

    def test_full_permutation_invariance_all_architectures(self):
        task = small_task(m=26)
        perm = Rng(21).permutation(len(task))
        eps = Rng(4).normal(3)
        for arch, c, b in (("PBH", 0, 3), ("SCH_MINUS", 3, 0),
                           ("SCH_PLUS", 2, 3), ("PBSCH", 2, 3)):
            cfg = small_config(arch, c=c, b=b)
            params = params_for(cfg)
            g1, _ = hypernet_forward(params, cfg, task.features, task.labels, eps=eps)
            g2, _ = hypernet_forward(params, cfg, task.features[perm],
                                     task.labels[perm], eps=eps)
            assert np.array_equal(g1.data, g2.data), arch

    def test_information_bottleneck_separation(self):
        # gamma depends on the input set only through (selected rows, message):
        # decoding the stored artifacts against a different task reproduces
        # gamma as long as the rows at those indices are identical
        cfg = small_config("SCH_PLUS", c=2, b=3)
        params = params_for(cfg)
        task = small_task(m=20)
        gamma, art = hypernet_forward(params, cfg, task.features, task.labels)
        other_x = Rng(33).normal((20, 2)) * 5.0
        other_y = np.where(Rng(34).normal(20) > 0, 1.0, -1.0)
        other_x[list(art.indices)] = task.features[list(art.indices)]
        other_y[list(art.indices)] = task.labels[list(art.indices)]
        g2, = decode_gamma(params, cfg, other_x[None], other_y[None], [art.indices],
                           art.message[None, None])
        assert np.array_equal(gamma.data[0], g2[0])

    def test_decode_matches_forward_for_sch(self):
        cfg = small_config("SCH_MINUS", c=3, b=0)
        params = params_for(cfg)
        task = small_task(m=30)
        gamma, art = hypernet_forward(params, cfg, task.features, task.labels)
        g2, = decode_gamma(params, cfg, task.features[None], task.labels[None], [art.indices],
                           None)
        assert np.array_equal(gamma.data[0], g2[0])

    def test_canonical_order_runs_once_per_entry_point(self, monkeypatch):
        calls = []

        def counting(features, labels):
            calls.append(np.shape(features)[:-1])  # (set size) or (sets, set size)
            return canonical_order(features, labels)

        monkeypatch.setattr(hypernet, "canonical_order", counting)
        task = small_task(m=24)
        for arch, c, b in (("PBH", 0, 3), ("SCH_MINUS", 2, 0),
                           ("SCH_PLUS", 2, 3), ("PBSCH", 2, 3)):
            cfg = small_config(arch, c=c, b=b)
            params = params_for(cfg)
            calls.clear()
            _, art = hypernet_forward(params, cfg, task.features, task.labels,
                                      eps=Rng(7).normal(b))
            assert calls == [(len(task),)], arch
            calls.clear()
            decode_gamma(params, cfg, task.features[None], task.labels[None], [art.indices],
                         None if art.message is None else art.message[None, None])
            assert calls == ([(1, art.c_effective)] if c > 0 else []), arch

    def test_set_statistics_runs_once_per_set(self, monkeypatch):
        # encode standardizes the input set once for the compressor and the
        # message head; decode_gamma standardizes the compression rows once
        calls = []

        def counting(features):
            calls.append(np.shape(features)[:-1])  # (set size) or (sets, set size)
            return set_statistics(features)

        monkeypatch.setattr(hypernet, "set_statistics", counting)
        task = small_task(m=24)
        for arch, c, b in (("PBH", 0, 3), ("SCH_MINUS", 2, 0),
                           ("SCH_PLUS", 2, 3), ("PBSCH", 2, 3)):
            cfg = small_config(arch, c=c, b=b)
            params = params_for(cfg)
            calls.clear()
            art, _, _ = encode(params, cfg, task.features, task.labels)
            assert calls == [(len(task),)], arch
            calls.clear()
            decode_gamma(params, cfg, task.features[None], task.labels[None], [art.indices],
                         None if art.message is None else art.message[None, None])
            assert calls == ([(1, art.c_effective)] if c > 0 else []), arch

    def test_mlp_forward_builds_one_tensor_per_layer(self, monkeypatch):
        params = params_for(small_config("SCH_MINUS", c=1, b=0, mlp1=(12, 7)))
        x = ad.constant(np.ones((4, 2)))
        built = []
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        for n_layers in (1, 2, 3):
            prefix = {f"compressor.keys.{kind}{i}": params[f"compressor.keys.{kind}{i}"]
                      for i in range(n_layers) for kind in "wb"}
            built.clear()
            mlp_forward(prefix, "compressor.keys", x)
            assert len(built) == n_layers

    def test_training_step_builds_one_node_per_fused_stage(self, monkeypatch):
        # one PBSCH c=2 b=4 training step at the default widths; the DeepSet
        # poolings, the row standardization, the fold and the downstream net
        # are one node each, with no transpose/reshape/mul_scalar chains
        cfg = HypernetConfig("PBSCH", c=2, b=4)
        params = params_for(cfg)
        task = small_task(m=200)
        built = []
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        gamma, art = hypernet_forward(params, cfg, task.features[:100], task.labels[:100],
                                      eps=Rng(3).normal(cfg.b))
        logits = downstream_forward(gamma, cfg.mlp3_shapes, ad.constant(task.features[100:]))
        ad.binary_cross_entropy(logits, task.labels[100:]).backward()
        assert art.c_effective == 2
        assert len(built) <= 32
        assert sum(t.requires_grad for t in built) <= 25
        assert not {t.op for t in built} & {"transpose", "reshape", "mul_scalar"}
        assert all(t.grad is not None for t in params.values())

    def test_gaussian_arch_requires_rng_or_eps(self):
        cfg = small_config("PBH", c=0, b=2)
        params = params_for(cfg)
        task = small_task()
        with pytest.raises(ValueError):
            hypernet_forward(params, cfg, task.features, task.labels)

    def test_mu_norm_bounded_by_message_size(self):
        # tanh range keeps the hybrid message cost below b/2 a priori
        cfg = small_config("PBSCH", c=2, b=8)
        params = params_for(cfg)
        task = small_task()
        _, art = hypernet_forward(params, cfg, task.features, task.labels,
                                  eps=np.zeros(8))
        assert 0.5 * float(art.message @ art.message) <= cfg.b / 2


class TestArtifactValidation:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            CompressionArtifacts((1, 1), None)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = small_config("PBSCH", c=2, b=3)
        params = params_for(cfg)
        task = small_task()
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, cfg, params, master_seed=99)
        cfg2, params2, seed = load_checkpoint(path)
        assert cfg2 == cfg and seed == 99
        assert list(params2) == list(params)
        for name in params:
            assert np.array_equal(params[name].data, params2[name].data)
        eps = Rng(1).normal(3)
        g1, _ = hypernet_forward(params, cfg, task.features, task.labels, eps=eps)
        g2, _ = hypernet_forward(params2, cfg2, task.features, task.labels, eps=eps)
        assert np.array_equal(g1.data, g2.data)

    @pytest.mark.parametrize("arch, c, b", [("PBH", 0, 3), ("SCH_MINUS", 2, 0),
                                             ("SCH_PLUS", 2, 3), ("PBSCH", 2, 3)])
    def test_load_draws_no_init(self, tmp_path, monkeypatch, arch, c, b):
        # the layout comes from the config alone: no Kaiming draw, no stream
        cfg = small_config(arch, c=c, b=b)
        params = params_for(cfg)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, cfg, params, master_seed=99)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint must not initialize parameters")

        monkeypatch.setattr(hypernet, "kaiming_uniform_init", refuse)
        monkeypatch.setattr(hypernet, "Rng", refuse)
        _, loaded, _ = load_checkpoint(path)
        assert list(loaded) == list(params)
        for name, t in params.items():
            assert np.array_equal(loaded[name].data, t.data)
            assert loaded[name].requires_grad and loaded[name].data.flags.writeable

    def test_version_check(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text('{"format_version": 999}')
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_values_are_base64_float64_bytes(self, tmp_path):
        # the on-disk format: version 2, each tensor's values one base64 string
        # of its little-endian, row-major float64 bytes
        cfg = small_config("PBSCH", c=2, b=3)
        params = params_for(cfg)
        params["message.trunk.b1"].data = np.array([[1.0, -2.0, 0.5]])
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, cfg, params, master_seed=99)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 2
        assert doc["params"]["message.trunk.b1"] == {
            "shape": [1, 3], "values": "AAAAAAAA8D8AAAAAAAAAwAAAAAAAAOA/"}
        w = params["recon.trunk.w0"].data
        raw = base64.b64decode(doc["params"]["recon.trunk.w0"]["values"])
        assert np.array_equal(np.frombuffer(raw, dtype="<f8").reshape(w.shape), w)

    def test_version_1_checkpoint_is_rejected(self, tmp_path):
        # a version-1 file: the same document with the values as float lists
        cfg = small_config("PBSCH", c=2, b=3)
        params = params_for(cfg)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, cfg, params, master_seed=99)
        doc = json.loads(path.read_text())
        doc["format_version"] = 1
        for name, entry in doc["params"].items():
            entry["values"] = params[name].data.reshape(-1).tolist()
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage, message", [
        (lambda p: p.pop("recon.trunk.w0"), "no tensor 'recon.trunk.w0'"),
        (lambda p: p["message.trunk.b0"].update(shape=[12]), "'message.trunk.b0' has shape"),
        (lambda p: cut_values(p["compressor.keys.w0"], 8), "'compressor.keys.w0' has shape"),
        (lambda p: p.update(extra={"shape": [1, 1], "values": [0.0]}), "'extra' is not part"),
        (lambda p: p["compressor.keys.w0"].update(values=[0.0]),
         "'compressor.keys.w0' values must be a base64 string, got list"),
        (lambda p: p["compressor.keys.w0"].update(values="AAAA*AAAA"),
         "'compressor.keys.w0' values are not valid base64"),
        (lambda p: cut_values(p["compressor.keys.w0"], 3), "'compressor.keys.w0' has shape"),
    ], ids=["missing", "wrong_shape", "short_values", "extra", "list_values",
            "invalid_base64", "partial_float"])
    def test_layout_mismatch_names_the_tensor(self, tmp_path, damage, message):
        cfg = small_config("PBSCH", c=2, b=3)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, cfg, params_for(cfg), master_seed=99)
        doc = json.loads(path.read_text())
        damage(doc["params"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("seed", [1.7, True, "12", -3, None],
                             ids=["float", "bool", "string", "negative", "null"])
    def test_master_seed_must_be_a_non_negative_int(self, tmp_path, seed):
        # int() used to load 1.7 and true as 1 and "12" as 12, and -3 passed
        cfg = small_config("PBSCH", c=2, b=3)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, cfg, params_for(cfg), master_seed=99)
        doc = json.loads(path.read_text())
        doc["master_seed"] = seed
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="checkpoint key 'master_seed' is .*, "
                                             "expected an int >= 0"):
            load_checkpoint(path)
