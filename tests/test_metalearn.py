"""Meta-training loop, Monte-Carlo estimation, certification, and sweep tests."""

import collections
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize

from metacert import autodiff as ad
from metacert import bounds, metalearn
from metacert.autodiff import Tensor
from metacert.hypernet import (HypernetConfig, _constants, decode_gamma, downstream_forward,
                               encode, hypernet_forward, init_hypernet_params)
from metacert.metalearn import (CertifyProtocol, TrainProtocol, TrainingDivergedError,
                                certify_tasks, mc_expected_loss, meta_train,
                                split_support_query, sweep)
from metacert.optim import Adam
from metacert.rng import Rng
from metacert.tasks import (MoonsEnvironmentSpec, TaskDataset, gen_meta_dataset,
                            gen_moons_tasks)

SMALL = dict(mlp1=(16,), mlp2=(12,), mlp3=(5,), deepset_dim=6, attention_dim=8)


def micro_meta(n_train=6, n_test=2, m=40, seed=99):
    spec = MoonsEnvironmentSpec(n_train_tasks=n_train, n_test_tasks=n_test,
                                examples_per_task=m, master_seed=seed)
    return gen_meta_dataset(spec)


def toy_linear_meta(n_tasks=2, m=60, seed=4):
    """Linearly separable two-task meta-dataset (for the smoke test)."""
    rng = Rng(seed)
    tasks = []
    for i in range(n_tasks + 1):
        x = rng.split(i).normal((m, 2))
        w = np.array([math.cos(i * 1.3), math.sin(i * 1.3)])
        y = np.where(x @ w > 0, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0  # guarantee both classes
        x[0] = w * 2.0
        x[1] = -w * 2.0
        from metacert.tasks import TaskDataset
        tasks.append(TaskDataset(x, y, task_id=i))
    return tasks[:-1], [tasks[-1]]


class TestSplit:
    def test_sizes_disjoint_exhaustive(self):
        task = gen_moons_tasks(MoonsEnvironmentSpec(examples_per_task=50,
                                                    master_seed=1), [0])[0]
        sup, qry = split_support_query(task, 20, Rng(0))
        assert len(sup) == 20 and len(qry) == 30
        assert set(sup) & set(qry) == set()
        assert sorted(np.concatenate([sup, qry])) == list(range(50))

    def test_same_seed_same_split(self):
        task = gen_moons_tasks(MoonsEnvironmentSpec(examples_per_task=50,
                                                    master_seed=1), [0])[0]
        a = split_support_query(task, 25, Rng(7, (1,)))
        b = split_support_query(task, 25, Rng(7, (1,)))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_alpha_out_of_range(self):
        task = gen_moons_tasks(MoonsEnvironmentSpec(examples_per_task=50,
                                                    master_seed=1), [0])[0]
        with pytest.raises(ValueError):
            split_support_query(task, 50, Rng(0))


class TestMetaTrain:
    def test_lr_zero_leaves_parameters_unchanged(self):
        meta = micro_meta()
        cfg = HypernetConfig("SCH_MINUS", c=2, b=0, **SMALL)
        protocol = TrainProtocol(support_size=20, learning_rate=0.0,
                                 max_epochs=3, patience=3)
        rng = Rng(5)
        init = {name: t.data.copy()
                for name, t in init_hypernet_params(cfg, rng.split(0)).items()}
        params, _ = meta_train(meta.train, meta.val, cfg, protocol, rng)
        for name, arr in init.items():
            assert np.array_equal(arr, params[name].data)

    def test_log_length_and_early_stop_contract(self):
        meta = micro_meta()
        cfg = HypernetConfig("SCH_MINUS", c=2, b=0, **SMALL)
        protocol = TrainProtocol(support_size=20, learning_rate=0.0,
                                 max_epochs=30, patience=4)
        # lr = 0: validation error is constant, so the best epoch is 0 and
        # training must stop exactly patience epochs later
        _, log = meta_train(meta.train, meta.val, cfg, protocol, Rng(5))
        assert log.best_epoch == 0
        assert len(log.epochs) == 1 + protocol.patience
        assert log.stopped_early
        assert len(log.epochs) <= protocol.max_epochs

    def test_returns_best_epoch_parameters_not_last(self):
        meta = micro_meta(n_train=4, m=30)
        cfg = HypernetConfig("SCH_MINUS", c=2, b=0, **SMALL)
        protocol = TrainProtocol(support_size=10, learning_rate=1e-3,
                                 max_epochs=8, patience=8)
        params, log = meta_train(meta.train, meta.val, cfg, protocol, Rng(5))
        # re-train with max_epochs = best_epoch + 1: identical parameters
        protocol2 = TrainProtocol(support_size=10, learning_rate=1e-3,
                                  max_epochs=log.best_epoch + 1,
                                  patience=log.best_epoch + 1)
        params2, log2 = meta_train(meta.train, meta.val, cfg, protocol2, Rng(5))
        assert log2.best_epoch == log.best_epoch
        for name in params:
            assert np.array_equal(params[name].data, params2[name].data)

    def test_smoke_loss_halves_on_linear_tasks(self):
        # derived smoke threshold: on a linearly separable 2-task toy
        # meta-dataset the mean surrogate loss drops by >= 50% within 50 epochs
        train, val = toy_linear_meta()
        cfg = HypernetConfig("SCH_MINUS", c=2, b=0, **SMALL)
        protocol = TrainProtocol(support_size=30, learning_rate=1e-3,
                                 max_epochs=50, patience=50)
        _, log = meta_train(train, val, cfg, protocol, Rng(1))
        first = log.epochs[0].train_loss
        best = min(s.train_loss for s in log.epochs)
        assert best <= 0.5 * first

    def test_divergence_aborts_with_diagnostic(self):
        meta = micro_meta(n_train=5)
        meta.train[1].features[3, 0] = math.nan  # poisoned example -> NaN loss
        cfg = HypernetConfig("SCH_MINUS", c=2, b=0, **SMALL)
        protocol = TrainProtocol(support_size=20, learning_rate=1e-3,
                                 max_epochs=4, patience=4)
        with pytest.raises(TrainingDivergedError, match="epoch 0"):
            meta_train(meta.train, meta.val, cfg, protocol, Rng(5))

    @pytest.mark.parametrize("lr", [-1.0, math.nan, math.inf])
    def test_learning_rate_must_be_finite_and_non_negative(self, lr):
        # -1 used to train by gradient ascent and exit 0
        with pytest.raises(ValueError, match="learning_rate"):
            TrainProtocol(support_size=20, learning_rate=lr)

    @pytest.mark.parametrize("kind", ["training", "validation"])
    def test_too_small_task_is_refused_before_the_first_step(self, monkeypatch, kind):
        # a too-small validation task used to fail in split_support_query
        # after a whole epoch of Adam steps, naming no task
        meta = micro_meta(n_train=8)
        small = gen_moons_tasks(MoonsEnvironmentSpec(examples_per_task=20, master_seed=3), [0])[0]
        small = TaskDataset(small.features, small.labels, task_id=90)
        train, val = meta.train, meta.val
        if kind == "training":
            train = train + [small]
        else:
            val = val + [small]
        steps = []
        real_step = Adam.step
        monkeypatch.setattr(Adam, "step", lambda opt: steps.append(1) or real_step(opt))
        cfg = HypernetConfig("SCH_MINUS", c=2, b=0, **SMALL)
        protocol = TrainProtocol(support_size=25, max_epochs=2, patience=2)
        with pytest.raises(ValueError, match=f"^{kind} task 90 has 20 examples, too few for "
                                             f"support_size 25$"):
            meta_train(train, val, cfg, protocol, Rng(0))
        assert steps == []

    @pytest.mark.parametrize("arch, b, draws_per_visit",
                             [("SCH_MINUS", 0, 0), ("SCH_PLUS", 3, 0), ("PBSCH", 3, 1)])
    def test_message_noise_is_drawn_for_gaussian_messages_only(self, monkeypatch, arch, b,
                                                                draws_per_visit):
        # SCH_MINUS and SCH_PLUS ignore the noise, and every visit used to draw it
        meta = micro_meta()
        cfg = HypernetConfig(arch, c=2, b=b, **SMALL)
        protocol = TrainProtocol(support_size=20, max_epochs=2, patience=2)
        shapes = []
        real_normal = Rng.normal
        monkeypatch.setattr(Rng, "normal",
                            lambda rng, shape=(): shapes.append(shape) or real_normal(rng, shape))
        _, log = meta_train(meta.train, meta.val, cfg, protocol, Rng(5))
        assert shapes == [b] * (draws_per_visit * len(log.epochs) * len(meta.train))

    def test_needs_tasks(self):
        meta = micro_meta()
        cfg = HypernetConfig("SCH_MINUS", c=2, b=0, **SMALL)
        protocol = TrainProtocol(support_size=20)
        with pytest.raises(ValueError):
            meta_train([], meta.val, cfg, protocol, Rng(0))
        with pytest.raises(ValueError):
            meta_train(meta.train, [], cfg, protocol, Rng(0))


class TestMcExpectedLoss:
    def setup_method(self):
        self.cfg = HypernetConfig("PBSCH", c=2, b=3, **SMALL)
        self.params = init_hypernet_params(self.cfg, Rng(2).split(0))
        self.task = gen_moons_tasks(MoonsEnvironmentSpec(examples_per_task=40,
                                                         master_seed=3), [0])[0]
        _, self.artifacts = hypernet_forward(self.params, self.cfg,
                                             self.task.features, self.task.labels,
                                             eps=np.zeros(3))

    def test_single_draw_equals_one_stochastic_forward(self):
        mean, stderr = mc_expected_loss(self.params, self.cfg, self.task,
                                        self.artifacts, 1, Rng(8), "zero_one")
        eps = Rng(8).normal(self.cfg.b)
        comp = np.setdiff1d(np.arange(len(self.task)), self.artifacts.indices)
        gamma, _ = hypernet_forward(self.params, self.cfg, self.task.features,
                                    self.task.labels, eps=eps)
        logits = downstream_forward(gamma, self.cfg.mlp3_shapes,
                                    ad.constant(self.task.features[comp]))
        assert mean == ad.zero_one_loss(logits.data, self.task.labels[comp])
        assert stderr == 0.0

    @pytest.mark.parametrize("arch, c", [("PBH", 0), ("PBSCH", 2)])
    @pytest.mark.parametrize("kind", ["zero_one", "linear"])
    @pytest.mark.parametrize("n_mc", [1, 7])
    def test_batch_equals_per_draw_graph_loop(self, arch, c, kind, n_mc):
        # oracle: one draw at a time, each decoded by its own graph forward
        cfg = HypernetConfig(arch, c=c, b=3, **SMALL)
        params = init_hypernet_params(cfg, Rng(2).split(0))
        _, art = hypernet_forward(params, cfg, self.task.features, self.task.labels,
                                  eps=np.zeros(3))
        comp = np.setdiff1d(np.arange(len(self.task)), art.indices)
        loss = ad.zero_one_loss if kind == "zero_one" else ad.linear_loss
        rng = Rng(11)
        draws = []
        for _ in range(n_mc):
            gamma, _ = hypernet_forward(params, cfg, self.task.features,
                                        self.task.labels, eps=rng.normal(cfg.b))
            logits = downstream_forward(gamma, cfg.mlp3_shapes,
                                        ad.constant(self.task.features[comp]))
            draws.append(loss(logits.data, self.task.labels[comp]))
        draws = np.array(draws)
        stderr = draws.std(ddof=1) / math.sqrt(n_mc) if n_mc > 1 else 0.0
        assert mc_expected_loss(params, cfg, self.task, art, n_mc, Rng(11),
                                kind) == (draws.mean(), stderr)

    def test_stderr_shrinks_with_draws(self):
        # spread of the estimator over repeats shrinks roughly like 1/sqrt(N)
        spreads = []
        for n_mc in (1, 10, 100):
            estimates = [mc_expected_loss(self.params, self.cfg, self.task,
                                          self.artifacts, n_mc, Rng(50 + r),
                                          "linear")[0]
                         for r in range(12)]
            spreads.append(np.std(estimates))
        assert spreads[2] < spreads[0]
        assert spreads[1] < 2.5 * spreads[0] / math.sqrt(10) + 1e-3

    def test_zero_noise_draws_give_deterministic_decoder_loss(self):
        class ZeroRng(Rng):
            def normal(self, shape=()):
                return np.zeros(shape)

        mean, stderr = mc_expected_loss(self.params, self.cfg, self.task,
                                        self.artifacts, 5, ZeroRng(0), "linear")
        assert stderr == 0.0
        comp = np.setdiff1d(np.arange(len(self.task)), self.artifacts.indices)
        gamma, _ = hypernet_forward(self.params, self.cfg, self.task.features,
                                    self.task.labels, eps=np.zeros(self.cfg.b))
        logits = downstream_forward(gamma, self.cfg.mlp3_shapes,
                                    ad.constant(self.task.features[comp]))
        assert mean == ad.linear_loss(logits.data, self.task.labels[comp])

    def test_requires_gaussian_bottleneck(self):
        cfg = HypernetConfig("SCH_MINUS", c=2, b=0, **SMALL)
        params = init_hypernet_params(cfg, Rng(2).split(0))
        _, art = hypernet_forward(params, cfg, self.task.features, self.task.labels)
        with pytest.raises(ValueError):
            mc_expected_loss(params, cfg, self.task, art, 3, Rng(0), "zero_one")

    @pytest.mark.parametrize("n_mc", [0, -1])
    def test_no_draws_rejected_before_drawing(self, n_mc):
        class NoDrawRng(Rng):
            def normal(self, shape=()):
                raise AssertionError("drew a message")

        with pytest.raises(ValueError, match="n_mc"):
            mc_expected_loss(self.params, self.cfg, self.task, self.artifacts,
                             n_mc, NoDrawRng(0), "zero_one")


class TestCertifyTask:
    def make(self, arch, c, b):
        cfg = HypernetConfig(arch, c=c, b=b, **SMALL)
        params = init_hypernet_params(cfg, Rng(6).split(0))
        task = gen_moons_tasks(MoonsEnvironmentSpec(examples_per_task=60,
                                                    master_seed=7), [0])[0]
        return cfg, params, task

    def test_sch_minus_certificates(self):
        cfg, params, task = self.make("SCH_MINUS", 3, 0)
        row = certify_tasks(params, cfg, [task], CertifyProtocol(0.05, n_mc=5), Rng(0))[0]
        kinds = [e.kind for e in row.certificates]
        assert kinds == ["SCH_BINARY", "SCH_REAL"]
        assert row.certificates[0].emp_loss_kind == "zero_one"
        assert row.certificates[1].emp_loss_kind == "linear"
        for e in row.certificates:
            assert 0.0 <= e.tau_star <= 1.0
            assert e.tau_star >= e.emp_loss

    def test_sch_binary_matches_exact_binomial_tail(self):
        # tau* = sup { r : P[Bin(n, r) <= K] >= delta / (c C(m, |j|)) }, n = m - |j|,
        # at the row's own K, against an exact math.comb CDF root-found by brentq;
        # with K = 0 it is the closed form 1 - (delta / (c C(m, |j|)))^(1/n)
        cfg, params, task = self.make("SCH_MINUS", 3, 0)
        row = certify_tasks(params, cfg, [task], CertifyProtocol(0.05, n_mc=5), Rng(0))[0]
        m, c_eff = row.m_prime, row.c_effective
        n = m - c_eff
        K = round(row.emp_complement_01 * n)
        assert row.certificates[0].emp_loss == K / n
        threshold = 0.05 / (cfg.c * math.comb(m, c_eff))

        def cdf_gap(r):
            return sum(math.comb(n, k) * r ** k * (1 - r) ** (n - k)
                       for k in range(K + 1)) - threshold

        expect = optimize.brentq(cdf_gap, K / n, 1.0, xtol=1e-14)
        assert row.certificates[0].tau_star == pytest.approx(expect, abs=1e-9)

    def test_pbh_certificate(self):
        cfg, params, task = self.make("PBH", 0, 3)
        row = certify_tasks(params, cfg, [task], CertifyProtocol(0.05, n_mc=16), Rng(0))[0]
        kinds = [e.kind for e in row.certificates]
        assert kinds == ["PB"]
        assert row.c_effective == 0
        assert row.certificates[0].mc_stderr is not None

    def test_pbsch_certificates(self):
        cfg, params, task = self.make("PBSCH", 2, 3)
        row = certify_tasks(params, cfg, [task], CertifyProtocol(0.05, n_mc=16), Rng(0))[0]
        kinds = [e.kind for e in row.certificates]
        assert kinds == ["PBSCH", "PBSCH_DISINTEGRATED"]
        # the disintegrated certificate refers to one sampled predictor,
        # whose budget is strictly larger at equal empirical loss
        assert row.certificates[0].mc_stderr is not None
        assert row.certificates[1].mc_stderr is None

    def test_repeat_certification_bit_identical(self):
        cfg, params, task = self.make("PBSCH", 2, 3)
        r1 = certify_tasks(params, cfg, [task], CertifyProtocol(0.05, n_mc=8), Rng(42, (9,)))[0]
        r2 = certify_tasks(params, cfg, [task], CertifyProtocol(0.05, n_mc=8), Rng(42, (9,)))[0]
        assert r1.test_query_error == r2.test_query_error
        for e1, e2 in zip(r1.certificates, r2.certificates):
            assert e1.tau_star == e2.tau_star and e1.emp_loss == e2.emp_loss

    def test_certification_reads_only_the_given_task(self):
        # same parameters certify the same task identically no matter what
        # other tasks exist; the API admits no meta-training input at all
        cfg, params, task = self.make("SCH_MINUS", 3, 0)
        r1 = certify_tasks(params, cfg, [task], CertifyProtocol(0.05), Rng(1))[0]
        r2 = certify_tasks(params, cfg, [task], CertifyProtocol(0.05), Rng(1))[0]
        assert r1.certificates[0].tau_star == r2.certificates[0].tau_star

    def test_task_too_small_rejected(self):
        cfg, params, _ = self.make("SCH_MINUS", 3, 0)
        tiny = gen_moons_tasks(MoonsEnvironmentSpec(examples_per_task=2,
                                                    master_seed=1), [0])[0]
        with pytest.raises(ValueError):
            certify_tasks(params, cfg, [tiny], CertifyProtocol(0.05), Rng(0))

    @pytest.mark.parametrize("m", [4, 5])
    def test_half_sample_smaller_than_c_rejected_before_any_encode(self, monkeypatch, m):
        # m > c, but the test-query pass encodes a half-sample support set of
        # m // 2 < c examples
        cfg, params, task = self.make("SCH_MINUS", 3, 0)
        small = TaskDataset(task.features[:m], np.resize([1.0, -1.0], m), task_id=17)
        encoded = []
        monkeypatch.setattr(metalearn, "encode", lambda *args: encoded.append(args))
        message = (f"task 17 has {m} examples, too few for compression size 3: its "
                   f"test-query pass encodes a half-sample support set of {m // 2}, "
                   f"which needs at least 3")
        with pytest.raises(ValueError, match=message):
            certify_tasks(params, cfg, [small], CertifyProtocol(0.05), Rng(0))
        with pytest.raises(ValueError, match=message):
            certify_tasks(params, cfg, [task, small], CertifyProtocol(0.05), Rng(0))
        assert encoded == []


class TestCompressionSetPrior:
    """A task is certified under the size-aware prior P_J(j) = 1 / (c C(m', |j|))
    over the sets of sizes 1..c, so heads that collide (|j| = c_effective < c)
    still leave a prior of total mass at most 1 (Marchand & Sokolova 2005)."""

    @pytest.mark.parametrize("m_prime", range(1, 9))
    def test_prior_mass_at_most_one(self, m_prime):
        for c in range(1, min(4, m_prime) + 1):
            sets = [j for size in range(1, c + 1)
                    for j in itertools.combinations(range(m_prime), size)]
            size_aware = sum(Fraction(1, c * math.comb(m_prime, len(j))) for j in sets)
            uniform_per_size = sum(Fraction(1, math.comb(m_prime, len(j))) for j in sets)
            assert size_aware <= 1
            assert uniform_per_size == c  # the fixed-size prior, summed over sizes

    @pytest.mark.parametrize("arch, b", [("SCH_MINUS", 0), ("SCH_PLUS", 3), ("PBSCH", 3)])
    def test_certificates_charge_size_aware_prior(self, arch, b):
        c = 3
        cfg = HypernetConfig(arch, c=c, b=b, **{**SMALL, "mlp1": (12,), "mlp2": (10,)})
        params = init_hypernet_params(cfg, Rng(1).split(0))
        collided = False
        for seed in (5, 8):  # task seed 8 makes two of the three heads collide
            task = TestForwardOnlyEvaluation.task(seed)
            row = certify_tasks(params, cfg, [task], CertifyProtocol(0.05, n_mc=6),
                                Rng(30, (seed,)))[0]
            art, _, _ = encode(params, cfg, task.features, task.labels)
            m, c_eff = row.m_prime, row.c_effective
            collided |= c_eff < c
            mu_sq = float(art.message @ art.message) if cfg.has_gaussian_message else 0.0
            K = round(row.emp_complement_01 * (m - c_eff))
            bound_of = {"SCH_BINARY": lambda budget: bounds.bound_sch_binary(budget, K),
                        "SCH_REAL": bounds.bound_sch_real, "PBSCH": bounds.bound_pbsch,
                        "PBSCH_DISINTEGRATED": bounds.bound_pbsch_disintegrated}
            for entry in row.certificates:
                budget = bounds.BoundBudget(
                    m, c_eff, b, 0.05, emp_loss=entry.emp_loss, mu_norm_sq=mu_sq,
                    log_prior_j=-(math.log(c) + bounds.log_binomial(m, c_eff)))
                assert entry.tau_star == bound_of[entry.kind](budget).tau_star, (seed, entry)
        assert collided


ARCHS = [("PBH", 0, 3), ("SCH_MINUS", 3, 0), ("SCH_PLUS", 3, 3), ("PBSCH", 3, 3)]


class TestForwardOnlyEvaluation:
    """Validation and certification encode stacks of task samples with
    ``encode`` and decode chunks of them with ``decode_gamma`` and
    ``downstream_forward``; ``encode`` of one task and the graph decoder
    ``hypernet_forward(eps=0)`` -> ``downstream_forward`` are the reference.
    Task seed 8 makes two of the three heads collide."""

    @staticmethod
    def task(seed, m=30):
        spec = MoonsEnvironmentSpec(n_train_tasks=1, n_test_tasks=1, examples_per_task=m,
                                    master_seed=seed)
        return gen_moons_tasks(spec, [0])[0]

    @pytest.mark.parametrize("arch, c, b", ARCHS)
    def test_logits_equal_graph_forward(self, arch, c, b):
        # the hypernet tests' sizes, under which task seed 8 collides heads
        cfg = HypernetConfig(arch, c=c, b=b, **{**SMALL, "mlp1": (12,), "mlp2": (10,)})
        params = init_hypernet_params(cfg, Rng(1).split(0))
        eps = np.zeros(b) if cfg.has_gaussian_message else None
        seeds = (5, 8, 9, 12)
        tasks = [self.task(seed) for seed in seeds]
        xs = np.stack([task.features for task in tasks])
        ys = np.stack([task.labels for task in tasks])
        arts, _, _ = encode(params, cfg, xs, ys)
        messages = np.stack([a.message[None] for a in arts]) if cfg.has_message else None
        gammas = decode_gamma(params, cfg, xs, ys, [a.indices for a in arts], messages)
        queries = metalearn._query_logits(params, cfg, tasks, 17, [Rng(seed) for seed in seeds])
        collided = False
        for seed, task, art, gamma, query in zip(seeds, tasks, arts, gammas, queries):
            ref_art, _, _ = encode(params, cfg, task.features, task.labels)
            assert art.indices == ref_art.indices, seed
            assert (art.message is None) == (ref_art.message is None)
            assert art.message is None or np.array_equal(art.message, ref_art.message), seed
            ref_gamma, ref_art = hypernet_forward(params, cfg, task.features, task.labels,
                                                  eps=eps)
            assert art.indices == ref_art.indices, seed
            collided |= art.c_effective < c
            comp = np.setdiff1d(np.arange(len(task)), art.indices)
            ref = downstream_forward(ref_gamma, cfg.mlp3_shapes, ad.constant(task.features))
            logits, labels = metalearn._complement_logits(cfg, task, art.indices, gamma)
            assert np.array_equal(logits[0], ref.data[comp, 0]), seed
            assert np.array_equal(labels, task.labels[comp])

            sup, qry = split_support_query(task, 17, Rng(seed))
            ref_gamma, _ = hypernet_forward(params, cfg, task.features[sup],
                                            task.labels[sup], eps=eps)
            ref = downstream_forward(ref_gamma, cfg.mlp3_shapes,
                                     ad.constant(task.features[qry]))
            assert np.array_equal(query[0], ref.data[:, 0]), seed
            assert np.array_equal(query[1], task.labels[qry])
        assert collided == (c > 0)

    def test_certify_and_validation_build_no_gradient_graph(self, monkeypatch):
        runs = []
        for arch, c, b in ARCHS:
            cfg = HypernetConfig(arch, c=c, b=b, **SMALL)
            runs.append((cfg, init_hypernet_params(cfg, Rng(6).split(0))))
        tasks = [self.task(seed, m=40) for seed in (7, 8)]
        built = []
        init = Tensor.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(Tensor, "__init__", recording_init)
        for cfg, params in runs:
            certify_tasks(params, cfg, [tasks[0]], CertifyProtocol(0.05, n_mc=4), Rng(0))
            certify_tasks(params, cfg, tasks, CertifyProtocol(0.05, n_mc=4), Rng(0))
            metalearn._validation_error(params, cfg, TrainProtocol(support_size=20),
                                        tasks, Rng(3))
            assert all(not t.requires_grad and t._parents == () and t._backward is None
                       for t in built), cfg.architecture
            assert all(t.grad is None for t in params.values()), cfg.architecture
            built.clear()

    def test_evaluation_wraps_each_parameter_once(self, monkeypatch):
        # a certify_tasks call and a validation pass each wrap every parameter
        # as a constant once, however many chunks they decode
        runs = []
        for arch, c, b in ARCHS:
            cfg = HypernetConfig(arch, c=c, b=b, **SMALL)
            runs.append((cfg, init_hypernet_params(cfg, Rng(6).split(0))))
        tasks = [self.task(seed, m=40) for seed in (7, 8, 9)]
        monkeypatch.setattr(metalearn, "_chunk_size", lambda params, set_size, n_rows: 2)
        owner = {id(t.data): name for _, params in runs for name, t in params.items()}
        wraps = collections.Counter()
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if id(self.data) in owner:
                wraps[owner[id(self.data)]] += 1

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        for cfg, params in runs:
            once = collections.Counter(params.keys())
            certify_tasks(params, cfg, tasks, CertifyProtocol(0.05, n_mc=4), Rng(0))
            assert wraps == once, cfg.architecture
            wraps.clear()
            metalearn._validation_error(params, cfg, TrainProtocol(support_size=20),
                                        tasks, Rng(3))
            assert wraps == once, cfg.architecture
            wraps.clear()


class TestStackedCertification:
    """``certify_tasks`` decodes ``[mu; draws; omega]`` in one stacked decode;
    each certificate equals the separate decode it replaces, bit for bit.
    Task seed 8 makes two of the three heads collide."""

    N_MC = 6

    @staticmethod
    def make(arch, c):
        cfg = HypernetConfig(arch, c=c, b=3, **{**SMALL, "mlp1": (12,), "mlp2": (10,)})
        return cfg, init_hypernet_params(cfg, Rng(1).split(0))

    @pytest.mark.parametrize("arch, c", [("PBH", 0), ("PBSCH", 3)])
    @pytest.mark.parametrize("kind", ["zero_one", "linear"])
    def test_certificates_equal_separate_decodes(self, arch, c, kind):
        cfg, params = self.make(arch, c)
        collided = False
        for seed in (5, 8):
            task = TestForwardOnlyEvaluation.task(seed)
            rng = Rng(30, (seed,))
            row = certify_tasks(params, cfg, [task],
                                CertifyProtocol(0.05, n_mc=self.N_MC, loss_kind=kind), rng)[0]
            rng = rng.split(task.task_id)  # the task's own stream
            art, _, _ = encode(params, cfg, task.features, task.labels)
            collided |= art.c_effective < c
            mean, stderr = mc_expected_loss(params, cfg, task, art, self.N_MC,
                                            rng.split(1), kind)
            entry = row.certificates[0]
            assert (entry.emp_loss, entry.mc_stderr) == (mean, stderr), seed

            gammas, = decode_gamma(params, cfg, task.features[None], task.labels[None],
                                   [art.indices], art.message[None, None])
            logits, labels = metalearn._complement_logits(cfg, task, art.indices, gammas)
            assert row.emp_complement_01 == ad.zero_one_loss(logits[0], labels)
            assert row.emp_complement_linear == ad.linear_loss(logits[0], labels)

            if arch == "PBSCH":
                omega = art.message + rng.split(2).normal(cfg.b)
                gammas, = decode_gamma(params, cfg, task.features[None], task.labels[None],
                                       [art.indices], omega[None, None])
                logits, labels = metalearn._complement_logits(cfg, task, art.indices, gammas)
                star = row.certificates[1]
                assert star.kind == "PBSCH_DISINTEGRATED"
                assert star.emp_loss == ad.row_losses(logits, labels, kind)[0], seed
                assert np.array_equal(row.sampled_message, omega)
            else:
                assert row.sampled_message is None
        assert collided == (c > 0)

    @pytest.mark.parametrize("arch, c, b", ARCHS)
    @pytest.mark.parametrize("kind", ["zero_one", "linear"])
    def test_chunked_rows_equal_per_task_rows(self, monkeypatch, arch, c, b, kind):
        # chunks of 2 over 5 tasks, one of them (seed 8) with collided heads
        cfg = HypernetConfig(arch, c=c, b=b, **{**SMALL, "mlp1": (12,), "mlp2": (10,)})
        params = init_hypernet_params(cfg, Rng(1).split(0))
        tasks = [TaskDataset(t.features, t.labels, task_id=20 + i) for i, t in enumerate(
            TestForwardOnlyEvaluation.task(seed) for seed in (5, 8, 9, 12, 13))]
        protocol = CertifyProtocol(0.05, n_mc=self.N_MC, loss_kind=kind)
        monkeypatch.setattr(metalearn, "_chunk_size", lambda params, set_size, n_rows: 2)
        rows = certify_tasks(params, cfg, tasks, protocol, Rng(30))
        assert any(row.c_effective < c for row in rows) == (c > 0)
        for task, row in zip(tasks, rows):
            ref = certify_tasks(params, cfg, [task], protocol, Rng(30))[0]
            assert row.task_id == task.task_id
            assert ((row.m_prime, row.c_effective, row.indices, row.emp_complement_01,
                     row.emp_complement_linear, row.test_query_error, row.certificates)
                    == (ref.m_prime, ref.c_effective, ref.indices, ref.emp_complement_01,
                        ref.emp_complement_linear, ref.test_query_error, ref.certificates))
            assert (row.sampled_message is None) == (ref.sampled_message is None)
            assert (row.sampled_message is None
                    or np.array_equal(row.sampled_message, ref.sampled_message))

    def test_chunk_size_follows_the_byte_budget(self):
        # the benchmark shapes: widest layer 100, 200 examples, n_mc = 100
        cfg = HypernetConfig("PBSCH", c=2, b=4)
        params = init_hypernet_params(cfg, Rng(0))
        assert metalearn._chunk_size(params, 200, 102) == (
            metalearn.CHUNK_BYTES // (8 * 100 * 302)) == 8
        assert metalearn._chunk_size(params, 200, 10002) == 1  # never below one task

    # measured peaks at 2 MiB: 1.01 x CHUNK_BYTES for 8 PBSCH tasks at
    # n_mc = 100, 1.62 x for 13 SCH_PLUS tasks
    @pytest.mark.parametrize("arch, c, peak_share", [("PBSCH", 2, 1.1), ("SCH_PLUS", 3, 1.75)])
    def test_chunk_budget_bounds_the_decode_memory(self, arch, c, peak_share):
        # the benchmark shapes: widest layer 100, 200 examples, b = 4, n_mc = 100
        cfg = HypernetConfig(arch, c=c, b=4)
        params = init_hypernet_params(cfg, Rng(0))
        protocol = CertifyProtocol(0.05, n_mc=100)
        size = metalearn._chunk_size(params, 200, metalearn._message_rows(cfg, protocol))
        spec = MoonsEnvironmentSpec(n_test_tasks=size, examples_per_task=200, master_seed=3)
        tasks = [gen_moons_tasks(spec, [i])[0] for i in range(size)]
        rngs = [Rng(5).split(i) for i in range(size)]
        params = _constants(params)  # as certify_tasks passes them
        metalearn._decode_chunk(params, cfg, tasks, protocol, rngs)  # warm the caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            metalearn._decode_chunk(params, cfg, tasks, protocol, rngs)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= peak_share * metalearn.CHUNK_BYTES, (size, peak)

    @pytest.mark.parametrize("arch, c, b", ARCHS)
    def test_message_rows_count_the_message_stack(self, arch, c, b):
        cfg = HypernetConfig(arch, c=c, b=b, **SMALL)
        sigma = np.linspace(-0.5, 0.5, b) if cfg.has_message else None
        for n_mc in (1, 4):
            protocol = CertifyProtocol(0.05, n_mc=n_mc)
            stack, _ = metalearn._message_stack(cfg, protocol, sigma, Rng(2))
            rows = 1 if stack is None else len(stack)
            assert rows == metalearn._message_rows(cfg, protocol), (arch, n_mc)

    def test_each_task_is_certified_by_certify_task(self, monkeypatch):
        # the chunks decode; ``certify_task`` then certifies each task from its
        # share, under its own stream
        cfg, params = self.make("PBSCH", 3)
        tasks = [TaskDataset(t.features, t.labels, task_id=40 + i) for i, t in enumerate(
            TestForwardOnlyEvaluation.task(seed) for seed in (5, 8, 9))]
        calls = []
        real = metalearn.certify_task

        def spy(cfg, task, protocol, decoded, certificates):
            calls.append((task.task_id, decoded is not None))
            return real(cfg, task, protocol, decoded, certificates)

        monkeypatch.setattr(metalearn, "_chunk_size", lambda params, set_size, n_rows: 2)
        monkeypatch.setattr(metalearn, "certify_task", spy)
        certify_tasks(params, cfg, tasks, CertifyProtocol(0.05, n_mc=self.N_MC), Rng(30))
        assert calls == [(40, True), (41, True), (42, True)]

    @staticmethod
    def with_copies(seeds=(5, 8, 9), copies=2):
        """The tasks of ``seeds`` (seed 8 collides heads), each followed by
        ``copies`` copies under new task ids, so every certificate input
        repeats."""
        tasks = [TestForwardOnlyEvaluation.task(seed) for seed in seeds]
        return [TaskDataset(task.features, task.labels, task_id=50 + 10 * i + k)
                for i, task in enumerate(tasks) for k in range(1 + copies)]

    @pytest.mark.parametrize("arch, b", [("SCH_MINUS", 0), ("SCH_PLUS", 3)])
    def test_repeated_certificates_equal_lone_certificates(self, monkeypatch, arch, b):
        cfg = HypernetConfig(arch, c=3, b=b, **{**SMALL, "mlp1": (12,), "mlp2": (10,)})
        params = init_hypernet_params(cfg, Rng(1).split(0))
        tasks = self.with_copies()
        protocol = CertifyProtocol(0.05)
        # chunks of 4, so some copies are certified in a later chunk than their original
        monkeypatch.setattr(metalearn, "_chunk_size", lambda params, set_size, n_rows: 4)
        rows = certify_tasks(params, cfg, tasks, protocol, Rng(30))
        assert any(row.c_effective < 3 for row in rows)
        for task, row in zip(tasks, rows):
            ref = certify_tasks(params, cfg, [task], protocol, Rng(30))[0]
            assert row.task_id == task.task_id
            assert ((row.c_effective, row.indices, row.emp_complement_01,
                     row.emp_complement_linear, row.test_query_error, row.certificates)
                    == (ref.c_effective, ref.indices, ref.emp_complement_01,
                        ref.emp_complement_linear, ref.test_query_error, ref.certificates))
        # a copy shares its original's certificate objects
        for first, copy in zip(rows[::3], rows[1::3]):
            assert all(a.certificate is b.certificate
                       for a, b in zip(first.certificates, copy.certificates))

    @pytest.mark.parametrize("arch, b", [("SCH_MINUS", 0), ("SCH_PLUS", 3)])
    def test_each_distinct_binomial_problem_is_inverted_once_per_call(self, monkeypatch,
                                                                      arch, b):
        cfg = HypernetConfig(arch, c=3, b=b, **{**SMALL, "mlp1": (12,), "mlp2": (10,)})
        params = init_hypernet_params(cfg, Rng(1).split(0))
        tasks = self.with_copies()
        protocol = CertifyProtocol(0.05)
        calls = []
        real = bounds.binomial_tail_inverse

        def spy(n, K, log_delta_prime):
            calls.append((n, K, log_delta_prime))
            return real(n, K, log_delta_prime)

        monkeypatch.setattr(bounds, "binomial_tail_inverse", spy)
        for task in tasks:
            certify_tasks(params, cfg, [task], protocol, Rng(30))
        assert len(calls) == len(tasks)  # one inversion per task: its tau*
        distinct = set(calls)
        assert len(distinct) < len(tasks)
        calls.clear()
        certify_tasks(params, cfg, tasks, protocol, Rng(30))
        first = list(calls)
        assert len(first) == len(distinct) and set(first) == distinct
        # nothing survives the call: a second call inverts the same problems again
        calls.clear()
        certify_tasks(params, cfg, tasks, protocol, Rng(30))
        assert calls == first

    @pytest.mark.parametrize("arch, c, b", [("SCH_MINUS", 3, 0), ("SCH_PLUS", 3, 3),
                                             ("PBSCH", 3, 3)])
    def test_each_distinct_certificate_is_inverted_once(self, monkeypatch, arch, c, b):
        # a certify command reads only tau_star: one inversion of the total
        # budget per distinct certificate, the breakdown's partial sums never
        cfg = HypernetConfig(arch, c=c, b=b, **{**SMALL, "mlp1": (12,), "mlp2": (10,)})
        params = init_hypernet_params(cfg, Rng(1).split(0))
        tasks = self.with_copies()
        kl_calls, tail_calls = [], []
        real_kl, real_tail = bounds.kl_inverse, bounds.binomial_tail_inverse

        def spy_kl(q, budget):
            kl_calls.append((q, budget))
            return real_kl(q, budget)

        def spy_tail(n, K, log_delta_prime):
            tail_calls.append(log_delta_prime)
            return real_tail(n, K, log_delta_prime)

        monkeypatch.setattr(bounds, "kl_inverse", spy_kl)
        monkeypatch.setattr(bounds, "binomial_tail_inverse", spy_tail)
        rows = certify_tasks(params, cfg, tasks, CertifyProtocol(0.05, n_mc=self.N_MC), Rng(30))
        certificates = [entry.certificate for row in rows for entry in row.certificates]
        distinct = {id(cert): cert for cert in certificates}.values()
        if not cfg.has_gaussian_message:  # a PBSCH copy draws its own messages
            assert len(distinct) < len(certificates)  # copies share certificates
        assert len(tail_calls) == sum(cert.kind == "SCH_BINARY" for cert in distinct)
        assert len(kl_calls) == sum(cert.kind != "SCH_BINARY" for cert in distinct)
        assert not any("breakdown" in vars(cert) for cert in distinct)
        # read later, through any entry that shares it, a breakdown is the
        # three cumulative sums inverted one by one, and is computed once
        for cert in distinct:
            cumulative = list(itertools.accumulate(cert.terms))
            if cert.kind == "SCH_BINARY":
                taus = [real_tail(cert.n, cert.K, -nats) for nats in cumulative]
            else:
                taus = [real_kl(cert.q, nats / cert.n) for nats in cumulative]
            assert [tau for _, _, tau in cert.breakdown[1:]] == taus
            assert repr(taus[-1]) == repr(cert.tau_star)
        for cert in certificates:
            assert cert.breakdown is vars(cert)["breakdown"]

    def test_chunked_validation_error_equals_one_chunk(self, monkeypatch):
        cfg, params = self.make("SCH_PLUS", 3)
        tasks = [TestForwardOnlyEvaluation.task(seed) for seed in (5, 8, 9, 12, 13)]
        protocol = TrainProtocol(support_size=17)
        whole = metalearn._validation_error(params, cfg, protocol, tasks, Rng(3))
        monkeypatch.setattr(metalearn, "_chunk_size", lambda params, set_size, n_rows: 2)
        assert metalearn._validation_error(params, cfg, protocol, tasks, Rng(3)) == whole

    def test_validation_error_over_mixed_task_sizes(self):
        # query sets of 13 and 23 examples: each size is scored in its own stack
        cfg, params = self.make("SCH_PLUS", 3)
        tasks = [TestForwardOnlyEvaluation.task(seed, m) for seed, m in
                 ((5, 30), (8, 40), (9, 30), (12, 40), (13, 30))]
        errors = [ad.zero_one_loss(*metalearn._query_logits(params, cfg, [task], 17,
                                                            [Rng(3).split(pos)])[0])
                  for pos, task in enumerate(tasks)]
        assert metalearn._validation_error(params, cfg, TrainProtocol(support_size=17), tasks,
                                           Rng(3)) == float(np.mean(errors))

    def test_one_encode_and_one_decode_per_task(self, monkeypatch):
        # the certificate decode gets every message of every task at once; the
        # other encode/decode pair is the support/query test error
        calls = []
        real_encode, real_decode = metalearn.encode, metalearn.decode_gamma

        def spy_encode(params, cfg, features, labels):
            calls.append(("encode", len(features), None))
            return real_encode(params, cfg, features, labels)

        def spy_decode(params, cfg, features, labels, indices, messages):
            calls.append(("decode", len(features),
                          None if messages is None else messages.shape[1]))
            return real_decode(params, cfg, features, labels, indices, messages)

        monkeypatch.setattr(metalearn, "encode", spy_encode)
        monkeypatch.setattr(metalearn, "decode_gamma", spy_decode)
        tasks = [TestForwardOnlyEvaluation.task(seed, m=40) for seed in (7, 8, 9)]
        for (arch, c, b), rows in zip(ARCHS, (5, None, 1, 6)):
            cfg = HypernetConfig(arch, c=c, b=b, **SMALL)
            params = init_hypernet_params(cfg, Rng(6).split(0))
            calls.clear()
            certify_tasks(params, cfg, [tasks[0]], CertifyProtocol(0.05, n_mc=4), Rng(0))
            assert [name for name, _, _ in calls] == ["encode", "decode"] * 2, arch
            assert calls[1] == ("decode", 1, rows), arch
            calls.clear()
            certify_tasks(params, cfg, tasks, CertifyProtocol(0.05, n_mc=4), Rng(0))
            assert [(name, n) for name, n, _ in calls] == [("encode", 3), ("decode", 3)] * 2
            assert calls[1] == ("decode", 3, rows), arch


class TestSweep:
    def test_single_point_grid_returns_that_point(self):
        meta = micro_meta(n_train=4, m=30)
        protocol = TrainProtocol(support_size=10, max_epochs=2, patience=2)
        grid = {"learning_rate": [1e-3], "mlp1": [(8,)], "mlp2": [(8,)],
                "mlp3": [(4,)], "c": [2], "b": [0]}
        best, rows = sweep(meta.train, meta.val, {"architecture": "SCH_MINUS"}, protocol, Rng(3),
                           grid=grid)
        assert len(rows) == 1 and best is rows[0]
        assert best.c == 2 and best.skipped is None

    def test_invalid_combinations_skipped_and_logged(self):
        meta = micro_meta(n_train=4, m=30)
        protocol = TrainProtocol(support_size=10, max_epochs=2, patience=2)
        grid = {"learning_rate": [1e-3], "mlp1": [(8,)], "mlp2": [(8,)],
                "mlp3": [(4,)], "c": [0, 2], "b": [0]}
        messages = []
        best, rows = sweep(meta.train, meta.val, {"architecture": "SCH_MINUS"}, protocol, Rng(3),
                           grid=grid, log_fn=messages.append)
        assert len(rows) == 2
        skipped = [r for r in rows if r.skipped]
        assert len(skipped) == 1 and skipped[0].c == 0  # SCH- needs c >= 1
        assert any("skip" in m for m in messages)
        assert best.c == 2

    def test_tie_breaks_toward_smaller_bottleneck(self):
        from metacert.metalearn import SweepRow, select_best
        rows = [SweepRow(1e-3, (8,), (8,), (4,), c, b, val_error, 0)
                for c, b, val_error in ((4, 2, 0.25), (1, 2, 0.25), (1, 1, 0.25),
                                        (2, 1, 0.25), (8, 8, 0.30))]
        rows.append(SweepRow(1e-3, (8,), (8,), (4,), 0, 1, None, None,
                             skipped="invalid"))
        best = select_best(rows)
        assert (best.c, best.b) == (1, 1)
        assert select_best([rows[-1]]) is None
