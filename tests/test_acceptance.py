"""Acceptance suite: one test per criterion, each printing a PASS line.

Every oracle in this module is implemented independently of the package:
closed forms via math, root finding via scipy.optimize.brentq on an inline
kl, exact integer arithmetic for binomial CDF comparisons, and exact
big-integer binomial coefficients via math.comb.

The end-to-end criteria train real models; the whole module runs in a few
minutes on one core.
"""

import csv
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize

from metacert import autodiff as ad
from metacert import bounds
from metacert.autodiff import Tensor
from metacert.cli import main as cli_main
from metacert.hypernet import (HypernetConfig, decode_gamma, downstream_forward,
                               downstream_shapes, hypernet_forward,
                               init_hypernet_params)
from metacert.metalearn import CertifyProtocol, TrainProtocol, certify_tasks, meta_train
from metacert.rng import Rng, STREAM_CERTIFY, STREAM_TRAIN
from metacert.tasks import MoonsEnvironmentSpec, gen_meta_dataset, gen_moons_tasks

import reference_ops as ref

ACCEPT_SEED = 20240801


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: bound-engine oracle equivalence (>= 1000 randomized cases each)


def oracle_kl_inverse(q: float, budget: float) -> float:
    """Root of kl(q, .) = budget on [q, 1], via brentq on an inline kl."""
    def kl(tau):
        left = 0.0 if q == 0.0 else q * math.log(q / tau)
        right = 0.0 if q == 1.0 else (1 - q) * math.log((1 - q) / (1 - tau))
        return left + right

    if budget == 0.0 or q == 1.0:
        return q
    hi = 1.0 - 1e-14
    if kl(hi) <= budget:
        return hi
    return optimize.brentq(lambda t: kl(t) - budget, q, hi, xtol=1e-12)


def oracle_binomial_tail_inverse(n: int, K: int, log_dp: float) -> float:
    """Bisection against the exact-rational binomial CDF (integer arithmetic)."""
    if K >= n:
        return 1.0
    dp = Fraction(math.exp(log_dp))
    lo, hi = 0.0, 1.0
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        r = Fraction(mid)
        p, q = r.numerator, r.denominator
        # CDF >= dp  <=>  sum C(n,k) p^k (q-p)^(n-k) * dp.den >= dp.num * q^n
        lhs = sum(math.comb(n, k) * p ** k * (q - p) ** (n - k) for k in range(K + 1))
        if lhs * dp.denominator >= dp.numerator * q ** n:
            lo = mid
        else:
            hi = mid
    return lo


def test_criterion_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = {"kl_inverse": 0.0, "binomial_tail": 0.0, "log_binomial": 0.0}

    for _ in range(1000):
        q = float(rng.uniform(0.0, 0.8))
        budget = float(rng.uniform(0.0, 5.0))
        got = bounds.kl_inverse(q, budget)
        want = oracle_kl_inverse(q, budget)
        worst["kl_inverse"] = max(worst["kl_inverse"], abs(got - want))
    # closed-form edges
    for b in (0.0, 1e-6, 0.05, 2.0, 10.0):
        worst["kl_inverse"] = max(worst["kl_inverse"],
                                  abs(bounds.kl_inverse(0.0, b) - (1 - math.exp(-b))))
    assert bounds.kl_inverse(1.0, 3.0) == 1.0

    for _ in range(1000):
        n = int(rng.integers(1, 31))
        K = int(rng.integers(0, n + 1))
        log_dp = -float(rng.uniform(0.05, 30.0))
        got = bounds.binomial_tail_inverse(n, K, log_dp)
        want = oracle_binomial_tail_inverse(n, K, log_dp)
        worst["binomial_tail"] = max(worst["binomial_tail"], abs(got - want))

    for _ in range(1000):
        n = int(rng.integers(0, 2001))
        k = int(rng.integers(0, n + 1)) if n else 0
        got = bounds.log_binomial(n, k)
        want = math.log(math.comb(n, k)) if math.comb(n, k) > 1 else 0.0
        scale = max(1.0, abs(want))
        worst["log_binomial"] = max(worst["log_binomial"], abs(got - want) / scale)
    for n, k in ((10 ** 6, 1), (10 ** 6, 17), (10 ** 6, 200)):
        got, want = bounds.log_binomial(n, k), math.log(math.comb(n, k))
        worst["log_binomial"] = max(worst["log_binomial"], abs(got - want) / want)

    ok = all(err <= 1e-7 for err in worst.values())
    report("bound-oracle-equivalence", ok,
           ", ".join(f"{k} max err {v:.2e}" for k, v in worst.items()))


# ---------------------------------------------------------------------------
# criterion 2: the five worked certificates


def test_criterion_worked_certificates():
    lnC = math.log(math.comb(2000, 8))  # exact big-integer oracle
    cases = [
        ("PB m'=100",
         bounds.bound_pb(bounds.BoundBudget(100, delta=0.05)).tau_star,
         1 - math.exp(-math.log(2 * math.sqrt(100) / 0.05) / 100), 0.058155),
        ("SCH_REAL m'=2000 c=8",
         bounds.bound_sch_real(bounds.BoundBudget(2000, c=8, delta=0.05)).tau_star,
         1 - math.exp(-(lnC + math.log(2) + 0.5 * math.log(1992)
                        + math.log(20)) / 1992), 0.028539),
        ("SCH_BINARY m'=2000 c=8 K=0",
         bounds.bound_sch_binary(bounds.BoundBudget(2000, c=8, delta=0.05), 0).tau_star,
         1 - math.exp((math.log(0.05) - lnC) / 1992), 0.02635),
        ("PBSCH m'=2000 c=0",
         bounds.bound_pbsch(bounds.BoundBudget(2000, delta=0.05)).tau_star,
         1 - math.exp(-math.log(2 * math.sqrt(2000) / 0.05) / 2000), 0.003742),
        ("PBSCH_DISINTEGRATED m'=2000 c=0",
         bounds.bound_pbsch_disintegrated(bounds.BoundBudget(2000, delta=0.05)).tau_star,
         1 - math.exp(-math.log(16 * math.sqrt(2000) / 0.05 ** 3) / 2000), 0.007750),
    ]
    details = []
    ok = True
    for name, got, oracle, quoted in cases:
        ok &= abs(got - oracle) <= 1e-8      # implementation vs closed form
        ok &= abs(got - quoted) <= 1e-5      # regression against quoted values
        details.append(f"{name}: {got:.6f}")
    report("worked-certificates", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 3: train-set vs complement-set bound comparison


def test_criterion_trainset_comparison(capsys):
    def run(kl):
        code = cli_main(["compare-bounds", "--m", "10000", "--comp-size", "2000",
                         "--kl", str(kl), "--delta", "0.01", "--grid", "101"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        return [(float(l.split(",")[0]), float(l.split(",")[3])) for l in lines]

    rows = run(100)
    gaps = np.array([g for _, g in rows])
    vals = np.array([v for v, _ in rows])
    # analytic oracle, evaluated from the formulas directly
    log_conf = math.log(2 * math.sqrt(8000) / 0.01)
    sq = math.sqrt((100 + 2 * 8000 * 2000 / 10000 + log_conf) / 16000)
    klb = math.sqrt((100 + log_conf) / 8000 / 2)
    oracle = (sq - klb) - 0.2 * vals
    ok = bool(np.all(gaps > 0.0))
    ok &= abs(gaps[0] - 0.372) <= 5e-3 and abs(gaps[-1] - 0.172) <= 5e-3
    ok &= float(np.max(np.abs(gaps - oracle))) <= 1e-9     # affine, slope -0.2
    ok &= bool(np.all(np.diff(gaps) < 0.0))                # strictly decreasing

    rows = run(10000)
    signs = [(a, b) for a, b in zip(rows, rows[1:]) if a[1] > 0 >= b[1]]
    ok &= len(signs) == 1 and 0.55 <= signs[0][1][0] <= 0.65
    report("trainset-bound-comparison", ok,
           f"KL=100 gap {gaps[0]:.4f}->{gaps[-1]:.4f}, "
           f"KL=10000 crossing at {signs[0][1][0]:.2f}")


# ---------------------------------------------------------------------------
# criteria 4 & 5: moons end-to-end and certificate statistical validity


@pytest.fixture(scope="module")
def moons_environment():
    spec = MoonsEnvironmentSpec(master_seed=ACCEPT_SEED)
    return spec, gen_meta_dataset(spec)


@pytest.fixture(scope="module")
def trained_sch(moons_environment):
    spec, meta = moons_environment
    cfg = HypernetConfig("SCH_MINUS", c=3, b=0)
    protocol = TrainProtocol(support_size=spec.examples_per_task // 2)
    params, log = meta_train(meta.train, meta.val, cfg, protocol,
                             Rng(ACCEPT_SEED).split(STREAM_TRAIN))
    return cfg, params, log


def test_criterion_moons_end_to_end(moons_environment, trained_sch):
    spec, meta = moons_environment
    cfg, params, log = trained_sch
    rng = Rng(ACCEPT_SEED).split(STREAM_CERTIFY)
    errors = [certify_tasks(params, cfg, [task], CertifyProtocol(0.05), rng)[0].test_query_error
              for task in meta.test]
    mean_err = float(np.mean(errors))
    report("moons-end-to-end", mean_err <= 0.15,
           f"mean test 0-1 error {mean_err:.4f} over {len(errors)} tasks, "
           f"best val {log.best_val_error:.4f} at epoch {log.best_epoch}")


def _fresh_eval_set(spec, task_id, repeats=5):
    parts = [gen_moons_tasks(spec, [task_id], noise_repeat=r)[0] for r in range(1, repeats + 1)]
    return (np.vstack([p.features for p in parts]),
            np.concatenate([p.labels for p in parts]))


def _gamma_loss(params, cfg, task, indices, message, x, y, kind):
    gammas, = decode_gamma(params, cfg, task.features[None], task.labels[None], [indices],
                           None if message is None else message[None, None])
    logits = downstream_forward(ad.constant(gammas[:1]),
                                downstream_shapes(cfg.input_dim, cfg.mlp3), ad.constant(x))
    if kind == "zero_one":
        return ad.zero_one_loss(logits.data, y)
    return ad.linear_loss(logits.data, y)


def _violations_for_model(spec, cfg, params, task_ids, delta, rng):
    """Per certificate kind: count of tasks whose fresh-sample loss of the
    certified quantity exceeds tau*."""
    counts: dict[str, int] = {}
    totals: dict[str, int] = {}
    for tid in task_ids:
        task = gen_moons_tasks(spec, [tid])[0]
        row = certify_tasks(params, cfg, [task], CertifyProtocol(delta, n_mc=100), rng)[0]
        fresh_x, fresh_y = _fresh_eval_set(spec, tid)
        for entry in row.certificates:
            fresh = None
            if entry.kind in ("SCH_BINARY", "SCH_REAL"):
                kind = "zero_one" if entry.kind == "SCH_BINARY" else "linear"
                fresh = _gamma_loss(params, cfg, task, row.indices,
                                    row.sampled_message, fresh_x, fresh_y, kind)
            elif entry.kind in ("PB", "PBSCH"):
                # expectation certificate: fresh MC estimate over the posterior
                _, artifacts = hypernet_forward(params, cfg, task.features,
                                                task.labels, eps=np.zeros(cfg.b))
                draws = []
                draw_rng = rng.split(tid, 1)
                for _ in range(100):
                    omega = artifacts.message + draw_rng.normal(cfg.b)
                    draws.append(_gamma_loss(params, cfg, task, row.indices, omega,
                                             fresh_x, fresh_y, entry.emp_loss_kind))
                fresh = float(np.mean(draws))
            elif entry.kind == "PBSCH_DISINTEGRATED":
                fresh = _gamma_loss(params, cfg, task, row.indices,
                                    row.sampled_message, fresh_x, fresh_y,
                                    entry.emp_loss_kind)
            totals[entry.kind] = totals.get(entry.kind, 0) + 1
            if fresh > entry.tau_star:
                counts[entry.kind] = counts.get(entry.kind, 0) + 1
    return {k: counts.get(k, 0) / totals[k] for k in totals}


def test_criterion_statistical_validity(moons_environment, trained_sch):
    spec, _ = moons_environment
    delta = 0.05
    n_tasks = 200
    threshold = delta + 3 * math.sqrt(delta * (1 - delta) / n_tasks)
    fresh_ids = [50_000 + i for i in range(n_tasks)]
    rates = {}

    cfg, params, _ = trained_sch
    rates.update(_violations_for_model(spec, cfg, params, fresh_ids, delta,
                                       Rng(ACCEPT_SEED).split(5)))

    # certificates are valid for any trained parameters, so the Gaussian
    # message architectures use cheaply trained models
    quick_spec = MoonsEnvironmentSpec(n_train_tasks=20, n_test_tasks=2,
                                      master_seed=ACCEPT_SEED + 1)
    quick_meta = gen_meta_dataset(quick_spec)
    quick_protocol = TrainProtocol(support_size=100, max_epochs=5, patience=5)
    for arch, c, b in (("PBH", 0, 4), ("PBSCH", 2, 4)):
        cfg_g = HypernetConfig(arch, c=c, b=b)
        params_g, _ = meta_train(quick_meta.train, quick_meta.val, cfg_g,
                                 quick_protocol, Rng(ACCEPT_SEED + 2).split(0))
        rates.update(_violations_for_model(quick_spec, cfg_g, params_g, fresh_ids,
                                           delta, Rng(ACCEPT_SEED).split(6)))

    expected_kinds = {"SCH_BINARY", "SCH_REAL", "PB", "PBSCH", "PBSCH_DISINTEGRATED"}
    ok = set(rates) == expected_kinds and all(r <= threshold for r in rates.values())
    report("certificate-statistical-validity", ok,
           f"violation rates over {n_tasks} fresh tasks (bar {threshold:.3f}): "
           + ", ".join(f"{k}={v:.3f}" for k, v in sorted(rates.items())))


# ---------------------------------------------------------------------------
# criterion 6: gradient integrity


def _fd_grad(fn, x, h=1e-5):
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = fn()
        flat[i] = keep - h
        down = fn()
        flat[i] = keep
        gf[i] = (up - down) / (2 * h)
    return g


def _max_rel_err(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return float((np.abs(analytic - numeric) / denom).max())


def test_criterion_gradient_integrity():
    worst_op = 0.0
    rng = Rng(123)

    # elementwise / structural ops, each FD-checked through a scalar head
    col = np.array([[0.7], [-0.2], [1.4]])
    op_cases = [
        ("matmul", lambda a: ref.matmul(a, ad.constant(np.array([[1.0, -2.0], [0.5, 3.0]]))), (3, 2)),
        ("add", lambda a: ad.add(a, ad.constant(np.arange(6.).reshape(2, 3))), (2, 3)),
        ("sub", lambda a: ref.sub(a, ad.constant(np.ones((2, 3)))), (2, 3)),
        ("mul_scalar", lambda a: ref.mul_scalar(a, -1.7), (2, 3)),
        ("mul_elem", lambda a: ref.mul_elem(a, np.arange(1.0, 7.0).reshape(2, 3)), (2, 3)),
        ("mul", lambda a: ad.mul(a, ad.constant(np.arange(1.0, 7.0).reshape(2, 3))), (2, 3)),
        ("power_scalar", lambda a: ad.power_scalar(ad.add(ad.mul(a, a),
         ad.constant(np.full((2, 3), 0.3))), -0.5), (2, 3)),
        ("mean", lambda a: a, (3, 3)),
        ("concat", lambda a: ad.concat([a, ad.constant(np.ones((2, 3)))], axis=0), (2, 3)),
        ("transpose", lambda a: ref.transpose(a), (2, 4)),
        ("reshape", lambda a: ref.reshape(a, (3, 2)), (2, 3)),
        ("slice_cols", lambda a: ad.slice_cols(a, 1, 3), (2, 4)),
        ("tanh", ad.tanh, (3, 3)),
        ("dense_relu", lambda a: ad.dense(a, ad.constant(np.array([[1.0, -2.0, 0.4],
         [0.5, 3.0, -1.1]])), ad.constant(np.array([[0.2, -0.3, 0.1]])), relu=True), (4, 2)),
        ("dense_linear", lambda a: ad.dense(ad.constant(np.arange(8.).reshape(4, 2) - 3.5),
         ad.constant(np.array([[1.0, -2.0, 0.4], [0.5, 3.0, -1.1]])), a, relu=False), (1, 3)),
        ("softmax", lambda a: ref.mul_elem(ref.softmax(a, axis=0), np.arange(9.).reshape(3, 3)), (3, 3)),
        ("sign_st_soft", lambda a: ad.sign_st(a, soft=True), (3, 2)),
        ("hard_select_st_soft",
         lambda a: ref.hard_select_st(ref.softmax(a, axis=0), ad.constant(np.array(
             [[1.0, -2.0], [0.3, 0.8], [2.0, 0.1]])), soft=True), (3, 1)),
        ("bce", lambda a: ad.binary_cross_entropy(a, np.array([1.0, -1.0, 1.0])), (3, 1)),
        ("attention_select_soft", lambda a: ad.attention_select(
            ad.constant(np.array([[0.6, -1.2]])), a,
            [(ad.constant(np.array([[1.0, -0.5], [0.3, 0.8]])), ad.constant(np.zeros((1, 2)))),
             (ad.constant(np.array([[-0.7, 0.2], [1.1, 0.4]])), ad.constant(np.ones((1, 2))))],
            np.array([[1.0, -2.0], [0.3, 0.8], [2.0, 0.1], [-0.5, 1.5]]), 0.9,
            soft=True)[1], (4, 2)),
    ]
    for name, build, shape in op_cases:
        x = rng.normal(shape)
        t = Tensor(x, requires_grad=True)
        out = build(t)
        loss = out if out.data.size == 1 else ref.mean(ad.tanh(out))
        loss.backward()

        def f(tt=x, b=build):
            o = b(Tensor(tt))
            return o.item() if o.data.size == 1 else ref.mean(ad.tanh(o)).item()

        worst_op = max(worst_op, _max_rel_err(t.grad, _fd_grad(f, x)))

    # three random composite hypernetwork graphs (soft surrogate twins),
    # finite differences over every parameter
    small = dict(mlp1=(6,), mlp2=(5,), mlp3=(3,), deepset_dim=4, attention_dim=4)
    worst_net = 0.0
    total_params = []
    for i, (arch, c, b) in enumerate((("PBH", 0, 2), ("SCH_PLUS", 2, 2),
                                      ("PBSCH", 2, 2))):
        cfg = HypernetConfig(arch, c=c, b=b, **small)
        params = init_hypernet_params(cfg, Rng(200 + i).split(0))
        total_params.append(sum(t.data.size for t in params.values()))
        task = gen_moons_tasks(MoonsEnvironmentSpec(examples_per_task=18,
                                                    master_seed=300 + i), [0])[0]
        sup_x, sup_y = task.features[:10], task.labels[:10]
        qry_x, qry_y = task.features[10:], task.labels[10:]
        eps = Rng(400 + i).normal(b) if b else None

        def loss_value():
            gamma, art = hypernet_forward(params, cfg, sup_x, sup_y, eps=eps,
                                          soft=True)
            logits = downstream_forward(gamma, cfg.mlp3_shapes, ad.constant(qry_x))
            return ad.binary_cross_entropy(logits, qry_y)

        loss_value().backward()
        for name, tensor in params.items():
            analytic = np.zeros_like(tensor.data) if tensor.grad is None else tensor.grad
            numeric = _fd_grad(lambda: loss_value().item(), tensor.data)
            worst_net = max(worst_net, _max_rel_err(analytic, numeric))

    ok = worst_op < 1e-4 and worst_net < 1e-4 and all(n <= 500 for n in total_params)
    report("gradient-integrity", ok,
           f"max op rel err {worst_op:.2e}, max composite rel err {worst_net:.2e}, "
           f"graph sizes {total_params}")


# ---------------------------------------------------------------------------
# criterion 7: pipeline determinism


DETERMINISM_CONFIG = """\
output_dir = {out}
master_seed = 1234567
n_train_tasks = 10
n_test_tasks = 3
examples_per_task = 60
architecture = SCH_MINUS
compression_size = 2
mlp1 = 16
mlp2 = 12
mlp3 = 5
deepset_dim = 6
attention_dim = 8
support_size = 30
max_epochs = 4
patience = 4
"""


OUTPUTS = ("certificates.csv", "checkpoint.json", "train_log.txt")


def test_criterion_determinism(tmp_path):
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        conf = tmp_path / f"{run}.conf"
        conf.write_text(DETERMINISM_CONFIG.format(out=out))
        for command in ("gen", "train", "certify"):
            assert cli_main([command, "--config", str(conf)]) == 0
        digests.append([(out / name).read_bytes() for name in OUTPUTS])
    same = [a == b and len(a) > 0 for a, b in zip(*digests)]
    ok = all(same)
    report("pipeline-determinism", ok,
           "two gen->train->certify runs, byte-identical: " + ", ".join(
               f"{name} ({len(data)} bytes) {s}"
               for name, data, s in zip(OUTPUTS, digests[0], same)))
