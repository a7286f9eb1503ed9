"""Episodic meta-training, early stopping, sweeps, and per-task certification.

Training loops over tasks in a seeded-shuffled order; each visit splits the
task into support and query halves, runs the hypernetwork graph on the
support set, and takes one Adam step on the query surrogate loss (binary
cross-entropy).  Nothing else is differentiated: validation (query 0-1 error
each epoch, message noise at zero) and certification decode forward only,
through ``encode`` on constant parameters and ``decode_gamma``.  The
returned parameters are those of the best validation epoch.

Certification consumes a *test* task only: the full sample goes through the
bottleneck, the empirical loss is measured on the complement of the
compression set, and the architecture-appropriate certificates are computed
from one ``BoundBudget`` per task, which they share but for the empirical loss;
its compression-set prior is the size-aware 1 / (c C(m', |j|)).
Every message a task's certificates score (the noise-free one, the
Monte-Carlo draws and PBSCH's disintegrated draw) is drawn first and decoded
in one stacked batch, so the compression rows are encoded once per task.
The meta-training collection is never an input to certification.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import bounds
from .autodiff import Tensor
from .hypernet import (CompressionArtifacts, HypernetConfig, decode_gamma,
                       downstream_forward, downstream_logits, encode,
                       hypernet_forward, init_hypernet_params)
from .optim import Adam
from .rng import Rng
from .tasks import TaskDataset


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainProtocol:
    support_size: int
    learning_rate: float = 1e-4
    max_epochs: int = 200
    patience: int = 20

    def __post_init__(self):
        if self.support_size < 1:
            raise ValueError("support_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 1 <= self.patience <= self.max_epochs:
            raise ValueError("need 1 <= patience <= max_epochs")


@dataclass(frozen=True)
class CertifyProtocol:
    """The settings a certificate depends on: the confidence ``delta`` in
    (0, 1], the number of posterior draws behind the Monte-Carlo expectation
    bounds, and the loss they certify."""

    delta: float = 0.05
    n_mc: int = 100
    loss_kind: str = "zero_one"

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        if not self.n_mc >= 1:
            raise ValueError(f"n_mc must be >= 1, got {self.n_mc}")
        if self.loss_kind not in ("zero_one", "linear"):
            raise ValueError(f"expected zero_one or linear, got {self.loss_kind!r}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_error: float


@dataclass
class TrainingLog:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_val_error: float = math.inf
    stopped_early: bool = False


@dataclass(frozen=True)
class CertEntry:
    certificate: bounds.Certificate
    emp_loss: float          # the empirical loss fed to the bound
    emp_loss_kind: str       # "zero_one" or "linear"
    mc_stderr: float | None  # standard error of the MC estimate, if any

    @property
    def kind(self) -> str:
        return self.certificate.kind

    @property
    def tau_star(self) -> float:
        return self.certificate.tau_star


@dataclass
class CertRow:
    task_id: int
    architecture: str
    m_prime: int
    c_effective: int
    b: int
    emp_complement_01: float
    emp_complement_linear: float
    test_query_error: float
    certificates: list[CertEntry]
    indices: tuple[int, ...] = ()
    # message actually decoded: omega for SCH_PLUS, the one posterior draw
    # behind the disintegrated certificate for PBSCH, else None
    sampled_message: np.ndarray | None = None


def split_support_query(task: TaskDataset, support_size: int,
                        rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform split into disjoint, exhaustive index sets."""
    m = len(task)
    if not 1 <= support_size < m:
        raise ValueError(f"support_size must be in [1, {m - 1}], got {support_size}")
    perm = rng.permutation(m)
    return perm[:support_size], perm[support_size:]


def _constants(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """The same parameter arrays as constants: every op on them is a constant."""
    return {name: ad.constant(t.data) for name, t in params.items()}


def _query_logits(params, cfg, task: TaskDataset, support_size: int,
                  rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Query logits and labels of the noise-free predictor decoded from a
    seeded support set."""
    sup, qry = split_support_query(task, support_size, rng)
    artifacts, _, _ = encode(params, cfg, task.features[sup], task.labels[sup])
    message = artifacts.message
    gamma = decode_gamma(params, cfg, task.features[sup], task.labels[sup],
                         artifacts.indices, None if message is None else message[None])
    return (downstream_logits(gamma, cfg.mlp3_shapes, task.features[qry])[0],
            task.labels[qry])


def _validation_error(params, cfg, protocol, tasks, rng: Rng) -> float:
    """Mean query 0-1 error over the validation tasks, message noise at zero."""
    params = _constants(params)
    return float(np.mean([
        ad.zero_one_loss(*_query_logits(params, cfg, task, protocol.support_size,
                                        rng.split(pos)))
        for pos, task in enumerate(tasks)]))


def meta_train(train_tasks: list[TaskDataset], val_tasks: list[TaskDataset],
               cfg: HypernetConfig, protocol: TrainProtocol,
               rng: Rng) -> tuple[dict[str, Tensor], TrainingLog]:
    """Train the hypernetwork; returns the best-validation-epoch parameters."""
    if not train_tasks or not val_tasks:
        raise ValueError("need at least one training task and one validation task")
    min_size = min(len(t) for t in train_tasks)
    if protocol.support_size >= min_size:
        raise ValueError(f"support_size {protocol.support_size} must be < "
                         f"smallest task size {min_size}")
    params = init_hypernet_params(cfg, rng.split(0))
    optimizer = Adam(params, lr=protocol.learning_rate)
    log = TrainingLog()
    best_snapshot = {name: t.data.copy() for name, t in params.items()}
    for epoch in range(protocol.max_epochs):
        order = rng.split(1, epoch).permutation(len(train_tasks))
        losses = []
        for task_pos in order:
            task = train_tasks[int(task_pos)]
            sup, qry = split_support_query(task, protocol.support_size,
                                           rng.split(2, epoch, int(task_pos), 0))
            eps = rng.split(2, epoch, int(task_pos), 1).normal(cfg.b)
            try:
                gamma, _ = hypernet_forward(params, cfg, task.features[sup],
                                            task.labels[sup], eps=eps)
                logits = downstream_forward(gamma, cfg.mlp3_shapes,
                                            ad.constant(task.features[qry]))
            except ad.NonFiniteError as exc:
                raise TrainingDivergedError(
                    f"non-finite forward pass at epoch {epoch}, "
                    f"task {task.task_id}: {exc}") from exc
            loss = ad.binary_cross_entropy(logits, task.labels[qry])
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, task {task.task_id}")
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(value)
        val_error = _validation_error(params, cfg, protocol, val_tasks, rng.split(3))
        log.epochs.append(EpochStats(epoch, float(np.mean(losses)), val_error))
        if val_error < log.best_val_error:
            log.best_val_error = val_error
            log.best_epoch = epoch
            best_snapshot = {name: t.data.copy() for name, t in params.items()}
        elif epoch - log.best_epoch >= protocol.patience:
            log.stopped_early = True
            break
    for name, t in params.items():
        t.data = best_snapshot[name]
    return params, log


# ---------------------------------------------------------------------------
# certification


def _complement_logits(params, cfg, task: TaskDataset, artifacts: CompressionArtifacts,
                       messages: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Complement-set logits of the predictor decoded from each row of (n, b)
    ``messages`` (``None`` for no message), and the complement labels."""
    comp = np.delete(np.arange(len(task)), artifacts.indices)
    gammas = decode_gamma(params, cfg, task.features, task.labels,
                          artifacts.indices, messages)
    return (downstream_logits(gammas, cfg.mlp3_shapes, task.features[comp]),
            task.labels[comp])


def _mean_stderr(draws: np.ndarray) -> tuple[float, float]:
    """Mean of the per-draw losses and its standard error (0 for one draw)."""
    n = len(draws)
    stderr = float(draws.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(draws.mean()), stderr


def mc_expected_loss(params: dict[str, Tensor], cfg: HypernetConfig, task: TaskDataset,
                     artifacts: CompressionArtifacts, n_mc: int, rng: Rng,
                     loss_kind: str = "zero_one") -> tuple[float, float]:
    """Monte-Carlo estimate of the message-posterior expected complement loss.

    Draws n_mc messages from N(mu, I) with one ``rng.normal((n_mc, b))``
    call, which consumes the stream exactly as n_mc successive
    ``rng.normal(b)`` draws would, decodes them as one batch, and averages
    the chosen loss over the complement set.  Returns (mean, standard error).
    This is the standalone estimator: ``certify_task`` decodes the same draws
    within its one stacked decode and gets the same bits.
    """
    if not cfg.has_gaussian_message:
        raise ValueError("mc_expected_loss needs a Gaussian message bottleneck")
    if n_mc < 1:
        raise ValueError(f"n_mc must be >= 1, got {n_mc}")
    messages = artifacts.message + rng.normal((n_mc, cfg.b))
    return _mean_stderr(ad.row_losses(
        *_complement_logits(params, cfg, task, artifacts, messages), loss_kind))


def certify_task(params: dict[str, Tensor], cfg: HypernetConfig, task: TaskDataset,
                 protocol: CertifyProtocol, rng: Rng) -> CertRow:
    """Certify the predictor the hypernetwork emits for one fresh task.

    The full task sample feeds the bottleneck; empirical losses are measured
    on the complement of the compression set.  ``protocol.loss_kind`` selects
    the loss certified by the expectation-type (Gaussian-message) bounds; the
    sample compression architectures always emit both the binomial 0-1
    certificate and the kl certificate on the linear loss.

    Every message is drawn before anything is decoded and the messages are
    stacked under the noise-free one: ``[mu; draws; omega]``, where the
    ``n_mc`` posterior draws come from ``rng.split(1)`` (as in
    ``mc_expected_loss``) and PBSCH's disintegrated message ``omega`` from
    ``rng.split(2)``.  One decode then encodes the compression rows once and
    scores every row; row i has the bits of decoding message i alone.
    """
    m = len(task)
    if m <= cfg.c:
        raise ValueError(f"task size {m} must exceed compression size {cfg.c}")
    n_mc, loss_kind = protocol.n_mc, protocol.loss_kind
    params = _constants(params)
    artifacts, _, _ = encode(params, cfg, task.features, task.labels)
    sigma = artifacts.message
    messages = None if sigma is None else sigma[None]
    sampled_message = sigma if cfg.has_binary_message else None
    if cfg.has_gaussian_message:
        stack = [messages, sigma + rng.split(1).normal((n_mc, cfg.b))]
        if cfg.architecture == "PBSCH":
            sampled_message = sigma + rng.split(2).normal(cfg.b)
            stack.append(sampled_message[None])
        messages = np.concatenate(stack)
    logits, labels = _complement_logits(params, cfg, task, artifacts, messages)
    c_eff = artifacts.c_effective
    K = ad.zero_one_errors(logits[0], labels)
    emp_01 = K / (m - c_eff)
    emp_lin = ad.linear_loss(logits[0], labels)

    # one budget per task; its certificates differ only in the empirical loss.
    # Collided heads give |j| = c_eff < c, so the prior spreads over every size
    # 1..c: P_J(j) = 1 / (c C(m, |j|)), of total mass 1 (Marchand & Sokolova 2005)
    mu_sq = float(sigma @ sigma) if cfg.has_gaussian_message else 0.0
    log_prior_j = -(math.log(cfg.c) + bounds.log_binomial(m, c_eff)) if cfg.c else None
    budget = bounds.BoundBudget(m, c_eff, cfg.b, protocol.delta, mu_norm_sq=mu_sq,
                                log_prior_j=log_prior_j)

    def entry(bound, emp_loss: float, emp_loss_kind: str, mc_stderr=None) -> CertEntry:
        return CertEntry(bound(replace(budget, emp_loss=emp_loss)), emp_loss,
                         emp_loss_kind, mc_stderr)

    if not cfg.has_gaussian_message:
        entries = [entry(lambda b: bounds.bound_sch_binary(b, K), emp_01, "zero_one"),
                   entry(bounds.bound_sch_real, emp_lin, "linear")]
    else:
        losses = ad.row_losses(logits[1:], labels, loss_kind)
        mc_mean, mc_se = _mean_stderr(losses[:n_mc])
        bound = bounds.bound_pb if cfg.architecture == "PBH" else bounds.bound_pbsch
        entries = [entry(bound, mc_mean, loss_kind, mc_se)]
        if cfg.architecture == "PBSCH":
            # disintegrated variant: the one sampled message, the last row
            entries.append(entry(bounds.bound_pbsch_disintegrated, float(losses[n_mc]),
                                 loss_kind))

    # plain support/query test error, for table parity with meta-test usage
    test_query_error = ad.zero_one_loss(*_query_logits(params, cfg, task, m // 2,
                                                       rng.split(0)))

    return CertRow(task.task_id, cfg.architecture, m, c_eff, cfg.b,
                   emp_01, emp_lin, test_query_error, entries,
                   indices=artifacts.indices, sampled_message=sampled_message)


# ---------------------------------------------------------------------------
# hyperparameter sweep


@dataclass
class SweepRow:
    learning_rate: float
    mlp1: tuple[int, ...]
    mlp2: tuple[int, ...]
    mlp3: tuple[int, ...]
    c: int
    b: int
    val_error: float | None
    best_epoch: int | None
    skipped: str | None = None


# Default grid, matching the published hyperparameter search space: the one
# list of sweep axes, in the order of ``SweepRow``'s leading fields.
DEFAULT_GRID = {
    "learning_rate": [1e-3, 1e-4],
    "mlp1": [(200, 200), (500, 500)],
    "mlp2": [(100,), (200,)],
    "mlp3": [(100,), (200, 200)],
    "c": [0, 1, 2, 4, 6, 8],
    "b": [0, 1, 2, 4, 8, 16, 32, 64, 128],
}


def sweep(train_tasks, val_tasks, hypernet: dict, protocol: TrainProtocol,
          rng: Rng, grid: dict | None = None,
          log_fn=None) -> tuple[SweepRow | None, list[SweepRow]]:
    """Train every valid grid point; select by validation error.

    ``hypernet`` holds ``HypernetConfig`` fields, ``architecture`` at least.
    A grid point replaces the learning rate of ``protocol`` and the fields
    named by the other axes; every other setting is the same at each point.
    Invalid architecture/size combinations are skipped and recorded.  Ties
    break toward the smaller compression set, then the smaller message.
    """
    grid = {**DEFAULT_GRID, **(grid or {})}
    rows: list[SweepRow] = []
    axes = [grid[axis] for axis in DEFAULT_GRID]
    for point, (lr, mlp1, mlp2, mlp3, c, b) in enumerate(itertools.product(*axes), start=1):
        mlp1, mlp2, mlp3 = tuple(mlp1), tuple(mlp2), tuple(mlp3)
        try:
            cfg = HypernetConfig(**hypernet | dict(c=c, b=b, mlp1=mlp1, mlp2=mlp2, mlp3=mlp3))
        except ValueError as exc:
            rows.append(SweepRow(lr, mlp1, mlp2, mlp3, c, b, None, None, skipped=str(exc)))
            if log_fn:
                log_fn(f"skip point {point}: {exc}")
            continue
        run_protocol = replace(protocol, learning_rate=lr)
        _, log = meta_train(train_tasks, val_tasks, cfg, run_protocol, rng.split(point))
        rows.append(SweepRow(lr, mlp1, mlp2, mlp3, c, b, log.best_val_error, log.best_epoch))
        if log_fn:
            log_fn(f"point {point}: c={c} b={b} lr={lr} "
                   f"val_error={log.best_val_error:.4f}")
    return select_best(rows), rows


def select_best(rows: list[SweepRow]) -> SweepRow | None:
    """Lowest validation error; ties prefer smaller c, then smaller b."""
    trained = [r for r in rows if r.skipped is None]
    return min(trained, key=lambda r: (r.val_error, r.c, r.b), default=None)
