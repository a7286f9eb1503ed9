"""Episodic meta-training, early stopping, sweeps, and per-task certification.

Training loops over tasks in a seeded-shuffled order; each visit splits the
task into support and query halves, runs the hypernetwork graph on the
support set, and takes one Adam step on the query surrogate loss (binary
cross-entropy).  Nothing else is differentiated: validation (query 0-1 error
each epoch, message noise at zero) and certification run the same functions
forward only, on constant parameters, over stacked chunks of tasks: one
``encode`` call encodes a chunk's samples and one ``decode_gamma`` call
decodes its predictors, each task with the bits of its own graph forward.
``_chunk_size`` sizes every chunk against the one byte budget
``CHUNK_BYTES`` (2 MiB).  The returned parameters are those of the best
validation epoch.

Certification consumes *test* tasks only, each on its own: the full sample
goes through the bottleneck, the empirical loss is measured on the
complement of the compression set, and the architecture-appropriate
certificates are computed from one ``BoundBudget`` per task, which they
share but for the empirical loss; its compression-set prior is the
size-aware 1 / (c C(m', |j|)).  ``certify_tasks`` decodes equal-size
tasks in stacked chunks (``_decode_chunk``) and hands each task's share to
``certify_task``, which scores it.  A chunk is the only unit: a task
certified alone is the chunk of one,
``certify_tasks(params, cfg, [task], protocol, rng)[0]``, and a chunk's
query sets are scored in one ``downstream_forward``.  Every
message a task's certificates score (the noise-free one, the Monte-Carlo
draws and PBSCH's disintegrated draw) is drawn first and decoded in one
stacked batch with the rest of its chunk, so the compression rows are
encoded once per task.  Each distinct certificate is
computed once per ``certify_tasks`` call: tasks whose certificate inputs are
equal (the bound, the ``BoundBudget`` and, for SCH_BINARY, the error count)
share one ``Certificate``, and nothing is kept between calls.  The
meta-training collection is never an input to certification.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import bounds
from .autodiff import Tensor
from .hypernet import (CompressionArtifacts, HypernetConfig, _constants, decode_gamma,
                       downstream_forward, encode, hypernet_forward, init_hypernet_params)
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
    emp_loss_kind: str       # "zero_one" or "linear"
    mc_stderr: float | None  # standard error of the MC estimate, if any

    @property
    def emp_loss(self) -> float:
        """The empirical loss fed to the bound: the certificate's ``q``."""
        return self.certificate.q

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


# The byte budget of one stacked evaluation chunk: its encode buffers (set
# size x the widest layer, per task) and its decode rows (message rows x the
# widest layer, per task).  A chunk holds at least one task.  At 2 MiB a
# benchmark chunk holds 8 PBSCH tasks at n_mc = 100 (1 MiB: 4), 13 SCH_PLUS
# tasks (6) or 25 validation sets (12), half as many chunks, each with a
# fixed Python cost; the decode peaks at 1.01 and 1.62 x CHUNK_BYTES
# (``tracemalloc``).
CHUNK_BYTES = 2 ** 21


def _chunk_size(params: dict[str, Tensor], set_size: int, n_rows: int) -> int:
    """How many tasks of ``set_size`` examples and ``n_rows`` decoded message
    rows one stacked chunk holds within ``CHUNK_BYTES``."""
    widest = max(t.data.shape[-1] for t in params.values())
    return max(1, CHUNK_BYTES // (8 * widest * (set_size + n_rows)))


def _by_size(tasks: list[TaskDataset]) -> dict[int, list[int]]:
    """The positions of ``tasks`` of each size, in order; the sizes in order
    of first appearance.  A stacked chunk holds tasks of one size."""
    by_size: dict[int, list[int]] = {}
    for pos, task in enumerate(tasks):
        by_size.setdefault(len(task), []).append(pos)
    return by_size


def _chunks(params: dict[str, Tensor], positions: list[int], set_size: int,
            n_rows: int) -> list[list[int]]:
    """``positions`` cut, in order, into stacked chunks of ``_chunk_size`` tasks."""
    size = _chunk_size(params, set_size, n_rows)
    return [positions[start:start + size] for start in range(0, len(positions), size)]


def _query_logits(params, cfg, tasks: list[TaskDataset], support_size: int,
                  rngs: list[Rng]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Query logits and labels of the noise-free predictor decoded from a
    seeded support set of each task, task i split by ``rngs[i]``.

    The support sets, all of ``support_size`` examples, are encoded and
    decoded as one stack, and the query sets, all of one size, are scored in
    one ``downstream_forward`` of the stack; each task's logits have the
    bits of its own graph forward.  Callers pass one chunk of equal-size
    tasks (``_chunks``) and constant parameters (``_constants``)."""
    splits = [split_support_query(task, support_size, rng) for task, rng in zip(tasks, rngs)]
    xs = np.stack([task.features[sup] for task, (sup, _) in zip(tasks, splits)])
    ys = np.stack([task.labels[sup] for task, (sup, _) in zip(tasks, splits)])
    arts, _, _ = encode(params, cfg, xs, ys)
    messages = np.stack([a.message[None] for a in arts]) if cfg.has_message else None
    gammas = decode_gamma(params, cfg, xs, ys, [a.indices for a in arts], messages)
    queries = np.stack([task.features[qry] for task, (_, qry) in zip(tasks, splits)])
    logits = downstream_forward(ad.constant(gammas[:, 0]), cfg.mlp3_shapes,
                                ad.constant(queries)).data
    return [(logits[:, t], tasks[t].labels[qry]) for t, (_, qry) in enumerate(splits)]


def _validation_error(params, cfg, protocol, tasks, rng: Rng) -> float:
    """Mean query 0-1 error over the validation tasks, message noise at zero;
    task ``pos`` is split by ``rng.split(pos)``."""
    params, errors = _constants(params), np.empty(len(tasks))
    for positions in _by_size(tasks).values():
        for chunk in _chunks(params, positions, protocol.support_size, 1):
            errors[chunk] = [ad.zero_one_loss(*pair) for pair in _query_logits(
                params, cfg, [tasks[pos] for pos in chunk], protocol.support_size,
                [rng.split(pos) for pos in chunk])]
    return float(np.mean(errors))


def meta_train(train_tasks: list[TaskDataset], val_tasks: list[TaskDataset],
               cfg: HypernetConfig, protocol: TrainProtocol,
               rng: Rng) -> tuple[dict[str, Tensor], TrainingLog]:
    """Train the hypernetwork; returns the best-validation-epoch parameters.

    Every training and validation task's size is checked before the first
    step: each is split into a support set and a non-empty query set.
    """
    if not train_tasks or not val_tasks:
        raise ValueError("need at least one training task and one validation task")
    for kind, tasks in (("training", train_tasks), ("validation", val_tasks)):
        for task in tasks:
            if protocol.support_size >= (m := len(task)):
                raise ValueError(f"{kind} task {task.task_id} has {m} examples, too few for "
                                 f"support_size {protocol.support_size}")
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
            eps = (rng.split(2, epoch, int(task_pos), 1).normal(cfg.b)
                   if cfg.has_gaussian_message else None)
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


def _complement_logits(cfg, task: TaskDataset, indices,
                       gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complement-set logits of the predictor of each (n, G) gamma row decoded
    for ``task`` with compression set ``indices``, and the complement labels."""
    comp = np.delete(np.arange(len(task)), indices)
    return (downstream_forward(ad.constant(gammas), cfg.mlp3_shapes,
                               ad.constant(task.features[comp])).data.T, task.labels[comp])


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
    This is the standalone estimator: ``certify_tasks`` decodes the same
    draws within its stacked decode and gets the same bits.
    """
    if not cfg.has_gaussian_message:
        raise ValueError("mc_expected_loss needs a Gaussian message bottleneck")
    if n_mc < 1:
        raise ValueError(f"n_mc must be >= 1, got {n_mc}")
    messages = artifacts.message + rng.normal((n_mc, cfg.b))
    gammas, = decode_gamma(_constants(params), cfg, task.features[None], task.labels[None],
                           [artifacts.indices], messages[None])
    return _mean_stderr(ad.row_losses(
        *_complement_logits(cfg, task, artifacts.indices, gammas), loss_kind))


def _message_blocks(cfg: HypernetConfig, protocol: CertifyProtocol) -> list[tuple]:
    """The layout of a task's message stack ``[mu; draws; omega]``, one
    ``(stream, rows)`` per block: the noise-free message (no stream), then,
    for a Gaussian message, the ``n_mc`` posterior draws from
    ``rng.split(1)`` (as in ``mc_expected_loss``) and, for PBSCH, the
    disintegrated draw omega from ``rng.split(2)``."""
    blocks = [(None, 1)]
    if cfg.has_gaussian_message:
        blocks.append((1, protocol.n_mc))
    if cfg.architecture == "PBSCH":
        blocks.append((2, 1))
    return blocks


def _message_rows(cfg: HypernetConfig, protocol: CertifyProtocol) -> int:
    """The row count of every ``_message_stack`` (1 with no message)."""
    return sum(rows for _, rows in _message_blocks(cfg, protocol))


def _message_stack(cfg: HypernetConfig, protocol: CertifyProtocol, sigma: np.ndarray | None,
                   rng: Rng) -> tuple[np.ndarray | None, np.ndarray | None]:
    """A task's message stack, laid out by ``_message_blocks``, and its
    sampled message: omega for PBSCH, sigma for SCH_PLUS, else ``None``.
    With no message there is no stack."""
    if sigma is None:
        return None, None
    stack = np.concatenate([sigma[None] if stream is None
                            else sigma + rng.split(stream).normal((rows, cfg.b))
                            for stream, rows in _message_blocks(cfg, protocol)])
    if cfg.architecture == "PBSCH":
        return stack, stack[-1].copy()
    return stack, sigma if cfg.has_binary_message else None


@dataclass(frozen=True)
class DecodedTask:
    """One task's share of a certification chunk's stacked forward pass."""

    artifacts: CompressionArtifacts
    gammas: np.ndarray                  # (n, G), one row per row of its message stack
    sampled_message: np.ndarray | None  # as in ``_message_stack``
    test_query_error: float


def _decode_chunk(params, cfg: HypernetConfig, tasks: list[TaskDataset],
                  protocol: CertifyProtocol, rngs: list[Rng]) -> list[DecodedTask]:
    """The forward pass of a chunk of equal-size tasks, task i drawing from
    ``rngs[i]``: one ``encode`` of the full samples, one ``decode_gamma`` of
    every task's message stack, and one stacked support/query pass for the
    test-query error, which splits task i with ``rngs[i].split(0)``.  Its
    caller passes constant parameters (``_constants``)."""
    xs = np.stack([task.features for task in tasks])
    ys = np.stack([task.labels for task in tasks])
    arts, _, _ = encode(params, cfg, xs, ys)
    stacks = [_message_stack(cfg, protocol, art.message, rng) for art, rng in zip(arts, rngs)]
    messages = np.stack([stack for stack, _ in stacks]) if cfg.has_message else None
    gammas = decode_gamma(params, cfg, xs, ys, [art.indices for art in arts], messages)
    # plain support/query test error, for table parity with meta-test usage
    queries = _query_logits(params, cfg, tasks, len(tasks[0]) // 2,
                            [rng.split(0) for rng in rngs])
    return [DecodedTask(art, gamma, sampled, ad.zero_one_loss(*query))
            for art, gamma, (_, sampled), query in zip(arts, gammas, stacks, queries)]


def certify_tasks(params: dict[str, Tensor], cfg: HypernetConfig, tasks: list[TaskDataset],
                  protocol: CertifyProtocol, rng: Rng) -> list[CertRow]:
    """Certify the predictor the hypernetwork emits for each fresh task; task
    t draws every message and its test-query split from
    ``rng.split(task.task_id)``.

    Every task's size is checked before anything is encoded.  Tasks of one
    size are decoded in stacked chunks (``_decode_chunk``), then each task is
    certified from its share by ``certify_task``, with one ``certificates``
    dict for the whole call.  Rows come back in task order, each with the
    bits of that task certified alone, as the chunk of one
    ``certify_tasks(params, cfg, [task], protocol, rng)``.
    """
    # the full sample and the half-sample support set must each hold a compression set
    for task in tasks:
        if (m := len(task)) // 2 < max(1, cfg.c):
            raise ValueError(f"task {task.task_id} has {m} examples, too few for compression "
                             f"size {cfg.c}: its test-query pass encodes a half-sample support "
                             f"set of {m // 2}, which needs at least {max(1, cfg.c)}")
    params = _constants(params)
    rows: list[CertRow | None] = [None] * len(tasks)
    certificates: dict[tuple, bounds.Certificate] = {}
    for m, positions in _by_size(tasks).items():
        for chunk in _chunks(params, positions, m, _message_rows(cfg, protocol)):
            rngs = [rng.split(tasks[pos].task_id) for pos in chunk]
            decoded = _decode_chunk(params, cfg, [tasks[pos] for pos in chunk], protocol, rngs)
            for pos, share in zip(chunk, decoded):
                rows[pos] = certify_task(cfg, tasks[pos], protocol, share, certificates)
    return rows


def certify_task(cfg: HypernetConfig, task: TaskDataset, protocol: CertifyProtocol,
                 decoded: DecodedTask, certificates: dict[tuple, bounds.Certificate]) -> CertRow:
    """Score one fresh task from ``decoded``, its share of a chunk that
    ``certify_tasks`` decoded, and certify its predictor.

    The full task sample fed the bottleneck; empirical losses are measured
    on the complement of the compression set, from the gamma rows of the
    task's message stack (``_message_stack``), row i with the bits of
    decoding message i alone.  ``protocol.loss_kind`` selects the loss
    certified by the expectation-type (Gaussian-message) bounds; the sample
    compression architectures always emit both the binomial 0-1 certificate
    and the kl certificate on the linear loss.

    ``certificates`` maps each certificate's whole input (its bound, its
    ``BoundBudget`` and, for SCH_BINARY, the error count K) to the
    ``Certificate`` computed from it; ``certify_tasks`` passes one dict per
    call, so tasks with equal inputs share one frozen certificate, computed
    once, and nothing outlives the call.
    """
    n_mc, loss_kind = protocol.n_mc, protocol.loss_kind
    m, artifacts = len(task), decoded.artifacts
    logits, labels = _complement_logits(cfg, task, artifacts.indices, decoded.gammas)
    sigma, c_eff = artifacts.message, artifacts.c_effective
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

    def entry(bound, emp_loss: float, emp_loss_kind: str, mc_stderr=None,
              args: tuple = ()) -> CertEntry:
        key = (bound, replace(budget, emp_loss=emp_loss), *args)
        if key not in certificates:
            certificates[key] = bound(key[1], *args)
        return CertEntry(certificates[key], emp_loss_kind, mc_stderr)

    if not cfg.has_gaussian_message:
        entries = [entry(bounds.bound_sch_binary, emp_01, "zero_one", args=(K,)),
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

    return CertRow(task.task_id, cfg.architecture, m, c_eff, cfg.b,
                   emp_01, emp_lin, decoded.test_query_error, entries,
                   indices=artifacts.indices, sampled_message=decoded.sampled_message)


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
