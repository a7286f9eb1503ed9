"""Hypernetwork architectures that map a dataset to downstream-network weights.

Four meta-predictor variants share the same building blocks:

* ``PBH``        set encoder -> Gaussian latent message -> decoder;
* ``SCH_MINUS``  attention sample compressor -> reconstructor;
* ``SCH_PLUS``   sample compressor + binary message compressor -> reconstructor;
* ``PBSCH``      sample compressor + Gaussian message encoder -> reconstructor.

The downstream parameters depend on the input dataset only through the
bottleneck (selected rows, message), which is what the certificates charge
for.  Each stage is one function that takes one set or a stack of sets,
forward and backward (see ``autodiff``).  ``encode`` runs the bottleneck on
one task sample or a stack of equal-size samples and returns its record,
``CompressionArtifacts``: the compression set J and the message sigma.
``reconstruct`` decodes compression rows and messages into gamma rows, and
``downstream_forward`` runs the predictor of each gamma row.  Training runs
``hypernet_forward`` (``encode``, the message noise, then ``reconstruct``)
and ``downstream_forward`` on one task as a graph it differentiates.
Evaluation runs the same functions forward only, on constant parameters
(``_constants``), over chunks: ``encode`` of a stack of samples, then
``decode_gamma`` of their stored artifacts, each set with the bits of the
graph on that set alone.  So the function certified is the function
trained, written once.
Set-valued inputs are sorted once, lexicographically by row, by ``encode`` /
``decode_gamma``; inner modules require canonical order.
Every architecture is therefore exactly permutation invariant, bit for bit.

Tasks arrive at wildly different locations and scales, and the networks use
no batch normalization, so every set is standardized by its own statistics:
``encode`` standardizes each input set once for the compressor and message
head, and the reconstructor standardizes its own
rows, the compression rows, folding the inverse affine map into the first
downstream layer it emits.
Every statistic is a function of the module's own legitimate input (the full
input set for the compressor and message head, the compression rows alone
for the reconstructor), so the information-bottleneck separation is
preserved exactly.

A checkpoint is one JSON file (format version 2): the config, the master
seed and each tensor's shape, its values one base64 string of the tensor's
little-endian, row-major float64 bytes, so no float is parsed or printed.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .optim import kaiming_uniform_init
from .rng import Rng
from .tasks import _refuse_unknown_keys, require_key, settings_from_json

ARCHITECTURES = ("PBH", "SCH_MINUS", "SCH_PLUS", "PBSCH")
CHECKPOINT_VERSION = 2
_CHECKPOINT_KEYS = ("format_version", "architecture", "config", "master_seed", "params")


@dataclass(frozen=True)
class HypernetConfig:
    architecture: str
    c: int = 0
    b: int = 0
    input_dim: int = 2
    mlp1: tuple[int, ...] = (100,)   # trunk hidden sizes (keys, message, reconstructor)
    mlp2: tuple[int, ...] = (100,)   # DeepSet per-example network hidden sizes
    mlp3: tuple[int, ...] = (5,)     # downstream predictor hidden sizes
    deepset_dim: int = 16
    attention_dim: int = 32

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.c < 0 or self.b < 0:
            raise ValueError("c and b must be >= 0")
        for name in ("input_dim", "deepset_dim", "attention_dim"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        arch = self.architecture
        if arch == "PBH" and not (self.c == 0 and self.b >= 1):
            raise ValueError("PBH requires c = 0 and b >= 1")
        if arch == "SCH_MINUS" and not (self.c >= 1 and self.b == 0):
            raise ValueError("SCH_MINUS requires c >= 1 and b = 0")
        if arch == "SCH_PLUS" and not (self.c >= 1 and self.b >= 1):
            raise ValueError("SCH_PLUS requires c >= 1 and b >= 1")
        if arch == "PBSCH" and self.b < 1:
            raise ValueError("PBSCH requires b >= 1")
        for name in ("mlp1", "mlp2", "mlp3"):
            widths = tuple(getattr(self, name))
            if not all(width >= 1 for width in widths):  # no layers at all is legal
                raise ValueError(f"{name} widths must be >= 1, got {widths}")
            object.__setattr__(self, name, widths)

    @property
    def has_gaussian_message(self) -> bool:
        return self.architecture in ("PBH", "PBSCH")

    @property
    def has_binary_message(self) -> bool:
        return self.architecture == "SCH_PLUS"

    @property
    def has_message(self) -> bool:
        return self.architecture != "SCH_MINUS"

    @property
    def mlp3_shapes(self) -> tuple[tuple[int, int], ...]:
        """(fan_in, fan_out) of each downstream layer."""
        return downstream_shapes(self.input_dim, self.mlp3)


@dataclass
class CompressionArtifacts:
    """Per-task bottleneck output (J, sigma): the only channel from data to gamma."""

    indices: tuple[int, ...]     # J: distinct, ascending, into the input set
    message: np.ndarray | None   # sigma: +-1 (SCH_PLUS), posterior mean mu (PBH,
                                 # PBSCH), or None (SCH_MINUS)

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("compression indices must be distinct")

    @property
    def c_effective(self) -> int:
        return len(self.indices)


# ---------------------------------------------------------------------------
# construction
#
# Parameters live in a plain dict of named tensors; insertion order is the
# canonical order of ``param_layout`` (initialization, Adam and the checkpoint
# all follow it).


def _mlp_layout(prefix: str, sizes: list[int]) -> list[tuple[str, tuple[int, int], int]]:
    layout = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        layout += [(f"{prefix}.w{i}", (fan_in, fan_out), fan_in),
                   (f"{prefix}.b{i}", (1, fan_out), 0)]
    return layout


def _mlp_layer_count(params: dict[str, Tensor], prefix: str) -> int:
    n = 0
    while f"{prefix}.w{n}" in params:
        n += 1
    return n


def mlp_forward(params: dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    """Feedforward pass, one ``dense`` node per layer: ReLU between layers,
    linear output."""
    n_layers = _mlp_layer_count(params, prefix)
    if n_layers == 0:
        raise KeyError(f"no parameters under prefix {prefix!r}")
    for i in range(n_layers):
        x = ad.dense(x, params[f"{prefix}.w{i}"], params[f"{prefix}.b{i}"],
                     relu=i < n_layers - 1)
    return x


def param_layout(cfg: HypernetConfig) -> list[tuple[str, tuple[int, int], int]]:
    """(name, shape, fan_in) of every parameter, in the canonical order; a
    fan_in of 0 marks a zero-initialized bias, any other a Kaiming weight."""
    layout = []
    d, dp = cfg.input_dim, cfg.deepset_dim
    deepset_sizes = [d, *cfg.mlp2, dp]
    if cfg.c > 0:
        layout += _mlp_layout("compressor.deepset", deepset_sizes)
        layout += _mlp_layout("compressor.keys", [d, *cfg.mlp1, cfg.attention_dim])
        for h in range(cfg.c):
            layout += _mlp_layout(f"compressor.query{h}", [dp, cfg.attention_dim])
    if cfg.has_message:
        layout += _mlp_layout("message.deepset", deepset_sizes)
        layout += _mlp_layout("message.trunk", [dp, *cfg.mlp1, cfg.b])
    if cfg.c > 0:
        layout += _mlp_layout("recon.deepset", deepset_sizes)
    else:
        layout.append(("recon.const", (1, dp), dp))
    trunk_in = dp + (cfg.b if cfg.has_message else 0)
    gamma_size = downstream_param_count(cfg.mlp3_shapes)
    return layout + _mlp_layout("recon.trunk", [trunk_in, *cfg.mlp1, gamma_size])


def init_hypernet_params(cfg: HypernetConfig, rng: Rng) -> dict[str, Tensor]:
    """Create all parameters of ``param_layout`` in its order from a single
    stream: Kaiming-uniform weights, zero biases."""
    return {name: kaiming_uniform_init(shape, fan_in, rng) if fan_in
            else Tensor(np.zeros(shape), requires_grad=True)
            for name, shape, fan_in in param_layout(cfg)}


# ---------------------------------------------------------------------------
# set encoding

# Scale floors for per-set standardization: absolute, and relative to the
# widest coordinate (bounds the anisotropy of near-collinear sets).
_STD_FLOOR_ABS = 1e-2
_STD_FLOOR_REL = 0.05


def set_statistics(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate mean and floored standard deviation of a point set.

    ``features`` is one (m, d) set or a stack (..., m, d) of equal-size
    sets, each reduced over its own rows.  A single point gets unit scale
    (centering only).
    """
    feats = np.asarray(features, dtype=np.float64)
    m = feats.shape[-2]
    # the ufunc sequence of ``np.mean`` and ``np.std``, one mean for both
    mean = np.add.reduce(feats, axis=-2) / m
    if m < 2:
        return mean, np.ones_like(mean)
    dev = feats - mean[..., None, :]
    dev *= dev
    std = np.sqrt(np.add.reduce(dev, axis=-2) / m)
    floor = np.maximum(_STD_FLOOR_ABS, _STD_FLOOR_REL * std.max(axis=-1, keepdims=True))
    return mean, np.maximum(std, floor)


def _standardized_input(features: np.ndarray) -> Tensor:
    """The input set, or each set of a stack, standardized by its own
    statistics, as a constant.

    The input set carries no gradient, so the map ``(x - mean) * (1 / std)``
    is applied in numpy, with the same per-element arithmetic as the
    ``ad.standardize`` node of ``reconstruct``.  On a canonically ordered set
    the statistics are exactly permutation invariant, float summation order
    included.
    """
    mean, std = set_statistics(features)
    return ad.constant((features - mean[..., None, :]) * (1.0 / std[..., None, :]))


def canonical_order(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Lexicographic row order of [features | labels]; ties keep input order.

    ``features`` is one (m, d) set or a stack (..., m, d) of equal-size
    sets with (..., m) labels; each set gets its own order.  Encoding a set
    through this order makes every aggregation exactly permutation
    invariant, including the floating-point summation order.
    """
    features = np.asarray(features)
    joined = np.concatenate(
        [features, np.reshape(labels, (*features.shape[:-1], 1))], axis=-1)
    return np.lexsort(tuple(joined[..., j] for j in reversed(range(joined.shape[-1]))))


def _canonical_sets(features: np.ndarray, labels: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One (m, d) set, or a stack (..., m, d) of equal-size sets with
    (..., m) labels, in canonical order: (the order, the sorted features,
    the sorted labels as (..., m, 1)).  Each set is sorted on its own."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.reshape(np.asarray(labels, dtype=np.float64), (*features.shape[:-1], 1))
    order = canonical_order(features, labels)
    return (order, np.take_along_axis(features, order[..., None], axis=-2),
            np.take_along_axis(labels, order[..., None], axis=-2))


def deepset_embed(params: dict[str, Tensor], prefix: str, features: Tensor,
                  labels: Tensor) -> Tensor:
    """Set embedding z = (1/m) M^T y of a canonically ordered set.

    M holds the per-row network outputs and y is the +-1 label column.  The
    caller supplies the rows in canonical order, which fixes the float
    summation order and so makes z exactly permutation invariant.
    """
    return ad.set_pool(mlp_forward(params, prefix, features), labels)


def pb_encode(params: dict[str, Tensor], xs_std: Tensor, labels: Tensor) -> Tensor:
    """Gaussian posterior mean mu = tanh(trunk(deepset(S))), each entry in (-1, 1).

    ``xs_std`` and ``labels`` form a canonically ordered set whose features
    ``encode`` has standardized (``_standardized_input``).
    """
    z = deepset_embed(params, "message.deepset", xs_std, labels)
    return ad.tanh(mlp_forward(params, "message.trunk", z))


def msg_compress(params: dict[str, Tensor], xs_std: Tensor, labels: Tensor,
                 soft: bool = False) -> Tensor:
    """Binary message in {-1, +1}^b; straight-through sign on the same trunk.

    ``xs_std`` and ``labels`` form a canonically ordered set whose features
    ``encode`` has standardized (``_standardized_input``).
    """
    z = deepset_embed(params, "message.deepset", xs_std, labels)
    return ad.sign_st(mlp_forward(params, "message.trunk", z), soft=soft)


def sample_compress(params: dict[str, Tensor], cfg: HypernetConfig, xs_std: Tensor,
                    labels: Tensor, values: np.ndarray,
                    soft: bool = False) -> tuple[tuple[int, ...], Tensor]:
    """Select ``cfg.c`` rows with independent scaled dot-product attention heads.

    ``xs_std`` and ``labels`` form a canonically ordered set whose features
    ``encode`` has standardized (``_standardized_input``); ``values`` holds
    the same set's raw ``(features | label)`` rows, in the same order.
    Queries are per-head projections of the set embedding, keys come from a
    shared feedforward network over the standardized features, and the
    values are the raw rows themselves.  Each head contributes its argmax
    row through a straight-through selection; heads may agree, in which
    case the duplicate rows are dropped so the output depends on the
    distinct selected set only.

    Returns (distinct selected positions in the set, ascending; selected
    rows, one per distinct position, in that order).  On a stack of sets the
    positions are one tuple per set, and the rows a stack, or ``None`` where
    the sets keep different numbers of rows (``ad.attention_select``).
    """
    m = xs_std.data.shape[-2]
    if cfg.c > m:
        raise ValueError(f"compression size {cfg.c} exceeds set size {m}")
    keys = mlp_forward(params, "compressor.keys", xs_std)
    z = deepset_embed(params, "compressor.deepset", xs_std, labels)
    heads = [(params[f"compressor.query{h}.w0"], params[f"compressor.query{h}.b0"])
             for h in range(cfg.c)]
    # ascending positions of a canonically ordered set: the rows come out in
    # canonical content order, so they are permutation invariant too (the
    # soft twin's mixture rows come one per head, with no deduplication)
    return ad.attention_select(z, keys, heads, values,
                               1.0 / math.sqrt(cfg.attention_dim), soft=soft)


def reconstruct(params: dict[str, Tensor], cfg: HypernetConfig,
                rows: Tensor | None, message: Tensor | None,
                soft: bool = False) -> Tensor:
    """Emit downstream weights gamma from (compression rows, message).

    One set's (c', d + 1) ``rows`` and (1, b) ``message`` give a (1, G)
    gamma row.  Stacks give a stack: (..., c', d + 1) rows and (..., 1, b)
    messages, whose leading axes broadcast against each other, give
    (..., 1, G) gamma rows.  Training passes one task; ``decode_gamma``
    passes (T, c', d + 1) rows and (n, T, 1, b) messages, n per set.  Every
    product keeps one row's shapes, ``(1, k) @ (k, h)``: a flat
    ``(n, k) @ (k, h)`` product rounds differently, while the stacked one
    gives each message row of each set the bits of that row alone, which is
    exactly the property the certificates rely on.

    ``rows`` arrive in canonical content order (the soft twin's mixture rows
    arrive in head order).  They are standardized by their own mean and
    scale (``ad.standardize``) before the set embedding of
    ``recon.deepset``, and the trunk's first-layer weights are emitted in
    those standardized coordinates; the inverse affine map is folded back
    into the returned gamma (``ad.fold``), so the downstream network still
    consumes raw features.  Both statistics are functions of the compression
    rows alone, computed once per set and broadcast over its message rows.

    The statistics are ``set_statistics`` constants, stop-gradients on the
    production path (rescaling gradients of order var^-3/2 destabilize the
    selection heads); the soft twin (``soft=True``) computes them with graph
    ops instead, centering the rows for the variance through the same
    ``ad.standardize`` node, so the whole surrogate graph is exactly
    finite-difference checkable.

    With no compression rows (c = 0) the set embedding is the learned
    constant ``recon.const``, so the architecture degenerates gracefully to a
    pure encoder-decoder and gamma is the trunk output unchanged.
    """
    if rows is None and message is None:
        raise ValueError("reconstruct needs compression rows or a message")
    if rows is None:
        emb = params["recon.const"]
    else:
        d = cfg.input_dim
        labs = ad.slice_cols(rows, d, d + 1)
        if soft:
            # differentiable statistics, the means pooled against a column of
            # ones; scale = sqrt(var + floor^2) smooths the floor
            ones = ad.constant(np.ones((*rows.data.shape[:-1], 1)))
            mu = ad.set_pool(ad.slice_cols(rows, 0, d), ones)
            centered = ad.standardize(rows, mu, ad.constant(np.ones_like(mu.data)))
            var = ad.set_pool(ad.mul(centered, centered), ones)
            inv_scale = ad.power_scalar(
                ad.add(var, ad.constant(np.full_like(var.data, _STD_FLOOR_ABS ** 2))), -0.5)
        else:
            mean, std = set_statistics(rows.data[..., :d])
            mu, inv_scale = ad.constant(mean[..., None, :]), ad.constant((1.0 / std)[..., None, :])
        emb = deepset_embed(params, "recon.deepset", ad.standardize(rows, mu, inv_scale), labs)
    trunk_in = emb if message is None else ad.concat([emb, message], axis=-1)
    raw = mlp_forward(params, "recon.trunk", trunk_in)
    if rows is None:
        return raw
    # fold x -> (x - mu) / scale into the first downstream layer
    return ad.fold(raw, mu, inv_scale, cfg.mlp3_shapes[0][1])


# ---------------------------------------------------------------------------
# downstream predictor


def downstream_shapes(input_dim: int, mlp3) -> tuple[tuple[int, int], ...]:
    sizes = [input_dim, *mlp3, 1]
    return tuple(zip(sizes[:-1], sizes[1:]))


def gamma_layout(shapes) -> tuple[tuple[int, int, int, int, int], ...]:
    """Where each downstream layer lives in gamma.

    One ``(fan_in, fan_out, w_start, b_start, stop)`` row per layer, in
    order: the layer's fan_in x fan_out weight block (row-major) fills
    columns ``w_start:b_start`` and its fan_out biases ``b_start:stop``.
    The last row's ``stop`` is the parameter count.
    """
    layout, start = [], 0
    for fan_in, fan_out in shapes:
        b_start = start + fan_in * fan_out
        layout.append((fan_in, fan_out, start, b_start, b_start + fan_out))
        start = b_start + fan_out
    return tuple(layout)


def downstream_param_count(shapes) -> int:
    return gamma_layout(shapes)[-1][-1]


def downstream_forward(gamma: Tensor, shapes, features: Tensor) -> Tensor:
    """Evaluate the MLP whose weights ``gamma_layout`` unpacks from each of
    the (n, G) ``gamma`` rows on the (m, d) ``features``, or row i on its
    own ``features[i]`` of an (n, m, d) stack.

    Hidden activations are ReLU, and each predictor emits one logit: the
    result is (m, n), column i from row i, so one (1, G) row gives an (m, 1)
    column.  Each layer is one stacked matmul over the rows,
    ``(m, k) @ (n, k, h)`` or ``(n, m, k) @ (n, k, h)``, whose per-row
    products are exactly the ``(m, k) @ (k, h)`` of one row, so column i has
    the bits of row i alone on its features; each layer holds one
    ``(n, m, h)`` buffer (``ad.packed_mlp``).
    """
    layout = gamma_layout(shapes)
    if gamma.data.ndim != 2 or gamma.data.shape[1] != layout[-1][-1]:
        raise ValueError(f"gamma shape {gamma.data.shape} does not match "
                         f"{layout[-1][-1]} downstream parameters")
    return ad.packed_mlp(gamma, layout, features)


# ---------------------------------------------------------------------------
# full forward


def encode(params: dict[str, Tensor], cfg: HypernetConfig, features: np.ndarray,
           labels: np.ndarray, soft: bool = False):
    """Run the bottleneck on a task sample; returns (artifacts, rows, message).

    ``features`` is one (m, d) sample with (m,) ``labels``, which gives its
    ``CompressionArtifacts``, or a (T, m, d) stack of equal-size samples
    with (T, m) labels, which gives a list of them, one per sample in
    order.  Each sample is put in canonical order here, once, for every
    module.  ``rows`` are the compression rows of ``sample_compress``,
    (c', d + 1) or a (T, c', d + 1) stack (``None`` with no compressor, or
    where the samples keep different numbers of rows), and ``message`` the
    (1, b) binary message or Gaussian mean before noise of ``msg_compress``
    or ``pb_encode``, or a (T, 1, b) stack (``None`` with no message).
    Every product keeps one sample's shapes, and every reduction (the
    canonical sort, the statistics, the softmax) runs over each sample's
    own rows, so sample t gets the bits of ``encode`` on sample t alone.
    """
    order, x, y = _canonical_sets(features, labels)
    orders = order.reshape(-1, order.shape[-1])
    xs_std, y_t = _standardized_input(x), ad.constant(y)
    positions, rows, message = [()] * len(orders), None, None
    if cfg.c > 0:
        positions, rows = sample_compress(params, cfg, xs_std, y_t,
                                          np.concatenate([x, y], axis=-1), soft=soft)
        if order.ndim == 1:
            positions = [positions]
    if cfg.has_binary_message:
        message = msg_compress(params, xs_std, y_t, soft=soft)
    elif cfg.has_gaussian_message:
        message = pb_encode(params, xs_std, y_t)
    sigmas = [None] * len(orders) if message is None else message.data.reshape(len(orders), -1)
    arts = [CompressionArtifacts(tuple(sorted(o[list(pos)].tolist())), sigma)
            for o, pos, sigma in zip(orders, positions, sigmas)]
    return (arts[0] if order.ndim == 1 else arts), rows, message


def hypernet_forward(params: dict[str, Tensor], cfg: HypernetConfig,
                     features: np.ndarray, labels: np.ndarray,
                     eps: np.ndarray | None = None,
                     soft: bool = False) -> tuple[Tensor, CompressionArtifacts]:
    """Run the architecture on a task sample as one graph; returns (gamma, bottleneck).

    ``encode``, then ``reconstruct``; gamma is the sample's (1, G) row.
    Architectures with a Gaussian message add the noise ``eps`` to the
    posterior mean (zeros give the deterministic decoder); the others
    ignore it.
    """
    artifacts, rows, message = encode(params, cfg, features, labels, soft=soft)
    if cfg.has_gaussian_message:
        if eps is None:
            raise ValueError(f"{cfg.architecture} samples a message; pass eps")
        message = ad.add(message, ad.constant(np.asarray(eps, dtype=np.float64).reshape(1, -1)))
    return reconstruct(params, cfg, rows, message, soft=soft), artifacts


def _constants(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """The parameters as constants sharing their arrays: modules run on them
    build no gradient graph.  Evaluation wraps them once per call, in
    ``certify_tasks``, ``_validation_error`` and ``mc_expected_loss``; every
    function it calls runs on the parameters it is given."""
    return {name: ad.constant(t.data) for name, t in params.items()}


def decode_gamma(params: dict[str, Tensor], cfg: HypernetConfig,
                 features: np.ndarray, labels: np.ndarray,
                 indices, messages: np.ndarray | None) -> np.ndarray:
    """Rebuild gamma rows from stored bottleneck artifacts, forward only.

    A chunk of T sets: (T, m, d) ``features``, (T, m) ``labels``, T
    compression index tuples and (T, n, b) ``messages`` (``None`` for one
    row of no message) give the (T, n, G) gamma rows.  One set is the chunk
    of one: ``features[None]``, ``labels[None]``, ``[indices]`` and
    ``messages[None]``.

    Each set's compression rows are gathered from its data and put in
    canonical order.  The sets with the same number of rows go through
    ``reconstruct`` as one stack, on the parameters as given (evaluation
    passes constants, ``_constants``): (T', c', d + 1)
    rows, each set's broadcast over its message rows, stacked (n, T', 1, b)
    with the message index leading.  Row i of set t has the bits of the
    ``hypernet_forward`` gamma of set t and message i.
    """
    features = np.asarray(features, dtype=np.float64)
    if (messages is None) == cfg.has_message:
        raise ValueError(f"{cfg.architecture} needs an (n, {cfg.b}) message matrix per set"
                         if cfg.has_message else f"{cfg.architecture} takes no messages")
    n_sets = len(features)
    if len(indices) != n_sets:
        raise ValueError(f"{len(indices)} index sets for {n_sets} sets")
    if messages is not None:
        messages = np.asarray(messages, dtype=np.float64)
        if messages.ndim != 3 or len(messages) != n_sets or messages.shape[2] != cfg.b:
            raise ValueError(f"messages must have shape ({n_sets}, n, {cfg.b}), "
                             f"got {messages.shape}")
    labels = np.asarray(labels, dtype=np.float64)
    gammas = np.empty((n_sets, 1 if messages is None else messages.shape[1],
                       downstream_param_count(cfg.mlp3_shapes)))
    for size in sorted({len(j) for j in indices}):
        sets = np.array([t for t, j in enumerate(indices) if len(j) == size])
        rows = message = None
        if size:
            idx = np.array([indices[t] for t in sets], dtype=np.intp)
            _, x, y = _canonical_sets(features[sets[:, None], idx], labels[sets[:, None], idx])
            rows = ad.constant(np.concatenate([x, y], axis=-1))
        if messages is not None:
            message = ad.constant(messages[sets].swapaxes(0, 1)[:, :, None])
        gamma = reconstruct(params, cfg, rows, message).data  # (n, T', 1, G), or (T', 1, G)
        gammas[sets] = gamma.reshape(-1, len(sets), gamma.shape[-1]).swapaxes(0, 1)
    return gammas


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, cfg: HypernetConfig, params: dict[str, Tensor],
                    master_seed: int) -> None:
    """Write ``checkpoint.json``: the config, the master seed and every
    tensor's shape and values, the values one base64 string of its
    little-endian, row-major float64 bytes (``_tensor_bytes``)."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "architecture": cfg.architecture,
        "config": asdict(cfg),
        "master_seed": int(master_seed),
        "params": {
            name: {"shape": list(t.data.shape), "values": _tensor_bytes(t.data)}
            for name, t in params.items()
        },
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def _tensor_bytes(data: np.ndarray) -> str:
    """A tensor's values as base64 of its little-endian, row-major float64 bytes."""
    return base64.b64encode(data.astype("<f8", copy=False).tobytes()).decode("ascii")


def _value_bytes(values, what: str) -> bytes:
    """The bytes a ``_tensor_bytes`` string holds; a value that is not a
    base64 string raises ``ValueError`` naming ``what``."""
    if not isinstance(values, str):
        raise ValueError(f"{what} values must be a base64 string, "
                         f"got {type(values).__name__}")
    try:
        return base64.b64decode(values, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ValueError(f"{what} values are not valid base64: {exc}") from None


def load_checkpoint(path) -> tuple[HypernetConfig, dict[str, Tensor], int]:
    """Read a checkpoint; its tensors must match the layout of its config.

    The document holds the keys ``save_checkpoint`` writes and no other,
    and its ``architecture`` is its config's.  The config must hold every
    ``HypernetConfig`` field with its type, and the tensors must be its
    ``param_layout``: the same names, each with its shape and 8 bytes of
    values per element; no init is drawn.  The first unknown, missing or
    mistyped key and the first missing, misshapen, non-finite or unexpected
    tensor raise ``ValueError`` naming it, as do a document that is not a
    JSON object holding a ``format_version``, an ``architecture`` other
    than the config's (naming both), a ``params`` that is missing or not a
    JSON object, a ``master_seed`` that is missing or not an int >= 0 (a
    bool is not an int here) and a values block that is not a base64
    string.
    """
    doc = json.loads(Path(path).read_text())
    version = require_key(doc, "format_version", "checkpoint")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    _refuse_unknown_keys(doc, _CHECKPOINT_KEYS, "checkpoint")
    cfg = settings_from_json(HypernetConfig, doc.get("config"), "checkpoint config")
    if (architecture := require_key(doc, "architecture", "checkpoint")) != cfg.architecture:
        raise ValueError(f"checkpoint key 'architecture' is {architecture!r}, but its "
                         f"config's architecture is {cfg.architecture!r}")
    stored = require_key(doc, "params", "checkpoint", dict)
    master_seed = require_key(doc, "master_seed", "checkpoint")
    if type(master_seed) is not int or master_seed < 0:
        raise ValueError(f"checkpoint key 'master_seed' is {master_seed!r}, "
                         f"expected an int >= 0")
    params = {}
    for name, shape, _ in param_layout(cfg):
        if name not in stored:
            raise ValueError(f"checkpoint has no tensor {name!r}")
        what = f"checkpoint tensor {name!r}"
        raw = _value_bytes(require_key(stored[name], "values", what), what)
        stored_shape = tuple(require_key(stored[name], "shape", what))
        size = math.prod(shape)
        if stored_shape != shape or len(raw) != 8 * size:
            raise ValueError(f"{what} has shape {stored_shape} and {len(raw)} value bytes, "
                             f"expected shape {shape} and {8 * size} bytes")
        values = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if not np.isfinite(values).all():  # training raises before it saves one
            raise ValueError(f"{what} holds a non-finite value, "
                             f"{values.flat[np.argmin(np.isfinite(values))]}")
        params[name] = Tensor(values, requires_grad=True)
    extra = [name for name in stored if name not in params]
    if extra:
        raise ValueError(f"checkpoint tensor {extra[0]!r} is not part of the "
                         f"{cfg.architecture} layout")
    return cfg, params, master_seed
