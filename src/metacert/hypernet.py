"""Hypernetwork architectures that map a dataset to downstream-network weights.

Four meta-predictor variants share the same building blocks:

* ``PBH``        set encoder -> Gaussian latent message -> decoder;
* ``SCH_MINUS``  attention sample compressor -> reconstructor;
* ``SCH_PLUS``   sample compressor + binary message compressor -> reconstructor;
* ``PBSCH``      sample compressor + Gaussian message encoder -> reconstructor.

The downstream parameters depend on the input dataset only through the
bottleneck (selected rows, message), which is what the certificates charge
for.  Set-valued inputs are sorted once, lexicographically by row, by
``hypernet_forward`` / ``decode_gamma``; inner modules require canonical
order.  Every architecture is therefore exactly permutation invariant, bit
for bit.

Tasks arrive at wildly different locations and scales, and the networks use
no batch normalization, so each set-consuming module standardizes its own
input view: the compressor and message networks standardize the support
features they receive, and the reconstructor standardizes the compression
rows by the rows' own statistics, folding the inverse affine map into the
first downstream layer it emits.  Every statistic is a function of the
module's own legitimate input (the full support set for the compressors, the
compression rows alone for the reconstructor), so the information-bottleneck
separation is preserved exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .optim import kaiming_uniform_init
from .rng import Rng
from .tasks import settings_from_json

ARCHITECTURES = ("PBH", "SCH_MINUS", "SCH_PLUS", "PBSCH")
CHECKPOINT_VERSION = 1


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
        if self.deepset_dim < 1:
            raise ValueError("deepset_dim must be >= 1")
        arch = self.architecture
        if arch == "PBH" and not (self.c == 0 and self.b >= 1):
            raise ValueError("PBH requires c = 0 and b >= 1")
        if arch == "SCH_MINUS" and not (self.c >= 1 and self.b == 0):
            raise ValueError("SCH_MINUS requires c >= 1 and b = 0")
        if arch == "SCH_PLUS" and not (self.c >= 1 and self.b >= 1):
            raise ValueError("SCH_PLUS requires c >= 1 and b >= 1")
        if arch == "PBSCH" and self.b < 1:
            raise ValueError("PBSCH requires b >= 1")
        object.__setattr__(self, "mlp1", tuple(self.mlp1))
        object.__setattr__(self, "mlp2", tuple(self.mlp2))
        object.__setattr__(self, "mlp3", tuple(self.mlp3))

    @property
    def has_gaussian_message(self) -> bool:
        return self.architecture in ("PBH", "PBSCH")

    @property
    def has_binary_message(self) -> bool:
        return self.architecture == "SCH_PLUS"

    @property
    def has_message(self) -> bool:
        return self.architecture != "SCH_MINUS"


@dataclass
class CompressionArtifacts:
    """Per-task bottleneck output: the only channel from data to gamma."""

    indices: tuple[int, ...]                 # distinct, ascending, into the input set
    binary_message: np.ndarray | None        # values in {-1, +1}, or None
    gaussian_mean: np.ndarray | None         # posterior mean mu, or None
    gamma: np.ndarray                        # flat downstream weights
    mlp3_shapes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("compression indices must be distinct")
        if self.binary_message is not None and self.gaussian_mean is not None:
            raise ValueError("at most one of binary message / Gaussian mean may be set")
        expected = downstream_param_count(self.mlp3_shapes)
        if self.gamma.size != expected:
            raise ValueError(f"gamma has {self.gamma.size} entries, expected {expected}")

    @property
    def c_effective(self) -> int:
        return len(self.indices)


# ---------------------------------------------------------------------------
# construction
#
# Parameters live in a plain dict of named tensors; insertion order is the
# canonical order (initialization, Adam and the checkpoint all follow it).


def _init_mlp(params: dict[str, Tensor], prefix: str, sizes: list[int], rng: Rng) -> None:
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        params[f"{prefix}.w{i}"] = kaiming_uniform_init((fan_in, fan_out), fan_in, rng)
        params[f"{prefix}.b{i}"] = Tensor(np.zeros((1, fan_out)), requires_grad=True)


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


def init_hypernet_params(cfg: HypernetConfig, rng: Rng) -> dict[str, Tensor]:
    """Create all parameters in a fixed order from a single stream."""
    params: dict[str, Tensor] = {}
    d, dp = cfg.input_dim, cfg.deepset_dim
    deepset_sizes = [d, *cfg.mlp2, dp]
    if cfg.c > 0:
        _init_mlp(params, "compressor.deepset", deepset_sizes, rng)
        _init_mlp(params, "compressor.keys", [d, *cfg.mlp1, cfg.attention_dim], rng)
        for h in range(cfg.c):
            _init_mlp(params, f"compressor.query{h}", [dp, cfg.attention_dim], rng)
    if cfg.has_message:
        _init_mlp(params, "message.deepset", deepset_sizes, rng)
        _init_mlp(params, "message.trunk", [dp, *cfg.mlp1, cfg.b], rng)
    if cfg.c > 0:
        _init_mlp(params, "recon.deepset", deepset_sizes, rng)
    else:
        params["recon.const"] = kaiming_uniform_init((1, dp), dp, rng)
    trunk_in = dp + (cfg.b if cfg.has_message else 0)
    gamma_size = downstream_param_count(downstream_shapes(d, cfg.mlp3))
    _init_mlp(params, "recon.trunk", [trunk_in, *cfg.mlp1, gamma_size], rng)
    return params


# ---------------------------------------------------------------------------
# set encoding

# Scale floors for per-set standardization: absolute, and relative to the
# widest coordinate (bounds the anisotropy of near-collinear sets).
_STD_FLOOR_ABS = 1e-2
_STD_FLOOR_REL = 0.05


def set_statistics(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate mean and floored standard deviation of a point set.

    A single point gets unit scale (centering only).
    """
    feats = np.asarray(features, dtype=np.float64)
    mean = feats.mean(axis=0)
    if feats.shape[0] < 2:
        return mean, np.ones_like(mean)
    std = feats.std(axis=0)
    floor = max(_STD_FLOOR_ABS, _STD_FLOOR_REL * float(std.max()))
    return mean, np.maximum(std, floor)


def _standardize(features: Tensor, mean: np.ndarray, std: np.ndarray) -> Tensor:
    m = features.data.shape[0]
    centered = ad.sub(features, ad.constant(np.tile(mean, (m, 1))))
    return ad.mul_elem(centered, np.tile(1.0 / std, (m, 1)))


def _standardized_input(features: Tensor) -> Tensor:
    """The input set standardized by its own statistics, as a constant.

    The input set carries no gradient, so the map is applied in numpy, with
    the same arithmetic as ``_standardize``.  On a canonically ordered set
    the statistics are exactly permutation invariant, float summation order
    included.
    """
    mean, std = set_statistics(features.data)
    return ad.constant((features.data - mean) * (1.0 / std))


def canonical_order(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Lexicographic row order of [features | labels]; ties keep input order.

    Encoding a set through this order makes every aggregation exactly
    permutation invariant, including the floating-point summation order.
    """
    joined = np.column_stack([features, np.asarray(labels).reshape(len(features), -1)])
    return np.lexsort(tuple(joined[:, j] for j in reversed(range(joined.shape[1]))))


def deepset_embed(params: dict[str, Tensor], prefix: str, features: Tensor,
                  labels: Tensor) -> Tensor:
    """Set embedding z = (1/m) M^T y of a canonically ordered set.

    M holds the per-row network outputs and y is the +-1 label column.  The
    caller supplies the rows in canonical order, which fixes the float
    summation order and so makes z exactly permutation invariant.
    """
    m = features.data.shape[0]
    if m == 0:
        raise ValueError("cannot embed an empty set")
    rows = mlp_forward(params, prefix, features)
    pooled = ad.matmul(ad.transpose(rows), labels)          # (d', 1)
    return ad.mul_scalar(ad.transpose(pooled), 1.0 / m)     # (1, d')


def pb_encode(params: dict[str, Tensor], features: Tensor, labels: Tensor) -> Tensor:
    """Gaussian posterior mean mu = tanh(trunk(deepset(S))), each entry in (-1, 1).

    ``features`` and ``labels`` form a canonically ordered set.
    """
    z = deepset_embed(params, "message.deepset", _standardized_input(features), labels)
    return ad.tanh(mlp_forward(params, "message.trunk", z))


def msg_compress(params: dict[str, Tensor], features: Tensor, labels: Tensor,
                 soft: bool = False) -> Tensor:
    """Binary message in {-1, +1}^b; straight-through sign on the same trunk.

    ``features`` and ``labels`` form a canonically ordered set.
    """
    z = deepset_embed(params, "message.deepset", _standardized_input(features), labels)
    return ad.sign_st(mlp_forward(params, "message.trunk", z), soft=soft)


def sample_compress(params: dict[str, Tensor], cfg: HypernetConfig, features: Tensor,
                    labels: Tensor, soft: bool = False) -> tuple[tuple[int, ...], Tensor]:
    """Select ``cfg.c`` rows with independent scaled dot-product attention heads.

    ``features`` and ``labels`` form a canonically ordered set.  Queries are
    per-head projections of the set embedding, keys come from a shared
    feedforward network over the (standardized) features, and the values
    are the raw (feature, label) rows themselves.  Each head
    contributes its argmax row through a straight-through selection; heads
    may agree, in which case the duplicate rows are dropped so the output
    depends on the distinct selected set only.

    Returns (distinct selected indices in the input's coordinates, ascending;
    selected rows, one per distinct index, in that order).
    """
    m = features.data.shape[0]
    if cfg.c > m:
        raise ValueError(f"compression size {cfg.c} exceeds set size {m}")
    values = ad.concat([features, labels], axis=1)
    xs_std = _standardized_input(features)
    keys = mlp_forward(params, "compressor.keys", xs_std)
    z = deepset_embed(params, "compressor.deepset", xs_std, labels)
    scale = 1.0 / math.sqrt(cfg.attention_dim)
    chosen: dict[int, Tensor] = {}  # input position -> selected row
    soft_rows: list[Tensor] = []
    for h in range(cfg.c):
        query = mlp_forward(params, f"compressor.query{h}", z)      # (1, d_k)
        logits = ad.mul_scalar(ad.matmul(keys, ad.transpose(query)), scale)
        probs = ad.softmax(logits, axis=0)
        pos = int(np.argmax(probs.data[:, 0]))                      # ties -> lowest index
        row = ad.hard_select_st(probs, values, soft=soft)
        soft_rows.append(row)
        chosen.setdefault(pos, row)
    indices = tuple(sorted(chosen))
    if soft:
        # surrogate twin: every head's mixture row, no deduplication (the
        # mixtures vary continuously, so there is nothing discrete to merge)
        return indices, ad.concat(soft_rows, axis=0)
    # ascending positions of a canonically ordered set: the rows come out in
    # canonical content order, so they are permutation invariant too
    return indices, ad.concat([chosen[pos] for pos in indices], axis=0)


def reconstruct(params: dict[str, Tensor], cfg: HypernetConfig,
                rows: Tensor | None, message: Tensor | None,
                soft: bool = False) -> Tensor:
    """Emit downstream weights gamma from (compression rows, message).

    ``rows`` arrive in canonical content order (the soft twin's mixture rows
    arrive in head order).  They are standardized by their own mean and
    scale before the set embedding, and the trunk's first-layer weights are
    emitted in those standardized coordinates; the inverse affine map is
    folded back into the returned gamma, so the downstream network still
    consumes raw features.  Both statistics are functions of the compression
    rows alone.

    The statistics are stop-gradients on the production path (rescaling
    gradients of order var^-3/2 destabilize the selection heads); the soft
    twin (``soft=True``) computes them with graph ops instead, so the whole
    surrogate graph is exactly finite-difference checkable.

    With no compression rows (c = 0) the set-embedding branch is a learned
    constant vector, so the architecture degenerates gracefully to a pure
    encoder-decoder and gamma is the trunk output unchanged.
    """
    if rows is None and message is None:
        raise ValueError("reconstruct needs compression rows or a message")
    shapes = downstream_shapes(cfg.input_dim, cfg.mlp3)
    if rows is None:
        emb = params["recon.const"]
        trunk_in = emb if message is None else ad.concat([emb, message], axis=1)
        return mlp_forward(params, "recon.trunk", trunk_in)
    d = cfg.input_dim
    feats = ad.slice_cols(rows, 0, d)
    labs = ad.slice_cols(rows, d, d + 1)
    n = feats.data.shape[0]
    if soft:
        # differentiable statistics; scale = sqrt(var + floor^2) smooths the floor
        row_mean = ad.constant(np.full((1, n), 1.0 / n))
        ones_col = ad.constant(np.ones((n, 1)))
        mu = ad.matmul(row_mean, feats)                              # (1, d)
        centered = ad.sub(feats, ad.matmul(ones_col, mu))
        var = ad.matmul(row_mean, ad.mul(centered, centered))
        inv_scale = ad.power_scalar(
            ad.add(var, ad.constant(np.full((1, d), _STD_FLOOR_ABS ** 2))), -0.5)
        feats_std = ad.mul(centered, ad.matmul(ones_col, inv_scale))
    else:
        mean_np, std_np = set_statistics(feats.data)
        mu = ad.constant(mean_np.reshape(1, -1))
        inv_scale = ad.constant((1.0 / std_np).reshape(1, -1))
        feats_std = _standardize(feats, mean_np, std_np)
    emb = deepset_embed(params, "recon.deepset", feats_std, labs)
    trunk_in = emb if message is None else ad.concat([emb, message], axis=1)
    raw = mlp_forward(params, "recon.trunk", trunk_in)
    # Fold x -> (x - mu)/scale into the first downstream layer: with W~, b~
    # emitted for standardized inputs, W1 = diag(1/scale) W~ and
    # b1 = b~ - (mu/scale) W~ give the identical predictor on raw features.
    fan_in, fan_out = shapes[0]
    w_tilde = ad.reshape(ad.slice_cols(raw, 0, fan_in * fan_out), (fan_in, fan_out))
    b_tilde = ad.slice_cols(raw, fan_in * fan_out, fan_in * fan_out + fan_out)
    w1 = ad.mul(w_tilde, ad.matmul(ad.transpose(inv_scale),
                                   ad.constant(np.ones((1, fan_out)))))
    b1 = ad.sub(b_tilde, ad.matmul(ad.mul(mu, inv_scale), w_tilde))
    rest = ad.slice_cols(raw, fan_in * fan_out + fan_out, raw.data.shape[1])
    return ad.concat([ad.reshape(w1, (1, fan_in * fan_out)), b1, rest], axis=1)


# ---------------------------------------------------------------------------
# downstream predictor


def downstream_shapes(input_dim: int, mlp3) -> tuple[tuple[int, int], ...]:
    sizes = [input_dim, *mlp3, 1]
    return tuple(zip(sizes[:-1], sizes[1:]))


def downstream_param_count(shapes) -> int:
    return sum(a * b + b for a, b in shapes)


def downstream_forward(gamma: Tensor, shapes, features: Tensor) -> Tensor:
    """Evaluate the MLP whose weights are unpacked from ``gamma``.

    Layout per layer, in order: fan_in x fan_out weight block (row-major),
    then fan_out biases.  Hidden activations are ReLU, output is one logit.
    """
    expected = downstream_param_count(shapes)
    if gamma.data.shape != (1, expected):
        raise ValueError(f"gamma shape {gamma.data.shape} does not match "
                         f"{expected} downstream parameters")
    h = features
    offset = 0
    for layer, (fan_in, fan_out) in enumerate(shapes):
        w = ad.reshape(ad.slice_cols(gamma, offset, offset + fan_in * fan_out),
                       (fan_in, fan_out))
        offset += fan_in * fan_out
        bias = ad.slice_cols(gamma, offset, offset + fan_out)
        offset += fan_out
        h = ad.dense(h, w, bias, relu=layer < len(shapes) - 1)
    return h


# ---------------------------------------------------------------------------
# full forward


def hypernet_forward(params: dict[str, Tensor], cfg: HypernetConfig,
                     features: np.ndarray, labels: np.ndarray,
                     rng: Rng | None = None, eps: np.ndarray | None = None,
                     soft: bool = False) -> tuple[Tensor, CompressionArtifacts]:
    """Run the architecture on a task sample; returns (gamma, bottleneck).

    The sample is put in canonical order here, once, for every module.
    Architectures with a Gaussian message add noise ``eps`` to the posterior
    mean; pass ``eps`` explicitly (e.g. zeros for the deterministic decoder)
    or supply ``rng`` to sample it.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    order = canonical_order(features, labels)
    x_t = ad.constant(features[order])
    y_t = ad.constant(labels[order])
    indices: tuple[int, ...] = ()
    rows = None
    if cfg.c > 0:
        positions, rows = sample_compress(params, cfg, x_t, y_t, soft=soft)
        indices = tuple(sorted(int(order[pos]) for pos in positions))

    message = None
    binary_message = None
    gaussian_mean = None
    if cfg.has_binary_message:
        message = msg_compress(params, x_t, y_t, soft=soft)
        binary_message = message.data.reshape(-1).copy()
    elif cfg.has_gaussian_message:
        mu = pb_encode(params, x_t, y_t)
        gaussian_mean = mu.data.reshape(-1).copy()
        if eps is None:
            if rng is None:
                raise ValueError(f"{cfg.architecture} samples a message; pass rng or eps")
            eps = rng.normal(cfg.b)
        message = ad.add(mu, ad.constant(np.asarray(eps, dtype=np.float64).reshape(1, -1)))

    gamma = reconstruct(params, cfg, rows, message, soft=soft)
    shapes = downstream_shapes(cfg.input_dim, cfg.mlp3)
    artifacts = CompressionArtifacts(indices, binary_message, gaussian_mean,
                                     gamma.data.reshape(-1).copy(), shapes)
    return gamma, artifacts


def decode_gamma(params: dict[str, Tensor], cfg: HypernetConfig,
                 features: np.ndarray, labels: np.ndarray,
                 indices, message: np.ndarray | None) -> Tensor:
    """Rebuild gamma from stored bottleneck artifacts (no set encoding).

    The compression rows are reassembled from the task data at ``indices``
    and put in canonical order; the result matches the original forward bit
    for bit, which is exactly the property the certificates rely on.
    """
    rows = None
    if len(indices) > 0:
        idx = np.asarray(indices, dtype=np.intp)
        feats = np.asarray(features, dtype=np.float64)[idx]
        labs = np.asarray(labels, dtype=np.float64)[idx]
        rows = ad.constant(np.column_stack([feats, labs])[canonical_order(feats, labs)])
    msg_t = None if message is None else ad.constant(np.asarray(message, dtype=np.float64).reshape(1, -1))
    return reconstruct(params, cfg, rows, msg_t)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, cfg: HypernetConfig, params: dict[str, Tensor],
                    master_seed: int) -> None:
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "architecture": cfg.architecture,
        "config": asdict(cfg),
        "master_seed": int(master_seed),
        "params": {
            name: {"shape": list(t.data.shape), "values": t.data.reshape(-1).tolist()}
            for name, t in params.items()
        },
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def load_checkpoint(path) -> tuple[HypernetConfig, dict[str, Tensor], int]:
    """Read a checkpoint; its tensors must match the layout of its config.

    The config must hold every ``HypernetConfig`` field with its type, and
    the layout is the one ``init_hypernet_params`` builds for it: the same
    names, each with its shape.  The first unknown, missing or mistyped key
    and the first missing, misshapen or unexpected tensor raise
    ``ValueError`` naming it.
    """
    doc = json.loads(Path(path).read_text())
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('format_version')}")
    cfg = settings_from_json(HypernetConfig, doc.get("config"), "checkpoint config")
    stored = doc["params"]
    params = init_hypernet_params(cfg, Rng(0))
    for name, t in params.items():
        if name not in stored:
            raise ValueError(f"checkpoint has no tensor {name!r}")
        arr = np.array(stored[name]["values"], dtype=np.float64)
        if tuple(stored[name]["shape"]) != t.data.shape or arr.size != t.data.size:
            raise ValueError(f"checkpoint tensor {name!r} has shape "
                             f"{tuple(stored[name]['shape'])} and {arr.size} values, "
                             f"expected shape {t.data.shape}")
        t.data = arr.reshape(t.data.shape)
    extra = [name for name in stored if name not in params]
    if extra:
        raise ValueError(f"checkpoint tensor {extra[0]!r} is not part of the "
                         f"{cfg.architecture} layout")
    return cfg, params, int(doc["master_seed"])
