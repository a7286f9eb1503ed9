"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

The graph is built define-by-run: every operation returns a new ``Tensor``
that records its parents and a backward closure.  ``Tensor.backward`` walks
the nodes reachable from the loss in strict reverse creation order, so each
node's backward closure runs exactly once, after all of its consumers have
already accumulated into its gradient.  Gradients add across fan-out.

Only tensors that need a gradient are part of the graph.  A leaf needs one
when it is built with ``requires_grad=True``; an op's output needs one when
any of its parents does.  Every other op output is a constant: it records
no parents and no backward closure, and no closure computes or stores a
gradient for it, so after ``backward`` a tensor that needs no gradient
holds no ``.grad``.

Only the handful of primitives the hypernetworks need are provided:

* ``dense``, one fused dense layer ``x @ w + b``, optionally ReLU'd;
* ``attention_select``, one node for all attention heads of the sample
  compressor: per-head queries, scaled dot-product logits, softmax and
  straight-through row selection;
* one node per fused model stage, each computing its forward in numpy:
  ``set_pool``, the DeepSet pooling (1/m) M^T y; ``standardize``, a set's
  rows mapped by ``(x - mean) * inv_scale``; ``fold``, that map folded into
  the first layer of packed MLP weights; ``packed_mlp``, an MLP whose
  weights and biases are unpacked from each row of a stack of gamma rows;
* structural ops: ``matmul``, ``add``, ``sub``, ``mul_scalar``, ``mul_elem``,
  ``mul``, ``power_scalar``, ``mean``, ``concat``, ``transpose``,
  ``reshape``, ``slice_cols``.  The fused nodes replaced every ``src/``
  call of ``matmul``, ``transpose``, ``reshape``, ``mul_scalar`` and
  ``sub``; they stay as the tests' reference ops;
* activations ``tanh`` and ``softmax``;
* straight-through surrogates ``sign_st`` and ``hard_select_st``;
* the ``binary_cross_entropy`` loss, plus the non-differentiable metrics
  ``zero_one_errors``, ``zero_one_loss`` and ``linear_loss``, and
  ``row_losses``, the last two for each row of a stack of logits.

Everything is float64 and no op mutates its inputs' values.  A tensor
with more than 2 axes is a stack (T, ..., m, k) of independent sets.  The
training graph's nodes, ``dense``, ``set_pool``, ``standardize``, ``fold``,
``packed_mlp``, ``concat``, ``slice_cols``, ``tanh``, ``sign_st``,
``attention_select``, ``add`` and ``binary_cross_entropy``, take such
stacks forward and backward, with or without gradients: training runs one
task's 2-D arrays through the same code that evaluation runs over many
sets at once.  Every stacked product keeps one set's shapes, e.g.
``(T, m, k) @ (k, h)``, so each set gets the bits of the same op on that
set alone; a flat ``(T m, k) @ (k, h)`` product would round differently.
A gradient is summed down to its parent's shape (``_accum``), so a
parameter shared by the sets of a stack gets the sum of their gradients,
and a stack of one gets the bits of the 2-D op.
"""

from __future__ import annotations

import itertools

import numpy as np

_SEQ = itertools.count()


class NonFiniteError(ValueError):
    """A forward value that must be finite is not (NaN or infinity)."""


class Tensor:
    """Dense array node in a reverse-mode computation graph.

    It needs a gradient when built with ``requires_grad=True`` or when a
    parent does.  A tensor with more than 2 axes is a stack of sets.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None, op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.op = op
        self._seq = next(_SEQ)
        # an op none of whose parents needs a gradient is a constant: it
        # records no parents and no backward closure (a plain loop, as this
        # runs for every node)
        for p in parents:
            if p.requires_grad:
                requires_grad = True
                break
        self.requires_grad = requires_grad
        self._parents = tuple(parents) if requires_grad else ()
        self._backward = backward if requires_grad else None

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def backward(self) -> None:
        """Backpropagate from this scalar through every reachable node."""
        if self.data.size != 1:
            raise ValueError("backward() must start from a scalar")
        nodes = []
        seen = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
        # Reverse creation order is a reverse topological order for a
        # define-by-run graph; consumers always run before their inputs.
        nodes.sort(key=lambda n: n._seq, reverse=True)
        self.grad = np.ones_like(self.data)
        for node in nodes:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.data.shape}, op={self.op!r})"


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into t's gradient, summed over the axes that broadcasting
    added to or stretched in t's shape: a parameter shared by the sets of a
    stack gets the sum of their gradients, in stack order."""
    if g.shape != t.data.shape:
        lead = g.ndim - t.data.ndim
        stretched = [lead + i for i, n in enumerate(t.data.shape) if n == 1 < g.shape[lead + i]]
        g = g.sum(axis=(*range(lead), *stretched)).reshape(t.data.shape)
    if t.grad is None:
        # a fresh buffer in t.data's memory layout (a gradient's layout picks
        # the BLAS path of every product it enters); adding 0.0 turns -0.0
        # into +0.0 exactly as accumulating into zeros did
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g


def _accum_at(t: Tensor, at: tuple, g: np.ndarray) -> None:
    """Add ``g`` into t's gradient at index ``at``, which starts as zeros: a
    column range ``(..., slice(start, stop))``, or one set's index of the
    leading axes (``()`` for one set)."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad[at] += g


def _mT(a: np.ndarray) -> np.ndarray:
    """The matrix transpose of each set of a stack (the last two axes)."""
    return a.swapaxes(-1, -2)


def constant(data) -> Tensor:
    return Tensor(data)


# ---------------------------------------------------------------------------
# structural ops
#
# A backward closure of an op with several parents skips each parent that
# needs no gradient before computing its share; an op with one parent is a
# constant when that parent is, so its closure never runs.


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return Tensor(a.data @ b.data, parents=(a, b), backward=backward, op="matmul")


def dense(x: Tensor, w: Tensor, b: Tensor, relu: bool) -> Tensor:
    """One dense layer ``x @ w + b`` with a (1, n) bias row, ReLU'd if ``relu``;
    ``x`` is (m, k) or a stack (..., m, k)."""
    if (x.data.ndim < 2 or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]
            or b.data.shape != (1, w.data.shape[1])):
        raise ValueError(f"dense shape mismatch: {x.data.shape} @ {w.data.shape} "
                         f"+ {b.data.shape}")
    out = x.data @ w.data
    out += b.data  # the bias and the ReLU write into the product's buffer
    if relu:
        np.maximum(out, 0.0, out=out)

    def backward(g):
        if relu:
            g = g * (out > 0.0)  # the ReLU's mask: out > 0 exactly where x @ w + b > 0
        if b.requires_grad:
            _accum(b, g.sum(axis=-2, keepdims=True))
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, _mT(x.data) @ g)

    return Tensor(out, parents=(x, w, b), backward=backward, op="dense")


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} + {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, g)

    return Tensor(a.data + b.data, parents=(a, b), backward=backward, op="add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"sub shape mismatch: {a.data.shape} - {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, -g)

    return Tensor(a.data - b.data, parents=(a, b), backward=backward, op="sub")


def mul_scalar(a: Tensor, scalar: float) -> Tensor:
    s = float(scalar)

    def backward(g):
        _accum(a, g * s)

    return Tensor(a.data * s, parents=(a,), backward=backward, op="mul_scalar")


def mul_elem(a: Tensor, weights) -> Tensor:
    """Elementwise product with a constant array (broadcastable against a)."""
    w = np.asarray(weights, dtype=np.float64)
    y = a.data * w
    if y.shape != a.data.shape:
        raise ValueError(f"mul_elem weights {w.shape} do not preserve shape {a.data.shape}")

    def backward(g):
        _accum(a, g * w)

    return Tensor(y, parents=(a,), backward=backward, op="mul_elem")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch: {a.data.shape} * {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    return Tensor(a.data * b.data, parents=(a, b), backward=backward, op="mul")


def power_scalar(a: Tensor, exponent: float) -> Tensor:
    """Elementwise power with a fixed exponent; inputs must be positive for
    non-integer exponents."""
    p = float(exponent)
    if p != int(p) and (a.data <= 0.0).any():
        raise ValueError("power_scalar with fractional exponent needs positive inputs")

    def backward(g):
        _accum(a, g * p * a.data ** (p - 1.0))

    return Tensor(a.data ** p, parents=(a,), backward=backward, op="power_scalar")


def mean(a: Tensor) -> Tensor:
    n = a.data.size

    def backward(g):
        _accum(a, np.full_like(a.data, g.reshape(-1)[0] / n))

    return Tensor(np.array([[a.data.mean()]]), parents=(a,), backward=backward, op="mean")


def concat(tensors, axis: int) -> Tensor:
    """Join tensors along ``axis``.  With a negative ``axis`` the axes before
    it broadcast against each other, as a set's embedding does over the
    stacked message rows of that set."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of no tensors")
    parts = [t.data for t in tensors]
    if axis < 0 and len({p.shape[:axis] for p in parts}) > 1:
        lead = np.broadcast_shapes(*(p.shape[:axis] for p in parts))
        parts = [np.broadcast_to(p, lead + p.shape[axis:]) for p in parts]

    def backward(g):
        offset = 0
        for t, part in zip(tensors, parts):
            size = part.shape[axis]
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offset, offset + size)
                _accum(t, g[tuple(sl)])
            offset += size

    return Tensor(np.concatenate(parts, axis=axis),
                  parents=tuple(tensors), backward=backward, op="concat")


def transpose(a: Tensor) -> Tensor:
    def backward(g):
        _accum(a, g.T)

    return Tensor(a.data.T, parents=(a,), backward=backward, op="transpose")


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), parents=(a,), backward=backward, op="reshape")


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim < 2 or not (0 <= start <= stop <= a.data.shape[-1]):
        raise ValueError(f"bad column slice [{start}:{stop}] of {a.data.shape}")

    def backward(g):
        _accum_at(a, (..., slice(start, stop)), g)

    return Tensor(a.data[..., start:stop].copy(), parents=(a,), backward=backward,
                  op="slice_cols")


# ---------------------------------------------------------------------------
# activations


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def backward(g):
        _accum(a, g * (1.0 - y * y))

    return Tensor(y, parents=(a,), backward=backward, op="tanh")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # e = exp(-|x|) never overflows; minimum(x, -x) keeps a NaN's sign
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _sign(x) -> np.ndarray:
    """+1 where ``x >= 0`` (sign(0) = +1), else -1 (NaN included)."""
    return np.where(x >= 0.0, 1.0, -1.0)


def softmax(a: Tensor, axis: int) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        _accum(a, p * (g - (g * p).sum(axis=axis, keepdims=True)))

    return Tensor(p, parents=(a,), backward=backward, op="softmax")


# ---------------------------------------------------------------------------
# straight-through surrogates


def sign_st(a: Tensor, soft: bool = False) -> Tensor:
    """Sign in {-1, +1} with sign(0) = +1; backward is the identity surrogate.

    With ``soft=True`` the forward is the identity as well, exposing the
    declared surrogate so it can be finite-difference checked.
    """
    y = a.data.copy() if soft else _sign(a.data)

    def backward(g):
        _accum(a, g)

    return Tensor(y, parents=(a,), backward=backward, op="sign_st")


def hard_select_st(probs: Tensor, values: Tensor, soft: bool = False) -> Tensor:
    """Select the row of ``values`` with the highest probability.

    ``probs`` is an (m, 1) probability column; ties break to the lowest
    index.  Backward treats the output as the soft mixture sum_i p_i v_i,
    so gradient flows into both the probabilities and the values.  With
    ``soft=True`` the forward is the mixture itself.
    """
    p = probs.data
    if p.ndim != 2 or p.shape[1] != 1 or p.shape[0] != values.data.shape[0]:
        raise ValueError(f"hard_select_st shapes: {p.shape} vs {values.data.shape}")
    if np.isnan(p).any():
        raise NonFiniteError("NaN in selection probabilities")
    if (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("selection probabilities must be non-negative and sum to 1")
    if soft:
        y = p.T @ values.data
    else:
        y = values.data[np.argmax(p[:, 0])][None, :].copy()

    def backward(g):
        if probs.requires_grad:
            _accum(probs, values.data @ g.T)
        if values.requires_grad:
            _accum(values, p @ g)

    return Tensor(y, parents=(probs, values), backward=backward, op="hard_select_st")


def attention_select(z: Tensor, keys: Tensor, heads, values: np.ndarray, scale: float,
                     soft: bool = False) -> tuple[tuple, Tensor | None]:
    """``c`` scaled dot-product attention heads, each selecting one row of ``values``.

    ``heads`` holds one ``(w, b)`` pair per head.  Head h's query is the
    dense layer ``z @ w + b`` of the (1, d') embedding ``z``, its logits are
    ``scale * keys @ query.T`` over the (m, a) ``keys``, and it selects the
    argmax row of their softmax over the m rows (ties to the lowest index)
    through the straight-through rule of ``hard_select_st``.  A head whose
    row an earlier head already selected is dropped, and its query gets no
    gradient.  Returns (the distinct selected positions, ascending; their
    rows of the constant (m, k) ``values``, in that order).  With
    ``soft=True`` the rows are every head's mixture p^T values, in head
    order.  On a stack, (T, 1, d') ``z``, (T, m, a) ``keys`` and (T, m, k)
    ``values``, it returns one tuple of positions per set and a (T, c', k)
    stack of rows, or no rows (``None``) where collided heads leave the sets
    different numbers of rows.

    One node stands for the per-head graph dense -> transpose -> matmul ->
    mul_scalar -> softmax -> hard_select_st plus the concat of the rows, and
    matches it bit for bit: forward takes the queries as one
    ``z @ [w_0 | ... | w_c-1]`` product and the logits as one stacked
    ``(1, m, a) @ (c, a, 1)`` product (a flat ``(m, a) @ (a, c)`` GEMM rounds
    differently), every product keeping one set's shapes, and backward runs
    each set's heads last to first with the per-head shapes, as that graph
    did, the sets in stack order.  (A zero gradient entry may differ in sign
    where a softmax underflows to an exact 0; Adam's update is the same for
    either sign.)
    """
    c = len(heads)
    m, a = keys.data.shape[-2:]
    parents = (z, keys, *(t for pair in heads for t in pair))
    if (c == 0 or z.data.shape[-2] != 1 or values.shape[-2] != m
            or any(w.data.shape != (z.data.shape[-1], a) or b.data.shape != (1, a)
                   for w, b in heads)):
        raise ValueError(f"attention_select shapes: z {z.data.shape}, keys {keys.data.shape}, "
                         f"values {values.shape}, heads "
                         f"{[(w.data.shape, b.data.shape) for w, b in heads]}")
    # the c heads' queries (..., c, a) and softmaxes over the m rows (..., c, m, 1)
    queries = (z.data @ np.concatenate([w.data for w, _ in heads], axis=1)
               + np.concatenate([b.data for _, b in heads], axis=1)
               ).reshape(*z.data.shape[:-2], c, a)
    logits = (keys.data[..., None, :, :] @ queries[..., None]) * scale
    e = np.exp(logits - logits.max(axis=-2, keepdims=True))
    probs = e / e.sum(axis=-2, keepdims=True)
    if np.isnan(probs).any():
        raise NonFiniteError("NaN in selection probabilities")
    # the sets of the stack in one flat list (one set is a stack of one)
    sets_probs, sets_values = probs.reshape(-1, c, m, 1), values.reshape(-1, m, values.shape[-1])
    picked, row_of = [], []  # per set: its positions; head -> its output row
    for picks in np.argmax(sets_probs[..., 0], axis=-1).tolist():
        owner: dict[int, int] = {}  # selected position -> first head selecting it
        for h, pos in enumerate(picks):
            owner.setdefault(pos, h)
        picked.append(tuple(sorted(owner)))
        kept = range(c) if soft else [owner[pos] for pos in picked[-1]]
        row_of.append({h: i for i, h in enumerate(kept)})
    positions = picked[0] if keys.data.ndim == 2 else tuple(picked)
    if len({len(rows) for rows in row_of}) > 1:
        return positions, None
    if soft:
        y = np.concatenate([_mT(probs[..., h, :, :]) @ values for h in range(c)], axis=-2)
    else:
        y = sets_values[np.arange(len(picked))[:, None], picked].reshape(
            *keys.data.shape[:-2], -1, values.shape[-1])

    def backward(g):
        g = g.reshape(-1, *g.shape[-2:])
        sets_z, sets_keys = z.data.reshape(-1, 1, z.data.shape[-1]), keys.data.reshape(-1, m, a)
        sets_queries = queries.reshape(-1, c, a)
        for t, rows in enumerate(row_of):
            at = np.unravel_index(t, keys.data.shape[:-2])
            for h in sorted(rows, reverse=True):
                w, b = heads[h]
                p = sets_probs[t, h]
                g_probs = sets_values[t] @ g[t, rows[h]:rows[h] + 1].T
                g_logits = p * (g_probs - (g_probs * p).sum(axis=0, keepdims=True)) * scale
                if keys.requires_grad:
                    _accum_at(keys, at, g_logits @ sets_queries[t, h:h + 1])
                g_query = (sets_keys[t].T @ g_logits).T
                if b.requires_grad:
                    _accum(b, g_query)
                if z.requires_grad:
                    _accum_at(z, at, g_query @ w.data.T)
                if w.requires_grad:
                    _accum(w, sets_z[t].T @ g_query)

    return positions, Tensor(y, parents=parents, backward=backward, op="attention_select")


# ---------------------------------------------------------------------------
# fused model stages
#
# Each node's forward also takes stacks (..., m, k) of sets, every product
# keeping one set's shapes.  Each backward replays, on every set, the float
# operations of the structural chain the node replaced (the same products
# on the same layouts), and accumulates into a column range of a parent as
# ``slice_cols`` does (``_accum_at``).


def set_pool(rows: Tensor, labels: Tensor) -> Tensor:
    """Set pooling (1/m) rows^T labels of (m, k) rows and an (m, 1) label
    column, as a (1, k) node (or of a stack of such sets)."""
    m = rows.data.shape[-2]
    if m == 0:
        raise ValueError("cannot embed an empty set")
    y = _mT(_mT(rows.data) @ labels.data) * (1.0 / m)

    def backward(g):
        g_pooled = _mT(g) * (1.0 / m)
        if labels.requires_grad:
            _accum(labels, rows.data @ g_pooled)
        if rows.requires_grad:
            _accum(rows, _mT(g_pooled @ _mT(labels.data)))

    return Tensor(y, parents=(rows, labels), backward=backward, op="set_pool")


def standardize(rows: Tensor, mean: Tensor, inv_scale: Tensor) -> Tensor:
    """The affine map ``(x - mean) * inv_scale`` of the first d columns x of
    the (n, k) ``rows``, by (1, d) ``mean`` and ``inv_scale`` rows, each of
    which may need a gradient (or of a stack of such sets, with (..., 1, d)
    statistics)."""
    d = mean.data.shape[-1]
    x = rows.data[..., :d]

    def backward(g):
        g_x = g * inv_scale.data
        if rows.requires_grad:
            _accum_at(rows, (..., slice(0, d)), g_x)
        if mean.requires_grad:
            _accum(mean, -g_x.sum(axis=-2, keepdims=True))
        if inv_scale.requires_grad:
            _accum(inv_scale, (g * (x - mean.data)).sum(axis=-2, keepdims=True))

    return Tensor((x - mean.data) * inv_scale.data, parents=(rows, mean, inv_scale),
                  backward=backward, op="standardize")


def fold(raw: Tensor, mean: Tensor, inv_scale: Tensor, fan_out: int) -> Tensor:
    """Fold ``standardize``'s map into the first layer of packed MLP weights.

    The (1, G) ``raw`` row opens with a layer emitted for standardized
    inputs: its fan_in x fan_out weights W~ (row-major), then its fan_out
    biases b~, where fan_in is the width of the (1, fan_in) ``mean`` and
    ``inv_scale`` rows, each of which may need a gradient.
    W = diag(inv_scale) W~ and b = b~ - (mean inv_scale) W~ give the
    identical layer on raw inputs.  A stack (..., 1, G) takes (..., 1,
    fan_in) statistics whose leading axes broadcast against raw's.
    """
    fan_in = mean.data.shape[-1]
    b_start = fan_in * fan_out
    w_tilde = raw.data[..., 0, :b_start].reshape(*raw.data.shape[:-2], fan_in, fan_out)
    shift = (mean.data * inv_scale.data) @ w_tilde
    y = np.concatenate([(w_tilde * _mT(inv_scale.data)).reshape(*raw.data.shape[:-1], b_start),
                        raw.data[..., b_start:b_start + fan_out] - shift,
                        raw.data[..., b_start + fan_out:]], axis=-1)

    def backward(g):
        g_w = g[..., 0, :b_start].reshape(*g.shape[:-2], fan_in, fan_out)
        g_shift = -g[..., b_start:b_start + fan_out]
        if raw.requires_grad:
            g_tilde = _mT(mean.data * inv_scale.data) @ g_shift + g_w * _mT(inv_scale.data)
            _accum_at(raw, (..., slice(0, b_start)), g_tilde.reshape(*g.shape[:-1], b_start))
            _accum_at(raw, (..., slice(b_start, None)), g[..., b_start:])
        if mean.requires_grad or inv_scale.requires_grad:
            g_scaled = g_shift @ _mT(w_tilde)
            if mean.requires_grad:
                _accum(mean, g_scaled * inv_scale.data)
            if inv_scale.requires_grad:
                _accum(inv_scale, (g_w * w_tilde).sum(axis=-1)[..., None, :]
                       + g_scaled * mean.data)

    return Tensor(y, parents=(raw, mean, inv_scale), backward=backward, op="fold")


def packed_mlp(gamma: Tensor, layout, x: Tensor) -> Tensor:
    """The one-output MLP packed in each (n, G) ``gamma`` row on (m, k)
    inputs ``x``, or row i on its own ``x[i]`` of an (n, m, k) stack, as one
    node.  Returns the (m, n) outputs, column i from row i, so a (1, G) row
    gives an (m, 1) column.

    ``layout`` holds one ``(fan_in, fan_out, w_start, b_start, stop)`` per
    layer; hidden layers are ReLU'd, the last is linear.  Each layer is one
    ``(m, k) @ (n, k, h)`` or ``(n, m, k) @ (n, k, h)`` stack, whose row i
    has the bits of row i alone; the bias add and the ReLU write into the
    product's buffer.
    """
    n = len(gamma.data)
    # a constant keeps no layer outputs, so evaluation holds one buffer per layer
    outs = [x.data] if gamma.requires_grad or x.requires_grad else None
    y = x.data
    for layer, (fan_in, fan_out, w_start, b_start, stop) in enumerate(layout):
        y = y @ gamma.data[:, w_start:b_start].reshape(n, fan_in, fan_out)
        y += gamma.data[:, None, b_start:stop]
        if layer < len(layout) - 1:
            np.maximum(y, 0.0, out=y)
        if outs is not None:
            outs.append(y)

    def backward(g):
        g = g.T[..., None]
        for layer in reversed(range(len(layout))):
            fan_in, fan_out, w_start, b_start, stop = layout[layer]
            if layer < len(layout) - 1:
                g = g * (outs[layer + 1] > 0.0)  # the ReLU's mask
            if gamma.requires_grad:
                _accum_at(gamma, (..., slice(b_start, stop)), g.sum(axis=-2))
                _accum_at(gamma, (..., slice(w_start, b_start)),
                          (_mT(outs[layer]) @ g).reshape(n, -1))
            if layer or x.requires_grad:
                g = g @ _mT(gamma.data[:, w_start:b_start].reshape(n, fan_in, fan_out))
        if x.requires_grad:
            _accum(x, g)

    return Tensor(y[..., 0].T, parents=(gamma, x), backward=backward, op="packed_mlp")


# ---------------------------------------------------------------------------
# losses


def binary_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean logistic loss of logits against labels in {-1, +1}, over every
    entry: (m, 1) logits of one set, or any stack of them with its labels in
    the same order."""
    z = logits.data
    if np.size(labels) != z.size:
        raise ValueError(f"logits/labels length mismatch: {z.shape} vs {np.shape(labels)}")
    y = np.asarray(labels, dtype=np.float64).reshape(z.shape)
    margin = -y * z
    # softplus(margin), computed stably
    per_example = np.maximum(margin, 0.0) + np.log1p(np.exp(-np.abs(margin)))
    n = y.size

    def backward(g):
        _accum(logits, g.reshape(-1)[0] * (-y * _sigmoid(margin)) / n)

    return Tensor(np.array([[per_example.mean()]]), parents=(logits,), backward=backward,
                  op="bce")


def zero_one_errors(logits, labels) -> int:
    """Number of sign disagreements; sign(0) counts as +1. Not differentiable."""
    z = np.asarray(logits, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if z.shape != y.shape:
        raise ValueError("logits/labels length mismatch")
    return int(np.count_nonzero(_sign(z) != y))


def zero_one_loss(logits, labels) -> float:
    """Fraction of sign disagreements; sign(0) counts as +1. Not differentiable."""
    return zero_one_errors(logits, labels) / np.size(labels)


def linear_loss(logits, labels) -> float:
    """Mean of (1 - p_correct) in [0, 1], with p_correct = sigmoid(y * logit)."""
    return float(row_losses(np.reshape(logits, (1, -1)), labels, "linear")[0])


def row_losses(logits, labels, kind: str) -> np.ndarray:
    """``zero_one_loss`` (``kind="zero_one"``) or ``linear_loss``
    (``kind="linear"``) of each row of (n, m) logits against m labels, as
    an (n,) array; row i equals the scalar metric of ``logits[i]`` exactly."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if z.ndim != 2 or z.shape[1] != y.size:
        raise ValueError(f"logits {z.shape} do not hold rows of {y.size} labels")
    if kind == "zero_one":
        return np.count_nonzero(_sign(z) != y, axis=1) / y.size
    if kind == "linear":
        return np.mean(1.0 - _sigmoid(y * z), axis=1)
    raise ValueError(f"unknown loss kind {kind!r}")
