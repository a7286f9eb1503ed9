"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

The graph is built define-by-run: every operation returns a new ``Tensor``
that records its parents and a backward closure.  ``Tensor.backward`` walks
the nodes reachable from the loss in strict reverse creation order, so each
node's backward closure runs exactly once, after all of its consumers have
already accumulated into its gradient.  Gradients add across fan-out.

Only the handful of primitives the hypernetworks need are provided:

* ``dense``, one fused dense layer ``x @ w + b``, optionally ReLU'd;
* structural ops: ``matmul``, ``add``, ``sub``, ``mul_scalar``, ``mul_elem``,
  ``mul``, ``power_scalar``, ``mean``, ``concat``, ``transpose``,
  ``reshape``, ``slice_cols``;
* activations ``tanh`` and ``softmax``;
* straight-through surrogates ``sign_st`` and ``hard_select_st``;
* the ``binary_cross_entropy`` loss, plus the non-differentiable metrics
  ``zero_one_errors``, ``zero_one_loss`` and ``linear_loss``, and
  ``row_losses``, the last two for each row of a stack of logits.

Tensors are 1-D or 2-D, everything is float64, and no op mutates its
inputs' values.
"""

from __future__ import annotations

import itertools

import numpy as np

_SEQ = itertools.count()


class NonFiniteError(ValueError):
    """A forward value that must be finite is not (NaN or infinity)."""


class Tensor:
    """Dense array node in a reverse-mode computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None, op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim > 2:
            raise ValueError(f"tensors are at most 2-D, got shape {self.data.shape}")
        self.grad = None
        self.requires_grad = requires_grad
        self.op = op
        self._parents = tuple(parents)
        self._backward = backward
        self._seq = next(_SEQ)

    @property
    def shape(self):
        return self.data.shape

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
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def constant(data) -> Tensor:
    return Tensor(data)


# ---------------------------------------------------------------------------
# structural ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, parents=(a, b), op="matmul")

    def backward(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    out._backward = backward
    return out


def dense(x: Tensor, w: Tensor, b: Tensor, relu: bool) -> Tensor:
    """One dense layer ``x @ w + b`` with a (1, n) bias row, ReLU'd if ``relu``."""
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]
            or b.data.shape != (1, w.data.shape[1])):
        raise ValueError(f"dense shape mismatch: {x.data.shape} @ {w.data.shape} "
                         f"+ {b.data.shape}")
    pre = x.data @ w.data + b.data
    if relu:
        mask = (pre > 0.0).astype(np.float64)
        pre = np.maximum(pre, 0.0)
    out = Tensor(pre, parents=(x, w, b), op="dense")

    def backward(g):
        if relu:
            g = g * mask
        _accum(b, g.sum(axis=0, keepdims=True))
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)

    out._backward = backward
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} + {b.data.shape}")
    out = Tensor(a.data + b.data, parents=(a, b), op="add")

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    out._backward = backward
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"sub shape mismatch: {a.data.shape} - {b.data.shape}")
    out = Tensor(a.data - b.data, parents=(a, b), op="sub")

    def backward(g):
        _accum(a, g)
        _accum(b, -g)

    out._backward = backward
    return out


def mul_scalar(a: Tensor, scalar: float) -> Tensor:
    s = float(scalar)
    out = Tensor(a.data * s, parents=(a,), op="mul_scalar")

    def backward(g):
        _accum(a, g * s)

    out._backward = backward
    return out


def mul_elem(a: Tensor, weights) -> Tensor:
    """Elementwise product with a constant array (broadcastable against a)."""
    w = np.asarray(weights, dtype=np.float64)
    out = Tensor(a.data * w, parents=(a,), op="mul_elem")
    if out.data.shape != a.data.shape:
        raise ValueError(f"mul_elem weights {w.shape} do not preserve shape {a.data.shape}")

    def backward(g):
        _accum(a, g * w)

    out._backward = backward
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch: {a.data.shape} * {b.data.shape}")
    out = Tensor(a.data * b.data, parents=(a, b), op="mul")

    def backward(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    out._backward = backward
    return out


def power_scalar(a: Tensor, exponent: float) -> Tensor:
    """Elementwise power with a fixed exponent; inputs must be positive for
    non-integer exponents."""
    p = float(exponent)
    if p != int(p) and (a.data <= 0.0).any():
        raise ValueError("power_scalar with fractional exponent needs positive inputs")
    y = a.data ** p
    out = Tensor(y, parents=(a,), op="power_scalar")

    def backward(g):
        _accum(a, g * p * a.data ** (p - 1.0))

    out._backward = backward
    return out


def mean(a: Tensor) -> Tensor:
    out = Tensor(np.array([[a.data.mean()]]), parents=(a,), op="mean")
    n = a.data.size

    def backward(g):
        _accum(a, np.full_like(a.data, g.reshape(-1)[0] / n))

    out._backward = backward
    return out


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of no tensors")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                 parents=tuple(tensors), op="concat")
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + size)
            _accum(t, g[tuple(sl)])
            offset += size

    out._backward = backward
    return out


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.data.T, parents=(a,), op="transpose")

    def backward(g):
        _accum(a, g.T)

    out._backward = backward
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), parents=(a,), op="reshape")

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    out._backward = backward
    return out


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2 or not (0 <= start <= stop <= a.data.shape[1]):
        raise ValueError(f"bad column slice [{start}:{stop}] of {a.data.shape}")
    out = Tensor(a.data[:, start:stop].copy(), parents=(a,), op="slice_cols")

    def backward(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[:, start:stop] += g

    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# activations


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y, parents=(a,), op="tanh")

    def backward(g):
        _accum(a, g * (1.0 - y * y))

    out._backward = backward
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(a: Tensor, axis: int) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(p, parents=(a,), op="softmax")

    def backward(g):
        _accum(a, p * (g - (g * p).sum(axis=axis, keepdims=True)))

    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# straight-through surrogates


def sign_st(a: Tensor, soft: bool = False) -> Tensor:
    """Sign in {-1, +1} with sign(0) = +1; backward is the identity surrogate.

    With ``soft=True`` the forward is the identity as well, exposing the
    declared surrogate so it can be finite-difference checked.
    """
    y = a.data.copy() if soft else np.where(a.data >= 0.0, 1.0, -1.0)
    out = Tensor(y, parents=(a,), op="sign_st")

    def backward(g):
        _accum(a, g)

    out._backward = backward
    return out


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
    out = Tensor(y, parents=(probs, values), op="hard_select_st")

    def backward(g):
        _accum(probs, values.data @ g.T)
        _accum(values, p @ g)

    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# losses


def binary_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean logistic loss of (m, 1) logits against labels in {-1, +1}."""
    y = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    z = logits.data
    if z.shape != y.shape:
        raise ValueError(f"logits/labels length mismatch: {z.shape} vs {y.shape}")
    margin = -y * z
    # softplus(margin), computed stably
    per_example = np.maximum(margin, 0.0) + np.log1p(np.exp(-np.abs(margin)))
    out = Tensor(np.array([[per_example.mean()]]), parents=(logits,), op="bce")
    n = y.shape[0]

    def backward(g):
        _accum(logits, g.reshape(-1)[0] * (-y * _sigmoid(margin)) / n)

    out._backward = backward
    return out


def zero_one_errors(logits, labels) -> int:
    """Number of sign disagreements; sign(0) counts as +1. Not differentiable."""
    z = np.asarray(logits, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if z.shape != y.shape:
        raise ValueError("logits/labels length mismatch")
    return int(np.count_nonzero(np.where(z >= 0.0, 1.0, -1.0) != y))


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
        return np.count_nonzero(np.where(z >= 0.0, 1.0, -1.0) != y, axis=1) / y.size
    if kind == "linear":
        return np.mean(1.0 - _sigmoid(y * z), axis=1)
    raise ValueError(f"unknown loss kind {kind!r}")
