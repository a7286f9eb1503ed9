"""Reference autodiff ops that the package does not run.

The fused nodes of ``metacert.autodiff`` replaced every pipeline call of
these ops; ``attention_select``, for one, stands for the per-head chain
``dense`` -> ``transpose`` -> ``matmul`` -> ``mul_scalar`` -> ``softmax``
-> ``hard_select_st``.  The tests build the replaced graphs from these ops
to check the fused nodes against, and check each op's own gradient.  Each
op builds its ``Tensor`` node as the package's ops do.
"""

import numpy as np

from metacert.autodiff import NonFiniteError, Tensor, _accum


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return Tensor(a.data @ b.data, parents=(a, b), backward=backward, op="matmul")


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


def mean(a: Tensor) -> Tensor:
    n = a.data.size

    def backward(g):
        _accum(a, np.full_like(a.data, g.reshape(-1)[0] / n))

    return Tensor(np.array([[a.data.mean()]]), parents=(a,), backward=backward, op="mean")


def transpose(a: Tensor) -> Tensor:
    def backward(g):
        _accum(a, g.T)

    return Tensor(a.data.T, parents=(a,), backward=backward, op="transpose")


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), parents=(a,), backward=backward, op="reshape")


def softmax(a: Tensor, axis: int) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        _accum(a, p * (g - (g * p).sum(axis=axis, keepdims=True)))

    return Tensor(p, parents=(a,), backward=backward, op="softmax")


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
