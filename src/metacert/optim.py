"""Adam optimizer and Kaiming-uniform initialization, both deterministic."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .rng import Rng

# Adam's moment decays and denominator floor: the usual defaults, fixed
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def kaiming_uniform_init(shape, fan_in: int, rng: Rng) -> Tensor:
    """I.i.d. uniform on [-sqrt(6/fan_in), +sqrt(6/fan_in)].

    The bound is gain * sqrt(3 / fan_in) with gain = sqrt(2), the standard
    choice for ReLU layers.
    """
    if fan_in < 1:
        raise ValueError("fan_in must be >= 1")
    bound = math.sqrt(6.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_step(value: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> np.ndarray:
    """One bias-corrected Adam update of one tensor; mutates ``state``, returns
    the new value.  ``Adam.step`` matches it bit for bit on every tensor."""
    state.t += 1
    state.m = BETA1 * state.m + (1.0 - BETA1) * grad
    state.v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = state.m / (1.0 - BETA1 ** state.t)
    v_hat = state.v / (1.0 - BETA2 ** state.t)
    return value - lr * m_hat / (np.sqrt(v_hat) + EPS)


class Adam:
    """Adam over a named parameter dict; parameters with no grad are skipped.

    The parameters and both moments live in three flat buffers, one segment
    per tensor in dict order: each ``p.data`` and each ``state[name].m`` /
    ``.v`` is a view of its segment.  A step updates, in place, each maximal
    run of adjacent segments whose tensors all got a gradient and share a
    step count, with that count's bias corrections as Python floats.  Every
    operation is elementwise, so each tensor gets exactly the values of
    ``adam_step``; a skipped tensor keeps its values, moments and count.  A
    ``p.data`` rebound since the last step is copied into its segment first.
    """

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        size = sum(p.data.size for p in params.values())
        self._value, self._grad = np.empty(size), np.empty(size)
        self._m, self._v = np.zeros(size), np.zeros(size)
        self.state: dict[str, AdamState] = {}
        self._slots = []  # (tensor, its state, its value view, its grad view, segment)
        lo = 0
        for name, p in params.items():
            seg, shape = slice(lo, lo + p.data.size), p.data.shape
            lo = seg.stop
            value = self._value[seg].reshape(shape)
            value[...] = p.data
            p.data = value
            self.state[name] = AdamState(self._m[seg].reshape(shape),
                                         self._v[seg].reshape(shape))
            self._slots.append((p, self.state[name], value,
                                self._grad[seg].reshape(shape), seg))

    def step(self) -> None:
        runs = []  # [start, stop, step count] of adjacent updated segments
        run = None
        for p, state, value, grad, seg in self._slots:
            if p.data is not value:
                value[...] = p.data
                p.data = value
            if p.grad is None:
                run = None
                continue
            grad[...] = p.grad
            state.t += 1
            if run is not None and run[2] == state.t:
                run[1] = seg.stop
            else:
                run = [seg.start, seg.stop, state.t]
                runs.append(run)
        for start, stop, t in runs:
            self._update(slice(start, stop), t)

    def _update(self, seg: slice, t: int) -> None:
        """``adam_step`` in place on one segment: the same float operations
        in the same order, so the same bits."""
        g, m, v = self._grad[seg], self._m[seg], self._v[seg]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        g2 = (1.0 - BETA2) * g
        g2 *= g
        v += g2
        m_hat = m / (1.0 - BETA1 ** t)
        v_hat = v / (1.0 - BETA2 ** t)
        np.sqrt(v_hat, out=v_hat)
        v_hat += EPS
        m_hat *= self.lr
        m_hat /= v_hat
        self._value[seg] -= m_hat

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
