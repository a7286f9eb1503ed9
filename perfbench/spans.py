"""In-process span tracer for the metacert benchmark.

Spans are recorded from the benchmark's side: ``instrumented`` swaps each
traced metacert function for a timing wrapper under every name a caller can
look it up by.  ``metalearn`` and ``cli`` bind ``hypernet_forward``,
``certify_task``, ``load_tasks`` and others with ``from ... import``, so
wrapping only the defining module would miss those calls; the swap therefore
scans every loaded ``metacert`` module for the function object.  Methods are
wrapped on their class.  Everything is restored on exit, so untraced runs in
the same process execute the original code.

A span's self time is its duration minus the time covered by its traced
children.  Tensor constructions are counted (not timed) to give the autodiff
graph size; each span also records how many tensors were built inside it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  "Class.method" attributes wrap a method.
SPANS = (
    ("tasks", "gen_meta_dataset", "tasks.gen_meta_dataset"),
    ("tasks", "save_tasks", "tasks.save_tasks"),
    ("tasks", "load_tasks", "tasks.load_tasks"),
    ("rng", "Rng.__init__", "rng.Rng"),
    ("autodiff", "Tensor.backward", "autodiff.backward"),
    ("optim", "Adam.step", "optim.Adam.step"),
    ("optim", "adam_step", "optim.adam_step"),
    ("hypernet", "init_hypernet_params", "hypernet.init_hypernet_params"),
    ("hypernet", "hypernet_forward", "hypernet.hypernet_forward"),
    ("hypernet", "sample_compress", "hypernet.sample_compress"),
    ("hypernet", "msg_compress", "hypernet.msg_compress"),
    ("hypernet", "pb_encode", "hypernet.pb_encode"),
    ("hypernet", "reconstruct", "hypernet.reconstruct"),
    ("hypernet", "downstream_forward", "hypernet.downstream_forward"),
    ("hypernet", "decode_gamma", "hypernet.decode_gamma"),
    ("hypernet", "canonical_order", "hypernet.canonical_order"),
    ("hypernet", "save_checkpoint", "hypernet.save_checkpoint"),
    ("hypernet", "load_checkpoint", "hypernet.load_checkpoint"),
    ("metalearn", "meta_train", "metalearn.meta_train"),
    ("metalearn", "_validation_error", "metalearn.validation_error"),
    ("metalearn", "certify_task", "metalearn.certify_task"),
    ("metalearn", "mc_expected_loss", "metalearn.mc_expected_loss"),
    ("bounds", "kl_inverse", "bounds.kl_inverse"),
    ("bounds", "binomial_tail_inverse", "bounds.binomial_tail_inverse"),
    ("cli", "main", "cli.main"),
)

# Spans whose individual durations are kept, for percentiles.
KEEP_DURATIONS = ("metalearn.certify_task",)

# (span, ancestor): calls of span made while ancestor is open.
NESTED_COUNTS = (("hypernet.canonical_order", "hypernet.hypernet_forward"),)


class Tracer:
    """Aggregates spans: calls, total and self seconds, tensors built inside."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.nodes_in = defaultdict(int)
        self.durations = defaultdict(list)
        self.nested = defaultdict(int)
        self.nodes = 0
        self._open = defaultdict(int)
        self._stack = []  # [name, child seconds, nodes at entry]

    def snapshot(self) -> dict:
        """The aggregates so far, as plain dicts; then start afresh."""
        snap = {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "nodes_in": dict(self.nodes_in),
                "durations": {k: list(v) for k, v in self.durations.items()},
                "nested": dict(self.nested), "nodes": self.nodes}
        self.reset()
        return snap

    def wrap(self, name: str, fn):
        tracer = self
        keep = name in KEEP_DURATIONS
        ancestors = [anc for span, anc in NESTED_COUNTS if span == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for anc in ancestors:
                if tracer._open[anc]:
                    tracer.nested[(name, anc)] += 1
            frame = [name, 0.0, tracer.nodes]
            tracer._stack.append(frame)
            tracer._open[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                tracer._stack.pop()
                tracer._open[name] -= 1
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                tracer.self_s[name] += dur - frame[1]
                tracer.nodes_in[name] += tracer.nodes - frame[2]
                if keep:
                    tracer.durations[name].append(dur)
                if tracer._stack:
                    tracer._stack[-1][1] += dur

        return traced

    def count_nodes(self, init):
        tracer = self

        @functools.wraps(init)
        def counted(*args, **kwargs):
            tracer.nodes += 1
            init(*args, **kwargs)

        return counted


def _metacert_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "metacert" or name.startswith("metacert.")) and mod is not None]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route calls to the traced metacert functions through ``tracer``."""
    modules = _metacert_modules()
    restore = []

    def patch(owner, attr, new):
        restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for mod_name, attr, span in SPANS:
            owner = sys.modules[f"metacert.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                patch(cls, meth, tracer.wrap(span, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapped = tracer.wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patch(mod, key, wrapped)
        tensor = sys.modules["metacert.autodiff"].Tensor
        patch(tensor, "__init__", tracer.count_nodes(tensor.__dict__["__init__"]))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
