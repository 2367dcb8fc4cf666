"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps each layer's public functions where the program
looks them up, so each call records a (layer, start, end, thread, count)
span; ``uninstall`` restores the originals. Pool workers run the
integrands, so spans carry the thread id.

``attribute`` splits wall time among layers. At each instant the time goes
to the active layers that have no active child layer on any thread (child
coverage is the union of intervals across threads), shared by the number of
spans open in each. The shares add up to the time any span is open.
"""

from __future__ import annotations

import functools
import inspect
import io
import threading
import time

# Each layer's parent; a layer's self time excludes time its children cover.
PARENT = {
    "cli": None,
    "states": "cli",
    "io": "cli",
    "montecarlo": "cli",
    "substream": "montecarlo",
    "integrand": "montecarlo",
    "joint": "integrand",
    "liouville": "integrand",
    "mask": "integrand",
}


def _ancestors(layer):
    out = set()
    while PARENT[layer] is not None:
        layer = PARENT[layer]
        out.add(layer)
    return out


ANCESTORS = {layer: _ancestors(layer) for layer in PARENT}

# Engine entry points, patched on projmi.infomeasures because that module
# binds them at import.
ENGINE_ENTRIES = (
    "integrate_mu",
    "integrate_product_nu",
    "gaussian_expectation",
    "gaussian_pair_expectation",
)


def _joint_rows(args, result):
    return args[1].shape[0]


def _mask_kept(args, result):
    return (int(result.sum()), int(result.size))


class Tracer:
    """Collects spans while installed; one instance per traced phase."""

    def __init__(self):
        self.spans = []
        self._patched = []

    def wrap(self, layer, fn, count=None):
        """``fn`` recording a span of ``layer``; ``count(args, result)`` adds a count."""
        record = self.spans.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                n = count(args, result) if count is not None and result is not None else 0
                record((layer, start, end, threading.get_ident(), n))

        return traced

    def _engine(self, fn):
        """An engine entry whose ``batch_f`` records integrand spans, so the
        engine's own time splits from integrand time."""

        @functools.wraps(fn)
        def engine(*args, batch_f=None, **kwargs):
            if batch_f is not None:
                batch_f = self.wrap("integrand", batch_f)
            return fn(*args, batch_f=batch_f, **kwargs)

        return self.wrap("montecarlo", engine)

    def _patch(self, owner, name, replacement):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self):
        from projmi import cli, infomeasures, montecarlo, projective

        for name in ENGINE_ENTRIES:
            self._patch(infomeasures, name, self._engine(getattr(infomeasures, name)))
        self._patch(infomeasures, "check_marginal_support",
                    self.wrap("mask", infomeasures.check_marginal_support, _mask_kept))
        self._patch(montecarlo, "substream", self.wrap("substream", montecarlo.substream))
        joint = infomeasures.JointDensity
        self._patch(joint, "eval_batch", self.wrap("joint", joint.eval_batch, _joint_rows))
        liouville = projective.LiouvilleDensity
        self._patch(liouville, "eval_batch", self.wrap("liouville", liouville.eval_batch))
        for module in (cli, infomeasures):
            for name, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                if obj.__module__ == "projmi.states":
                    self._patch(module, name, self.wrap("states", obj))
                elif obj.__module__ == "projmi.io" and module is cli:
                    self._patch(module, name, self.wrap("io", obj))

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def stream(self):
        """A stdout buffer whose writes (the CLI's records) are io spans."""
        return _TracedStream(self.spans.append)


class _TracedStream(io.StringIO):
    def __init__(self, record):
        super().__init__()
        self._record = record

    def write(self, text):
        start = time.perf_counter()
        n = super().write(text)
        self._record(("io", start, time.perf_counter(), threading.get_ident(), 0))
        return n


def attribute(spans):
    """Seconds of wall time per layer, by the rule in the module docstring."""
    events = []
    for layer, start, end, *_ in spans:
        events.append((start, 1, layer))
        events.append((end, -1, layer))
    events.sort(key=lambda e: (e[0], -e[1]))
    open_spans = dict.fromkeys(PARENT, 0)
    totals = dict.fromkeys(PARENT, 0.0)
    last = None
    for t, delta, layer in events:
        if last is not None and t > last:
            live = [name for name, n in open_spans.items() if n]
            covered = set().union(*(ANCESTORS[name] for name in live))
            frontier = [name for name in live if name not in covered]
            weight = sum(open_spans[name] for name in frontier)
            for name in frontier:
                totals[name] += (t - last) * open_spans[name] / weight
        open_spans[layer] += delta
        last = t
    return totals


def layer_counts(spans):
    """Counts per layer and the largest number of integrand threads in one engine call."""
    calls = dict.fromkeys(PARENT, 0)
    busy = dict.fromkeys(PARENT, 0.0)
    rows = kept = evaluated = 0
    engines, integrands = [], []
    for layer, start, end, tid, n in spans:
        calls[layer] += 1
        busy[layer] += end - start
        if layer == "joint":
            rows += n
        elif layer == "mask" and n:
            kept += n[0]
            evaluated += n[1]
        elif layer == "montecarlo":
            engines.append((start, end))
        elif layer == "integrand":
            integrands.append((start, tid))
    workers = max(
        (len({tid for t, tid in integrands if lo <= t <= hi}) for lo, hi in engines),
        default=0,
    )
    return {
        "calls": calls,
        "busy": busy,
        "joint_rows": rows,
        "mask_kept": kept,
        "mask_evaluated": evaluated,
        "workers": workers,
    }
