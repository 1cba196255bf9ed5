"""Measurement plumbing shared by the workloads and the probes.

Nothing here imports ``repro``: the calibration spin, the span store, the
quantiles and the resource readings must not depend on the program they
measure.
"""
from __future__ import annotations

import hashlib
import json
import resource
import time
from contextlib import contextmanager

import numpy as np

# -- host calibration -------------------------------------------------------
#
# The reference box is a 2-core *shared* VM whose speed wanders.  Scratch
# measurement that motivated the normalisation (this commit, stencil_local,
# six back-to-back processes of 400 rounds, medians per 50 rounds): over
# five minutes the spin went from 18.2 ms to 13.3 ms (-27 %) and the raw
# round from 86 ms to 65 ms (-25 %), while round / adjacent spin stayed
# within 4.5-5.05 (+-6 %, +-3 % between process medians).  The issue's own
# prototype saw raw medians drift 13-20 % between back-to-back sets and the
# normalised ones 6-9 %.  Counts and virtual seconds were bit-equal in
# both.  So the gated timing metrics are round wall / adjacent spin wall,
# and raw seconds stay as ``host.*`` diagnostics.
#
# The spin is fixed work that touches no ``repro`` code: a pure-Python
# integer loop (interpreter speed) plus NumPy passes over an array larger
# than L2 (memory bandwidth), the two resources a round spends.
_SPIN_LOOP = 60_000
_SPIN_PASSES = 8
_SPIN_ARRAY = np.arange(200_000, dtype=np.float64)
#: what the spin took on the reference box at its fastest; ``setup_s`` is
#: reported in seconds of a host on which the spin takes this long
SPIN_REFERENCE_S = 0.010


def calibration_spin() -> float:
    """Wall seconds of the fixed calibration work (about 10 ms)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_SPIN_LOOP):
        acc += i * i
    for _ in range(_SPIN_PASSES):
        np.sqrt(_SPIN_ARRAY * 1.0000001 + 1.0)
    return time.perf_counter() - t0


# -- spans ------------------------------------------------------------------


class Trace:
    """Benchmark-owned spans, kept in memory and written out at the end.

    A span is ``(name, start, end, parent, round)``; spans of one round
    share its round id.  A disabled trace records nothing, so the untraced
    pass pays one attribute read per span site.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.round_id: int | None = None
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **args):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "round": self.round_id,
            "start": time.perf_counter() - self._t0,
            "end": None,
            **args,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self._t0

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the part of it
        covered by child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = (
                out.get(s["name"], 0.0) + s["end"] - s["start"] - child[s["id"]]
            )
        return out

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON (load in chrome://tracing / Perfetto)."""
        events = [
            {
                "name": s["name"],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": s["start"] * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {
                    k: v for k, v in s.items()
                    if k not in ("name", "start", "end")
                },
            }
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


# -- statistics -------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return quantile(values, 0.5)


# -- resources --------------------------------------------------------------


def peak_rss_mib() -> float:
    """Largest resident set reached by the harness or by any child it has
    reaped (forked ``local`` ranks), in MiB.  Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def cpu_seconds() -> float:
    """User + system CPU seconds of the harness and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# -- values -----------------------------------------------------------------


def digest(value) -> bytes:
    """Bit-exact fingerprint of an op's value (array or dict of arrays)."""
    h = hashlib.blake2b(digest_size=16)
    if isinstance(value, dict):
        for key in sorted(value):
            h.update(key.encode())
            h.update(np.ascontiguousarray(value[key]).tobytes())
    else:
        h.update(np.ascontiguousarray(value).tobytes())
    return h.digest()
