"""Hierarchical span tracing over the *virtual* timeline.

A :class:`Recorder` captures a run's structure as a tree of spans --
``phase`` (application stages), ``section`` (driver parallel sections),
``plan`` (fusion-plan consults), ``ship`` (data-plane shipping ops, one
per destination rank), ``kernel`` (per-rank task-loop execution) and
``collective`` (per-rank collective participation) -- each stamped with
virtual start/end times, the rank lane it belongs to, and free-form
attribute counters.  Communication events from
:class:`repro.cluster.trace.TraceLog` are absorbed alongside, so the
exporters can join spans and messages into one per-rank timeline.

The tracer is **zero-cost and structurally absent when disabled**:

* instrumentation sites call :func:`active` (one global read) and do
  nothing when it returns ``None``;
* :func:`obs_span` returns the shared :data:`NULL_SPAN` singleton when
  no recorder is installed, so *no span objects are allocated* --
  :attr:`Span.allocated` is the class-wide proof counter the
  disabled-overhead test asserts on;
* spans only *read* virtual clocks, never advance them, and never touch
  cost meters, so enabling observability cannot change a single value,
  meter tally, or wire byte.

Enable with::

    with obs.capture() as cap:
        ... run the program ...
    cap.to_chrome()  # via repro.obs.export
"""
from __future__ import annotations

import contextvars
import threading
from contextlib import contextmanager

from repro.obs.registry import MetricsRegistry

#: The span taxonomy (see docs/observability.md).  ``checkpoint`` spans
#: are instants marking durable-store writes and restores.
#: ``halo`` spans are instants marking ghost-cell (stencil halo)
#: shipments, one per destination rank -- kept apart from ``ship`` so
#: interior placement bytes and halo bytes stay separately auditable.
#: ``attempt`` spans are the attempts of a section that needed more than
#: one, ``recover`` instants the shrink or invalidation between two.
SPAN_KINDS = ("phase", "section", "plan", "ship", "halo", "kernel",
              "collective", "checkpoint", "attempt", "recover")

#: Lane number for main-rank/driver spans (exported as tid 0).
DRIVER_LANE = -1

_parent: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "repro_obs_parent", default=None
)

#: Driver-timeline base for spans on *section-local* clocks.  Each
#: simulated rank runs a fresh :class:`VirtualClock` starting at zero
#: per section; spans (and absorbed events) on those clocks are rebased
#: onto the driver timeline by adding the enclosing default-clock
#: span's start time, so exported lanes line up across sections.
_base: contextvars.ContextVar[float] = contextvars.ContextVar(
    "repro_obs_base", default=0.0
)

#: The installed recorder; ``None`` means observability is off and every
#: instrumentation site takes its early-out path.
_ACTIVE: "Recorder | None" = None


class NullSpan:
    """Shared no-op span handed out while observability is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "NullSpan":
        return self


NULL_SPAN = NullSpan()


class Span:
    """One recorded span: a named interval on a rank's virtual lane."""

    __slots__ = (
        "sid", "parent", "kind", "name", "rank", "t0", "t1", "attrs",
        "_rec", "_clock", "_token", "_offset", "_is_base", "_base_token",
    )

    #: Class-wide allocation counter (incremented under the recorder
    #: lock).  The disabled-overhead test asserts this does not move
    #: during an observability-off run.
    allocated = 0

    def __init__(self, rec: "Recorder", kind: str, name: str, rank: int,
                 clock, attrs: dict | None, is_base: bool):
        self.sid = -1  # assigned by the recorder at __enter__
        self.parent: int | None = None
        self.kind = kind
        self.name = name
        self.rank = rank
        self.t0 = 0.0
        self.t1: float | None = None
        self.attrs: dict = attrs if attrs is not None else {}
        self._rec = rec
        self._clock = clock
        self._token = None
        self._offset = 0.0
        self._is_base = is_base
        self._base_token = None

    def __enter__(self) -> "Span":
        if not self._is_base:
            self._offset = _base.get()
        now = self._clock.now if self._clock is not None else 0.0
        self.t0 = now + self._offset
        self.parent = _parent.get()
        self._rec._register(self)
        self._token = _parent.set(self.sid)
        if self._is_base:
            self._base_token = _base.set(self.t0)
        return self

    def __exit__(self, *exc) -> bool:
        now = self._clock.now if self._clock is not None else None
        self.t1 = now + self._offset if now is not None else self.t0
        if self._base_token is not None:
            _base.reset(self._base_token)
            self._base_token = None
        if self._token is not None:
            _parent.reset(self._token)
            self._token = None
        return False

    def set(self, **attrs) -> "Span":
        """Attach (or update) attribute counters on this span."""
        self.attrs.update(attrs)
        return self

    @property
    def duration(self) -> float:
        return (self.t1 if self.t1 is not None else self.t0) - self.t0

    def as_dict(self) -> dict:
        return {
            "sid": self.sid,
            "parent": self.parent,
            "kind": self.kind,
            "name": self.name,
            "rank": self.rank,
            "t0": self.t0,
            "t1": self.t1 if self.t1 is not None else self.t0,
            "attrs": dict(self.attrs),
        }


def span_row(kind: str, name: str, t0: float, **attrs) -> dict:
    """A driver-lane span in :meth:`Span.as_dict` form, built before any
    recorder registers it (:meth:`Recorder.absorb_spans` does, later):
    its end, ``sid`` and ``parent`` are the caller's to fill in."""
    return {"kind": kind, "name": name, "rank": DRIVER_LANE, "t0": t0,
            "t1": t0, "attrs": attrs}


class Recorder:
    """One run's span tree, absorbed comm events and metrics registry.

    Thread-safe: rank threads of a simulated SPMD run record spans
    concurrently.  Parent links come from a context variable, which rank
    threads inherit from the driver (they run in copies of the caller's
    context), so per-rank spans nest under the driver's section span.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.events: list[dict] = []
        self.registry = MetricsRegistry()
        self._clock = None  # default clock (the runtime's virtual clock)
        self._next_sid = 0
        self.planner_baseline = None
        self.copy_baseline: dict | None = None

    # -- recording ---------------------------------------------------------

    def use_clock(self, clock) -> None:
        """Set the default clock for spans opened without an explicit one
        (the driver installs its runtime's virtual clock here)."""
        self._clock = clock

    def _register(self, span: Span) -> None:
        with self._lock:
            span.sid = self._next_sid
            self._next_sid += 1
            self.spans.append(span)
            Span.allocated += 1

    def span(self, kind: str, name: str, *, rank: int = DRIVER_LANE,
             clock=None, attrs: dict | None = None) -> Span:
        """A new span context manager on *rank*'s lane.

        Spans on the default (driver) clock anchor the rebasing context
        for descendants on section-local rank clocks; spans on explicit
        other clocks are shifted by the nearest such ancestor's start.
        """
        is_base = clock is None or clock is self._clock
        return Span(self, kind, name, rank,
                    clock if clock is not None else self._clock, attrs,
                    is_base)

    def instant(self, kind: str, name: str, *, rank: int = DRIVER_LANE,
                attrs: dict | None = None) -> Span:
        """Record a zero-duration span at the current default-clock time
        (shipping ops are planned instantaneously at section start)."""
        sp = self.span(kind, name, rank=rank, attrs=attrs)
        sp.__enter__()
        sp.__exit__()
        return sp

    @contextmanager
    def later(self, dt: float):
        """Spans on section-local clocks opened inside start *dt* later
        on the driver timeline: a section's retry attempts, whose rank
        clocks restart at zero (rank threads copy the caller's context)."""
        token = _base.set(_base.get() + dt)
        try:
            yield
        finally:
            _base.reset(token)

    def absorb_events(self, events, parent: Span | None,
                      offset: float = 0.0) -> None:
        """Fold a :class:`~repro.cluster.trace.TraceLog`'s CommEvents in,
        linked to the enclosing section span and rebased from the
        section-local rank timeline onto the driver timeline (*offset*:
        how far into the section the attempt they belong to started)."""
        psid = parent.sid if parent is not None else None
        base = (parent.t0 if parent is not None else 0.0) + offset
        with self._lock:
            for e in events:
                d = e.as_dict() if hasattr(e, "as_dict") else dict(e)
                d["section"] = psid
                d["time"] += base
                self.events.append(d)

    def absorb_spans(self, rows) -> None:
        """Adopt spans a rank recorded in another process (its copy of
        this recorder died with it): *rows* are their ``as_dict()`` forms,
        everything the rank registered since it started.  They get fresh
        ``sid``s here; a parent inside the batch is remapped with it, any
        other parent was registered before the rank left this process
        (the section span) and is kept."""
        with self._lock:
            fresh = {row["sid"]: self._next_sid + i
                     for i, row in enumerate(rows)}
            for row in rows:
                sp = Span(self, row["kind"], row["name"], row["rank"], None,
                          row["attrs"], False)
                sp.sid = fresh[row["sid"]]
                sp.parent = fresh.get(row["parent"], row["parent"])
                sp.t0, sp.t1 = row["t0"], row["t1"]
                self.spans.append(sp)
            self._next_sid += len(rows)
            Span.allocated += len(rows)

    def count(self, name: str, value=1) -> None:
        """Thread-safe registry counter increment."""
        with self._lock:
            self.registry.inc(name, value)

    # -- section adaptation ------------------------------------------------

    def on_section(self, record) -> None:
        """Adapt one driver :class:`SectionRecord` into the registry:
        named counters plus a per-section snapshot."""
        reg = self.registry
        with self._lock:
            reg.inc("sections.count")
            reg.inc(f"sections.kind.{record.kind}")
            reg.inc("time.makespan", record.makespan)
            reg.inc("time.gc", record.gc_time)
            reg.inc("cluster.bytes_sent", record.bytes_shipped)
            reg.inc("cluster.messages_sent", record.messages)
            if record.metrics is not None:
                m = record.metrics
                reg.inc("cluster.bytes_received",
                        sum(r.bytes_received for r in m.per_rank))
                reg.inc("cluster.messages_received",
                        sum(r.messages_received for r in m.per_rank))
                reg.inc("cluster.compute_time", m.compute_time)
                reg.inc("cluster.comm_time", m.comm_time)
                reg.inc("cluster.alloc_bytes", m.alloc_bytes)
            if record.recovery is not None:
                r = record.recovery
                reg.inc("recovery.reshipped_bytes", r.reshipped_bytes)
                reg.inc("recovery.reexecuted_chunks", r.reexecuted_chunks)
                reg.inc("recovery.retries", r.retries)
                reg.inc("recovery.attempts", r.attempts)
                reg.inc("recovery.added_time", r.added_time)
                reg.inc("recovery.faults", sum(r.faults.values()))
                reg.inc("recovery.rank_losses", r.rank_losses)
                reg.inc("recovery.lineage_replays", r.lineage_replays)
                reg.inc("recovery.replayed_bytes", r.replayed_bytes)
                reg.inc("recovery.shrink_migrations", r.shrink_migrations)
                reg.inc("recovery.shrink_migrated_bytes",
                        r.shrink_migrated_bytes)
                reg.inc("recovery.checkpoints", r.checkpoints)
                reg.inc("recovery.checkpoint_bytes", r.checkpoint_bytes)
                reg.inc("recovery.restores", r.restores)
                reg.inc("recovery.restored_bytes", r.restored_bytes)
                reg.inc("recovery.checkpoint_time", r.checkpoint_time)
            reg.snapshot_section(
                record.label,
                {
                    "kind": record.kind,
                    "hint": record.hint,
                    "partition": record.partition,
                    "nodes": record.nodes,
                    "makespan": record.makespan,
                    "bytes_shipped": record.bytes_shipped,
                    "messages": record.messages,
                    "vectorized": record.vectorized,
                    "data_plane": dict(record.data_plane)
                    if record.data_plane else None,
                },
            )

    # -- lifecycle ---------------------------------------------------------

    def finish(self) -> None:
        """Fold end-of-capture deltas of pull-only counter families
        (serialization copy stats) into the registry."""
        try:
            from repro.serial import copy_stats
        except ImportError:  # pragma: no cover - serial always present
            return
        if self.copy_baseline is not None:
            now = copy_stats()
            for k, v in now.items():
                delta = v - self.copy_baseline.get(k, 0)
                if delta:
                    self.registry.inc(f"serial.{k}", delta)

    # -- convenience views -------------------------------------------------

    def spans_of_kind(self, kind: str) -> list[Span]:
        return [s for s in self.spans if s.kind == kind]

    def detail_snapshot(self) -> dict:
        """Small summary apps attach through their ``detail`` dicts."""
        return {
            "phases": [s.name for s in self.spans if s.kind == "phase"],
            "spans": len(self.spans),
            "events": len(self.events),
            "sections": int(self.registry.get("sections.count")),
        }


def active() -> Recorder | None:
    """The installed recorder, or ``None`` when observability is off."""
    return _ACTIVE


def obs_span(kind: str, name: str, *, rank: int = DRIVER_LANE, clock=None,
             **attrs):
    """A span on the active recorder, or :data:`NULL_SPAN` when off.

    The disabled path allocates nothing: one global read, one identity
    return.
    """
    rec = _ACTIVE
    if rec is None:
        return NULL_SPAN
    return rec.span(kind, name, rank=rank, clock=clock,
                    attrs=attrs if attrs else None)


def count(name: str, value=1) -> None:
    """Increment a registry counter iff a recorder is active."""
    rec = _ACTIVE
    if rec is not None:
        rec.count(name, value)


@contextmanager
def capture():
    """Install a fresh :class:`Recorder` for the dynamic extent.

    Snapshots the fusion-planner and serialization counters on entry so
    registry adapters report *deltas for this capture*, and folds the
    pull-only families in on exit.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("an obs capture is already active")
    rec = Recorder()
    from repro.core.fusion.planner import planner_stats
    from repro.serial import copy_stats

    rec.planner_baseline = planner_stats()
    rec.copy_baseline = copy_stats()
    _ACTIVE = rec
    try:
        yield rec
    finally:
        _ACTIVE = None
        rec.finish()


def snapshot():
    """What a rank in another process needs to record as it would here:
    ``None`` with no recorder on, else where the recorder's span ids, the
    enclosing span and the timeline base stand."""
    rec = _ACTIVE
    return None if rec is None else (rec._next_sid, _parent.get(), _base.get())


def resume(snap) -> None:
    """In a rank process, for its next job: record into a fresh recorder
    picking up where *snap* (a :func:`snapshot`) stood -- or, for ``None``,
    record nothing.  The driver adopts what the rank registers."""
    global _ACTIVE
    _ACTIVE = None if snap is None else Recorder()
    if snap is not None:
        _ACTIVE._next_sid, parent, base = snap
        _parent.set(parent)
        _base.set(base)


def force_disable() -> None:
    """Drop any installed recorder (test-suite hygiene only)."""
    global _ACTIVE
    _ACTIVE = None
