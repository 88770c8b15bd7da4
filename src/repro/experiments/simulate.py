"""The unified replication entry point: :func:`simulate`.

Every Monte-Carlo sweep in the reproduction ultimately does the same
thing — run one contended workload under R independent random-stream
families and summarize the scalar results. Historically each driver
wired that loop itself through :func:`repro.experiments.runner.repeat_mean`
with an ad-hoc picklable measure class. :func:`simulate` replaces the
scattered entry points with one front door:

* A declarative :class:`SimSpec` (platform spec + probe + contenders)
  runs on either engine — ``backend="vector"`` batches all replications
  through the struct-of-arrays engine (:mod:`repro.sim.vector`),
  ``backend="object"`` replays the exact construction every driver used
  to hand-roll (one :class:`~repro.sim.engine.Simulator` per
  replication). The object engine stays the always-available reference
  oracle; workloads the vector engine does not cover fall back to it
  automatically (counted via ``repro.obs``).
* A plain measure callable ``measure(streams) -> float`` still works —
  it is inherently opaque, so it always runs on the object backend.

Backend choice: an explicit ``backend=`` argument wins, then the
``REPRO_SIM_BACKEND`` environment variable, then the default
``"vector"``.

Replication *k* derives all randomness from ``(seed, k)`` alone —
lane seeds are ``RandomStreams(seed).fork(k).seed`` on both backends —
so worker count and backend-internal batching never change the random
streams a replication sees. ``workers > 1`` splits *contiguous batches
of lanes* across a process pool on the vector backend (and single
replications on the object backend), bit-identical to serial either
way.

A replication that produces a non-finite value (a quarantined vector
lane, a fault-injected NaN) is masked into
:attr:`BatchResult.quarantined` — it degrades
:attr:`BatchResult.confidence` instead of poisoning the batch mean.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Union

import numpy as np

from ..core.workload import ApplicationProfile
from ..errors import ReproError
from ..obs import RunManifest, jsonable, unjsonable
from ..obs import context as _obs
from ..parallel import FailurePolicy, ParallelExecutor, Quarantined
from ..platforms.specs import SunParagonSpec
from ..sim import vector as _vector
from ..sim.rng import RandomStreams
from . import journal as _journal
from .runner import Replication, _ReplicationTask

__all__ = [
    "BACKEND_ENV",
    "BatchResult",
    "BurstProbe",
    "ComputeProbe",
    "CyclicProbe",
    "SimSpec",
    "resolve_backend",
    "simulate",
]

#: Environment variable consulted when ``simulate(backend=None)``.
BACKEND_ENV = "REPRO_SIM_BACKEND"

_BACKENDS = ("vector", "object")


# ---------------------------------------------------------------------------
# Declarative workload specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BurstProbe:
    """Measure a burst of back-to-back messages (paper §3.1 probes)."""

    size_words: int
    count: int = 1000
    direction: str = "out"


@dataclass(frozen=True)
class ComputeProbe:
    """Measure a pure front-end computation (paper §3.2.2 probes)."""

    work: float


@dataclass(frozen=True)
class CyclicProbe:
    """Measure an alternating compute/communicate application (§2)."""

    cycles: int
    comp_per_cycle: float
    messages_per_cycle: int
    message_size: float


_Probe = Union[BurstProbe, ComputeProbe, CyclicProbe]


@dataclass(frozen=True)
class SimSpec:
    """One contended Sun–Paragon measurement, declaratively.

    ``platform`` is the machine description; ``contenders`` run the
    standard alternating compute/communicate load; ``probe`` is the
    measured application. ``stream_prefix`` pins the contender RNG
    stream names (``"contender-"`` for the figure/robustness sweeps,
    ``"c"`` for the sensitivity sweeps) so a spec-driven run draws the
    exact random numbers the historical hand-rolled measures drew.
    """

    platform: SunParagonSpec
    probe: _Probe
    contenders: tuple[ApplicationProfile, ...] = ()
    mean_cycle: float = 0.25
    contender_direction: str = "both"
    mode: str = "1hop"
    stream_prefix: str = "contender-"


@dataclass(frozen=True)
class _SpecMeasure:
    """Object-engine measure for a :class:`SimSpec` — the reference oracle.

    Reproduces, construction for construction, what the per-driver
    measure classes used to build: platform first, contenders in index
    order (stream ``{prefix}{k}``), probe last.
    """

    spec: SimSpec

    def __call__(self, streams: RandomStreams) -> float:
        from ..apps.burst import message_burst
        from ..apps.contender import alternating
        from ..apps.program import cyclic_program, frontend_program
        from ..platforms.sunparagon import SunParagonPlatform
        from ..sim.engine import Simulator

        s = self.spec
        sim = Simulator()
        platform = SunParagonPlatform(sim, spec=s.platform, streams=streams)
        for k, prof in enumerate(s.contenders):
            platform.spawn(
                alternating(
                    platform,
                    prof.comm_fraction,
                    prof.message_size,
                    platform.rng(f"{s.stream_prefix}{k}"),
                    mean_cycle=s.mean_cycle,
                    direction=s.contender_direction,
                    tag=prof.name,
                    mode=s.mode,
                ),
                name=prof.name,
            )
        p = s.probe
        if isinstance(p, BurstProbe):
            gen = message_burst(platform, p.size_words, p.count, p.direction, mode=s.mode)
        elif isinstance(p, ComputeProbe):
            gen = frontend_program(platform, p.work)
        else:
            gen = cyclic_program(
                platform, p.cycles, p.comp_per_cycle, p.messages_per_cycle,
                p.message_size, mode=s.mode,
            )
        probe = sim.process(gen, name="probe")
        return sim.run_until(probe)


def _vector_workload(spec: SimSpec):
    """Translate a :class:`SimSpec` into vector-engine terms.

    Returns ``(contenders, probe, reason)``; a non-None *reason* means
    the spec has no vector translation (contenders/probe are None).
    The stream names mirror ``platform.rng(...)`` on the default
    platform name, which is how lane RNG draws line up bit-for-bit
    with the object engine.
    """
    p = spec.probe
    if isinstance(p, BurstProbe):
        probe = _vector.VectorBurstProbe(p.size_words, p.count, p.direction, spec.mode)
    elif isinstance(p, ComputeProbe):
        probe = _vector.VectorComputeProbe(p.work)
    elif isinstance(p, CyclicProbe):
        probe = _vector.VectorCyclicProbe(
            p.cycles, p.comp_per_cycle, p.messages_per_cycle, p.message_size, spec.mode
        )
    else:
        return None, None, f"probe type {type(p).__name__} has no vector translation"
    contenders = tuple(
        _vector.VectorContender(
            comm_fraction=prof.comm_fraction,
            message_size=prof.message_size,
            stream=f"sunparagon/{spec.stream_prefix}{k}",
            mean_cycle=spec.mean_cycle,
            direction=spec.contender_direction,
            mode=spec.mode,
            tag=prof.name,
        )
        for k, prof in enumerate(spec.contenders)
    )
    return contenders, probe, None


# ---------------------------------------------------------------------------
# Batch result
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchResult(Replication):
    """A :class:`~repro.experiments.runner.Replication` plus provenance.

    Adds which backend was requested and which actually ran (with the
    fallback reason when they differ), the base seed, the requested
    replication count, and an optional :class:`~repro.obs.RunManifest`
    stamped when an observability context is active. Statistics
    (``mean``/``std``/``cv``/``ci95``/``confidence``) are inherited.
    """

    requested_backend: str = "vector"
    backend: str = "object"
    fallback_reason: str | None = None
    seed: int = 0
    reps: int = 0
    manifest: RunManifest | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        """Serialise through the :class:`~repro.obs.serialize.ToDict` protocol."""
        return {
            "values": jsonable(list(self.values)),
            "quarantined": [
                {"index": q.index, "reason": q.reason, "failures": q.failures}
                for q in self.quarantined
            ],
            "requested_backend": self.requested_backend,
            "backend": self.backend,
            "fallback_reason": self.fallback_reason,
            "seed": self.seed,
            "reps": self.reps,
            "manifest": None if self.manifest is None else self.manifest.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "BatchResult":
        manifest = payload.get("manifest")
        return cls(
            values=tuple(float(unjsonable(v)) for v in payload["values"]),
            quarantined=tuple(
                Quarantined(
                    index=int(q["index"]),
                    reason=str(q["reason"]),
                    failures=int(q["failures"]),
                )
                for q in payload.get("quarantined", ())
            ),
            requested_backend=payload.get("requested_backend", "vector"),
            backend=payload.get("backend", "object"),
            fallback_reason=payload.get("fallback_reason"),
            seed=int(payload.get("seed", 0)),
            reps=int(payload.get("reps", 0)),
            manifest=None if manifest is None else RunManifest.from_dict(manifest),
        )


# ---------------------------------------------------------------------------
# Backend execution
# ---------------------------------------------------------------------------


def resolve_backend(backend: str | None = None) -> str:
    """Explicit argument > ``$REPRO_SIM_BACKEND`` > ``"vector"``."""
    if backend is None:
        backend = os.environ.get(BACKEND_ENV, "").strip() or "vector"
    backend = str(backend).lower()
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {', '.join(_BACKENDS)}"
        )
    return backend


def _fallback_label(reason: str) -> str:
    """A short metric label for a fallback *reason* string.

    ``simulate.fallback`` counts every fallback;
    ``simulate.fallback.<label>`` splits the total by cause so a
    metrics snapshot shows *why* batches left the vector path
    (``fcfs_discipline``, ``opaque_measure``, ``platform``, ...).
    """
    if "opaque measure" in reason:
        return "opaque_measure"
    m = re.search(r"cpu discipline '(\w+)'", reason)
    if m:
        return f"{m.group(1)}_discipline"
    if "platform spec" in reason:
        return "platform"
    if "service_node_capacity" in reason:
        return "service_capacity"
    if "probe" in reason:
        return "probe"
    return "other"


def _count_fallback(reason: str) -> None:
    _obs.inc("simulate.fallback")
    _obs.inc(f"simulate.fallback.{_fallback_label(reason)}")


def _collect(raw: list) -> dict:
    """Split raw per-replication outcomes into values vs quarantined.

    Non-finite measurements are quarantined here rather than kept: a
    single NaN lane would otherwise propagate into the batch mean and
    silently poison every downstream error metric.
    """
    values: list[float] = []
    quarantined: list[dict] = []
    for k, v in enumerate(raw):
        if isinstance(v, Quarantined):
            quarantined.append(
                {"index": v.index, "reason": v.reason, "failures": v.failures}
            )
        elif v is None or not np.isfinite(v):
            quarantined.append(
                {"index": k, "reason": "non-finite measurement", "failures": 1}
            )
        else:
            values.append(float(v))
    return {"values": values, "quarantined": quarantined}


@dataclass(frozen=True)
class _VectorLaneChunk:
    """Picklable vector-batch task: run lanes ``[start, stop)``.

    Lane *k*'s seed depends only on ``(seed, k)``, so any chunking of
    the lane range yields bit-identical per-lane results — workers
    change wall-clock, never values.
    """

    spec: SimSpec
    seed: int

    def __call__(self, bounds: tuple[int, int]) -> list[float]:
        start, stop = bounds
        contenders, probe, _ = _vector_workload(self.spec)
        base = RandomStreams(self.seed)
        lane_seeds = [base.fork(k).seed for k in range(start, stop)]
        out = _vector.run_lanes(self.spec.platform, contenders, probe, lane_seeds)
        return [float(v) for v in out]


@dataclass(frozen=True)
class _SweepLaneChunk:
    """Picklable sweep-batch task: run flat lanes ``[start, stop)``.

    The flat lane index is point-major (``flat = point * reps + k``) and
    lane *k* of every point seeds itself from ``(seed, k)`` alone, so
    any chunking — across workers or across the sweep/per-point paths —
    yields bit-identical per-lane results.
    """

    specs: tuple[SimSpec, ...]
    seed: int
    reps: int

    def __call__(self, bounds: tuple[int, int]) -> list[float]:
        start, stop = bounds
        base = RandomStreams(self.seed)
        cache: dict[SimSpec, _vector.SweepPoint] = {}
        points: list[_vector.SweepPoint] = []
        lane_seeds: list[int] = []
        for flat in range(start, stop):
            pi, k = divmod(flat, self.reps)
            sp = self.specs[pi]
            pt = cache.get(sp)
            if pt is None:
                contenders, probe, _ = _vector_workload(sp)
                pt = _vector.SweepPoint(sp.platform, contenders, probe)
                cache[sp] = pt
            points.append(pt)
            lane_seeds.append(base.fork(k).seed)
        out = _vector.run_sweep(points, lane_seeds)
        return [float(v) for v in out]


def _vector_batch(spec: SimSpec, reps: int, seed: int, workers: int) -> dict:
    task = _VectorLaneChunk(spec=spec, seed=seed)
    width = max(1, min(int(workers), reps))
    size = -(-reps // width)
    bounds = [(i, min(i + size, reps)) for i in range(0, reps, size)]

    def compute() -> dict:
        with _obs.span("simulate.vector", kind="experiment", reps=reps) as sp:
            chunks = ParallelExecutor(workers=width).map(task, bounds)
            raw = [v for chunk in chunks for v in chunk]
            sp.set("lanes", len(raw))
        _obs.inc("experiment.replications", reps)
        return _collect(raw)

    journal = _journal.active()
    if journal is not None:
        description = _journal.describe_task(spec)
        if description is not None:
            return journal.point(
                "simulate",
                {
                    "spec": description,
                    "backend": "vector",
                    "reps": int(reps),
                    "seed": int(seed),
                },
                compute,
            )
    return compute()


def _object_batch(
    measure: Callable[[RandomStreams], float],
    reps: int,
    seed: int,
    retry_attempts: int,
    retry_on,
    workers: int,
    policy: FailurePolicy | None,
) -> dict:
    task = _ReplicationTask(
        measure=measure, seed=seed, retry_attempts=retry_attempts, retry_on=retry_on
    )

    def compute() -> dict:
        raw = ParallelExecutor(workers=workers).map(task, range(reps), policy=policy)
        return _collect(raw)

    # The journal kind and key shape are inherited from repeat_mean():
    # an object-backend batch is the same computation it always was, so
    # journals written before this API existed still replay.
    journal = _journal.active()
    description = _journal.describe_task(task) if journal is not None else None
    if journal is not None and description is not None:
        return journal.point(
            "repeat_mean", {"task": description, "repetitions": int(reps)}, compute
        )
    return compute()


# ---------------------------------------------------------------------------
# The entry point
# ---------------------------------------------------------------------------


def _finish_batch(
    data: dict, requested: str, chosen: str, reason: str | None, seed: int, reps: int
) -> BatchResult:
    """Mask, stamp and wrap one batch's raw data into a :class:`BatchResult`."""
    # Defensive re-mask for values replayed from pre-fix journals.
    values: list[float] = []
    quarantined = [
        Quarantined(index=int(q["index"]), reason=str(q["reason"]), failures=int(q["failures"]))
        for q in data["quarantined"]
    ]
    for v in data["values"]:
        v = float(v)
        if np.isfinite(v):
            values.append(v)
        else:
            quarantined.append(
                Quarantined(index=-1, reason="non-finite measurement", failures=1)
            )

    ctx = _obs.current()
    manifest = None
    if ctx is not None:
        manifest = RunManifest.stamp(
            experiment="simulate",
            seed=int(seed),
            metrics=ctx.snapshot(),
            trace_id=ctx.tracer.trace_id,
            extra={"backend": chosen, "requested_backend": requested, "reps": int(reps)},
        )
    return BatchResult(
        values=tuple(values),
        quarantined=tuple(quarantined),
        requested_backend=requested,
        backend=chosen,
        fallback_reason=reason,
        seed=int(seed),
        reps=int(reps),
        manifest=manifest,
    )


def simulate(
    spec: SimSpec | Callable[[RandomStreams], float] | None = None,
    *,
    sweep: "list[SimSpec] | tuple[SimSpec, ...] | None" = None,
    reps: int = 3,
    seed: int = 0,
    backend: str | None = None,
    workers: int = 1,
    retry_attempts: int = 1,
    retry_on: type[BaseException] | tuple[type[BaseException], ...] = ReproError,
    policy: FailurePolicy | None = None,
):
    """Run *reps* independent replications of *spec* (or each sweep point).

    Parameters
    ----------
    spec:
        Either a declarative :class:`SimSpec` (runs on the requested
        backend) or a measure callable ``measure(streams) -> float``
        (opaque, always runs on the object backend).
    sweep:
        Instead of one *spec*, a list of :class:`SimSpec` points; the
        return value is then a ``list[BatchResult]`` in point order,
        each exactly what ``simulate(point, ...)`` returns. On the
        vector backend the points' replications become *lanes of a
        single ragged batch* (grouped by probe type and CPU
        discipline), so a whole figure sweep costs a handful of array
        passes instead of one batch per point. Points the vector
        engine cannot cover fall back per point (bit-identical values
        either way). Mutually exclusive with *spec*.
    reps:
        Replication count; replication *k* draws all randomness from
        ``RandomStreams(seed).fork(k)`` on both backends.
    backend:
        ``"vector"`` or ``"object"``; ``None`` consults
        ``$REPRO_SIM_BACKEND`` and then defaults to ``"vector"``.
        A vector request the engine cannot honor (opaque measure,
        unsupported discipline, unknown platform/probe) falls back to
        the object engine — counted on the ``simulate.fallback``
        metric (split by cause as ``simulate.fallback.<label>``) and
        recorded in :attr:`BatchResult.fallback_reason`.
    workers:
        Process-pool width. The vector backend splits the lane range
        into contiguous chunks; the object backend fans out single
        replications. Values are bit-identical at any width.
    retry_attempts / retry_on / policy:
        Object-backend replication retry and containment knobs, exactly
        as :func:`~repro.experiments.runner.repeat_mean` took them.
        The vector backend runs to completion in one pass and ignores
        them (a quarantined lane surfaces as a quarantined
        replication, not a retry).
    """
    if (spec is None) == (sweep is None):
        raise ValueError("simulate() takes exactly one of spec= or sweep=")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps!r}")
    if sweep is not None:
        return _simulate_sweep(
            list(sweep),
            reps=reps,
            seed=seed,
            backend=backend,
            workers=workers,
            retry_attempts=retry_attempts,
            retry_on=retry_on,
            policy=policy,
        )
    requested = resolve_backend(backend)
    chosen, reason = requested, None

    if isinstance(spec, SimSpec):
        measure: Callable[[RandomStreams], float] = _SpecMeasure(spec)
        if requested == "vector":
            contenders, probe, reason = _vector_workload(spec)
            if reason is None:
                reason = _vector.unsupported_reason(spec.platform, contenders, probe)
            if reason is not None:
                chosen = "object"
    else:
        measure = spec
        if requested == "vector":
            chosen = "object"
            reason = "opaque measure callable (vector backend needs a SimSpec)"

    if chosen != requested:
        _count_fallback(reason)

    if chosen == "vector":
        data = _vector_batch(spec, reps=reps, seed=seed, workers=workers)
    else:
        data = _object_batch(
            measure,
            reps=reps,
            seed=seed,
            retry_attempts=retry_attempts,
            retry_on=retry_on,
            workers=workers,
            policy=policy,
        )
    return _finish_batch(data, requested, chosen, reason, seed, reps)


def _simulate_sweep(
    points: list,
    *,
    reps: int,
    seed: int,
    backend: str | None,
    workers: int,
    retry_attempts: int,
    retry_on,
    policy: FailurePolicy | None,
) -> list[BatchResult]:
    """Sweep-level lanes: every point's replications in shared batches.

    Vector-eligible points are grouped by ``(probe type, discipline)``
    — the uniformity :func:`repro.sim.vector.run_sweep` needs — and
    each group runs as one ragged batch of ``points × reps`` lanes.
    Because lanes are bitwise independent and lane *k* of a point seeds
    itself from ``(seed, k)`` alone, every point's values are identical
    to a standalone ``simulate(point, ...)`` call; journal keys are the
    per-point keys, so sweep-batched and per-point runs replay each
    other's journals.
    """

    def per_point(sp) -> BatchResult:
        return simulate(
            sp,
            reps=reps,
            seed=seed,
            backend=backend,
            workers=workers,
            retry_attempts=retry_attempts,
            retry_on=retry_on,
            policy=policy,
        )

    requested = resolve_backend(backend)
    if requested != "vector":
        return [per_point(sp) for sp in points]

    results: list[BatchResult | None] = [None] * len(points)
    eligible: list[int] = []
    for i, sp in enumerate(points):
        if isinstance(sp, SimSpec):
            contenders, probe, reason = _vector_workload(sp)
            if reason is None:
                reason = _vector.unsupported_reason(sp.platform, contenders, probe)
            if reason is None:
                eligible.append(i)
                continue
        # Uncovered point: the scalar path handles fallback counting,
        # journaling and manifests exactly as a standalone call would.
        results[i] = per_point(sp)

    # Journal peek: replay completed points, batch only the misses.
    journal = _journal.active()
    data: dict[int, dict] = {}
    keyed: dict[int, tuple[str, dict]] = {}
    misses: list[int] = []
    for i in eligible:
        if journal is not None:
            description = _journal.describe_task(points[i])
            if description is not None:
                params = {
                    "spec": description,
                    "backend": "vector",
                    "reps": int(reps),
                    "seed": int(seed),
                }
                key = _journal.point_key("simulate", params)
                keyed[i] = (key, params)
                found, value = journal.lookup(key)
                if found:
                    journal.hits += 1
                    _obs.inc("journal.hits")
                    data[i] = value
                    continue
        misses.append(i)

    groups: dict[tuple, list[int]] = {}
    for i in misses:
        sp = points[i]
        groups.setdefault(
            (type(sp.probe).__name__, sp.platform.cpu.discipline), []
        ).append(i)

    for group in groups.values():
        task = _SweepLaneChunk(
            specs=tuple(points[i] for i in group), seed=int(seed), reps=int(reps)
        )
        total = len(group) * reps
        width = max(1, min(int(workers), total))
        size = -(-total // width)
        bounds = [(s, min(s + size, total)) for s in range(0, total, size)]
        with _obs.span(
            "simulate.sweep", kind="experiment", points=len(group), reps=reps
        ) as sp_:
            chunks = ParallelExecutor(workers=width).map(task, bounds)
            raw = [v for chunk in chunks for v in chunk]
            sp_.set("lanes", len(raw))
        for j, i in enumerate(group):
            d = _collect(raw[j * reps : (j + 1) * reps])
            _obs.inc("experiment.replications", reps)
            if journal is not None and i in keyed:
                journal.misses += 1
                _obs.inc("journal.misses")
                key, params = keyed[i]
                d = journal.record(key, "simulate", params, d)
            data[i] = d

    for i in eligible:
        results[i] = _finish_batch(data[i], requested, "vector", None, seed, reps)
    return results
