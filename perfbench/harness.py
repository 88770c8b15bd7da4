"""Shared benchmark plumbing: statistics, inputs hashing, environment, WAL files.

Nothing here imports the program (``repro``): the statistics are pure
Python so the harness self-tests run without it, and ``run.py`` only
imports the workloads after checking that the program is importable.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Per-run result files and span exports (ignored by git).
OUT_DIR = ROOT / "perfbench" / "out"


# -- statistics ----------------------------------------------------------------


def percentile(sorted_values: list[float] | Any, q: float) -> float:
    """Nearest-rank *q*-th percentile of ascending *sorted_values*.

    The smallest sample with at least ``q`` percent of the samples at or
    below it: ``sorted_values[ceil(q / 100 * n) - 1]``. Exact sample
    values only, no interpolation, so a percentile is always something
    that was measured.
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q!r}")
    rank = max(1, math.ceil(q / 100.0 * n - 1e-9))
    return float(sorted_values[rank - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie strictly above the nearest-rank *q*-th."""
    return n - max(1, math.ceil(q / 100.0 * n - 1e-9))


def median(values: Iterable[float]) -> float:
    """Median (mean of the middle pair for an even count)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class LatencySamples:
    """Per-operation latencies in integer nanoseconds.

    The buffer for *capacity* samples is allocated (and its pages
    touched) up front, so recording them does not show in
    ``peak_rss_mb``; samples beyond it are appended.
    """

    def __init__(self, capacity: int = 0) -> None:
        self.ns = array("q", bytes(8 * capacity))
        self.n = 0

    def add(self, elapsed_ns: int) -> None:
        if self.n < len(self.ns):
            self.ns[self.n] = elapsed_ns
        else:
            self.ns.append(elapsed_ns)
        self.n += 1

    def summary_us(self, window: int = 0) -> tuple[float, float, int, int, int]:
        """``(p50_us, p99_us, n, windows, beyond_p99)`` of the samples.

        With *window*, the samples are cut, in order, into ``n // window``
        equal consecutive windows (at least one), and each percentile is the
        median of the windows' nearest-rank percentiles; ``beyond_p99``
        counts the samples beyond p99 in the smallest window. The host's
        speed moves between a fast and a slow state, sometimes every second
        or so: a tail percentile of all samples pooled jumps with every
        burst of slow seconds, while the median over windows follows the
        state that held most of them. A program change that makes every
        operation x % slower moves every window, and so the median, by x %.
        """
        windows = max(1, self.n // window) if window else 1
        p50s, p99s = [], []
        beyond = self.n
        for k in range(windows):
            ordered = sorted(self.ns[k * self.n // windows : (k + 1) * self.n // windows])
            p50s.append(percentile(ordered, 50) / 1e3)
            p99s.append(percentile(ordered, 99) / 1e3)
            beyond = min(beyond, samples_beyond(len(ordered), 99))
        return median(p50s), median(p99s), self.n, windows, beyond


# -- results -------------------------------------------------------------------


@dataclass
class Result:
    """What one workload run measured and checked."""

    workload: str
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    inputs_hash: str = ""
    #: Traced runs only: the span ledgers by phase, exported as JSONL.
    ledgers: dict[str, Any] = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        if note:
            self.notes.append(f"{name}: {note}")

    def check(self, ok: bool, message: str) -> bool:
        """Record a failed output check (never raises)."""
        if not ok:
            self.errors.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return not self.errors

    def line(self) -> dict[str, Any]:
        """The final JSON line: exactly correct/attempted/failed/metrics."""
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def inputs_digest(*parts: Any) -> str:
    """blake2b over the ``repr`` of every generated input, in order."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if hasattr(part, "tobytes"):
            h.update(part.tobytes())
        elif isinstance(part, (list, tuple)):
            for item in part:
                h.update(repr(item).encode())
                h.update(b"\x00")
        else:
            h.update(repr(part).encode())
        h.update(b"\x01")
    return h.hexdigest()


def _status_kib(pid: int | str, field: str) -> int:
    """One ``kB`` field (``VmRSS``, ``VmHWM``) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


class MemoryGrowth:
    """Peak resident memory a process gained after a baseline, in MB.

    The baseline is taken once the benchmark's own inputs exist, so the
    growth is what the program allocated for them; for a forked worker
    it is taken at spawn, so the parent's pages the child shares
    copy-on-write are not counted twice.
    """

    def __init__(self, pid: int | str = "self", base_kib: int | None = None) -> None:
        self.pid = pid
        self.base_kib = _status_kib(pid, "VmRSS") if base_kib is None else base_kib

    def peak_mb(self) -> float:
        return (_status_kib(self.pid, "VmHWM") - self.base_kib) / 1024.0


# -- write-ahead log files -----------------------------------------------------


class WalFile:
    """An anonymous in-memory file (``memfd``) addressed by a ``/proc`` path.

    The fleet's ``EventLog`` takes a path and calls ``fsync`` on every
    append. Pointing it at a memfd keeps the fsync call (counted by the
    traced run) but takes the shared disk's flush latency out of the
    timings, with the same semantics as a tmpfs file, and writes nothing
    outside the checkout. The path names the creating process's fd, so a
    forked shard worker opens the same file for its journal replay.
    """

    fs_type = "memfd (shmem, tmpfs semantics)"

    def __init__(self, name: str) -> None:
        self._fd: int | None = os.memfd_create(name)
        self.path = f"/proc/{os.getpid()}/fd/{self._fd}"

    def size(self) -> int:
        return os.stat(self.path).st_size

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def crash_image(wal: WalFile, name: str) -> WalFile:
    """A copy of *wal*'s bytes right now: what a crash at this instant leaves."""
    image = WalFile(name)
    # Copied in chunks: holding the whole log would show in peak_rss_mb.
    with open(wal.path, "rb") as src, open(image.path, "wb") as dst:
        shutil.copyfileobj(src, dst, 1 << 16)
    return image


# -- environment -----------------------------------------------------------------


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding *path* (from /proc/mounts)."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    target = str(path.resolve())
    best, best_type = "", "unknown"
    for line in mounts:
        parts = line.split()
        if len(parts) >= 3 and (
            target == parts[1] or target.startswith(parts[1].rstrip("/") + "/")
        ):
            if len(parts[1]) >= len(best):
                best, best_type = parts[1], parts[2]
    return best_type


def usable_cpus() -> int:
    """CPUs this process may run on (``nproc``)."""
    return len(os.sched_getaffinity(0))


def disk_fsync_us(samples: int = 16) -> float:
    """Median latency of a 4 KiB write + fsync inside the checkout.

    Environment information only: the timed workloads never fsync to
    disk (see :class:`WalFile`).
    """
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"fsync-probe-{os.getpid()}.tmp"
    times = []
    try:
        with open(path, "wb") as fh:
            for _ in range(samples):
                fh.write(b"\0" * 4096)
                fh.flush()
                t0 = time.perf_counter()
                os.fsync(fh.fileno())
                times.append((time.perf_counter() - t0) * 1e6)
    finally:
        path.unlink(missing_ok=True)
    return median(times)


def source_digest() -> str:
    """blake2b over the program's sources: identifies code without git."""
    h = hashlib.blake2b(digest_size=12)
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    """The checkout's git commit, or ``unknown`` when it is not a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(pinned: dict[str, str]) -> dict[str, Any]:
    """The facts every result records next to its metrics."""
    import numpy

    return {
        "commit": commit(),
        "source_digest": source_digest(),
        "nproc": usable_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "wal_fs": WalFile.fs_type,
        "checkout_fs": filesystem_of(ROOT),
        "disk_fsync_us": round(disk_fsync_us(), 1),
        "pinned": pinned,
        "argv": sys.argv[1:],
    }
