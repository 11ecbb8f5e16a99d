"""Shared plumbing: checkout paths, child processes, statistics, output."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives here (listed in .gitignore).
WORK = ROOT / ".bench_build" / "perfbench"

#: Profiling iterations for every fit the benchmark runs. Predictions do
#: not depend on it; it sizes the profiling and simulation layers.
FIT_ITERATIONS = 40

#: Seconds any one child process may take before the run fails.
CHILD_TIMEOUT_S = 150.0


def sources_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    """Environment for ``python -m repro`` children: sources from the
    checkout, workspace and temporary files inside the work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    env["REPRO_WORKSPACE"] = str(WORK / "default-workspace")
    env.pop("REPRO_TRACE", None)
    env.pop("REPRO_METRICS", None)
    return env


#: The 1-minute load average when the benchmark process started.
LOADAVG_AT_START = math.nan


def prepare_process() -> None:
    """Point this process at the checkout's sources and work directory."""
    global LOADAVG_AT_START
    LOADAVG_AT_START = os.getloadavg()[0]
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    for key, value in child_env().items():
        if key in ("TMPDIR", "REPRO_WORKSPACE"):
            os.environ[key] = value
    import tempfile

    tempfile.tempdir = None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_child(argv: Sequence[str], cwd: Path) -> Dict[str, Any]:
    """Run one child to completion; its span, exit status and output."""
    started_s = time.monotonic()
    proc = subprocess.Popen(
        list(argv), cwd=str(cwd), env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    ended_s = time.monotonic()
    # communicate() reaped the child; its rusage is folded into
    # RUSAGE_CHILDREN, whose ru_maxrss is the largest child so far.
    return {
        "argv": list(argv[1:]),
        "span": (started_s, ended_s),
        "wall_s": ended_s - started_s,
        "returncode": proc.returncode,
        "stdout": out.decode("utf-8", "replace"),
        "stderr": err.decode("utf-8", "replace")[-2000:],
    }


# -- host speed ---------------------------------------------------------------
def pin_to_one_cpu() -> None:
    """Run this process and every child on one CPU, the last one allowed.

    On a shared host each CPU slows and speeds up on its own, so the
    host-speed probe only tracks the program when both run on the same
    CPU. One CPU also keeps the serving threads' hand-offs off the
    cross-CPU wake-up path, whose cost varies with the host.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class HostSpeed:
    """A running ``hostprobe.py`` and the host speed its samples show.

    The benchmark runs on a few cores of a shared host whose speed
    drifts by tens of percent within seconds. Every time the benchmark
    reports is a wall time measured over a span of ``time.monotonic()``
    and then multiplied by :meth:`scale` of that span: ``NOMINAL_MS``
    over the median probe sample taken during it. The result is the
    time the step would have taken on a host where the probe's fixed
    work takes ``NOMINAL_MS``; the report keeps the raw wall times too.
    """

    #: Probe CPU time, in ms, that defines the reference host speed.
    NOMINAL_MS = 1.0
    #: Fewest samples a scale rests on; shorter spans take the samples
    #: nearest their midpoint.
    MIN_SAMPLES = 9
    START_TIMEOUT_S = 20.0

    def __init__(self) -> None:
        self.path = WORK / f"hostprobe-{os.getpid()}.txt"
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.unlink(missing_ok=True)
        env = child_env()
        # One thread: the probe must time the same work on every host.
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[key] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "hostprobe.py"),
             str(self.path)],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        deadline_s = time.monotonic() + self.START_TIMEOUT_S
        while len(self.samples()) < self.MIN_SAMPLES:
            if self.proc.poll() is not None or time.monotonic() > deadline_s:
                self.stop()
                raise RuntimeError("host-speed probe did not start")
            time.sleep(0.05)

    def stop(self) -> None:
        if self.proc is not None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc = None
        self.path.unlink(missing_ok=True)

    def samples(self) -> List[Any]:
        """(stamp, cpu_ms) of every complete sample so far."""
        try:
            lines = self.path.read_text().splitlines()
        except OSError:
            return []
        rows = []
        for line in lines:
            parts = line.split()
            if len(parts) == 2:
                rows.append((float(parts[0]), float(parts[1])))
        return rows

    def probe_ms(self, started_s: float, ended_s: float) -> float:
        """Median probe sample over a span of ``time.monotonic()``."""
        rows = self.samples()
        inside = [ms for stamp, ms in rows if started_s <= stamp <= ended_s]
        if len(inside) < self.MIN_SAMPLES:
            mid_s = (started_s + ended_s) / 2.0
            nearest = sorted(rows, key=lambda row: abs(row[0] - mid_s))
            inside = [ms for _, ms in nearest[:self.MIN_SAMPLES]]
        if not inside:
            raise RuntimeError("host-speed probe has no samples")
        return median(inside)

    def scale(self, started_s: float, ended_s: float) -> float:
        return self.NOMINAL_MS / self.probe_ms(started_s, ended_s)

    def scaled(self, span: Sequence[float]) -> float:
        """The wall time of ``span`` at the reference host speed."""
        started_s, ended_s = span
        return (ended_s - started_s) * self.scale(started_s, ended_s)

    def summary(self) -> Dict[str, float]:
        values = sorted(ms for _, ms in self.samples())
        return {
            "probe_samples": len(values),
            "probe_p10_ms": percentile(values, 10),
            "probe_p50_ms": percentile(values, 50),
            "probe_p90_ms": percentile(values, 90),
            "probe_nominal_ms": self.NOMINAL_MS,
        }


#: The probe of this benchmark process, started and stopped by run.py.
SPEED = HostSpeed()


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repro_cmd(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


# -- statistics -----------------------------------------------------------
def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of an ascending sequence."""
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest of p50/p90/p99/p99.9/p99.99 with >= 10 samples beyond."""
    best = 50.0
    for q in (90.0, 99.0, 99.9, 99.99):
        if n * (1.0 - q / 100.0) >= 10.0:
            best = q
    return best


# -- output ----------------------------------------------------------------
def host_info() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m_at_start": LOADAVG_AT_START,
        "machine": platform.machine(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        **SPEED.summary(),
    }


def emit(report: Dict[str, Any], correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Any], units: Dict[str, str]) -> None:
    """Print the report, then the one-line result the harness parses."""
    WORK.mkdir(parents=True, exist_ok=True)
    name = f"last-{report['workload']}-trace{report['trace']}.json"
    (WORK / name).write_text(json.dumps(report, indent=2, default=str) + "\n")
    print(json.dumps(report, indent=2, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        # A layer the workload never enters reads 0.
        "metrics": {
            key: {"value": float(metrics.get(key, 0.0)), "unit": units[key]}
            for key in units
        },
    }))


def previous_untraced(workload: str) -> Optional[Dict[str, Any]]:
    """The last untraced report of ``workload`` in this checkout, if any."""
    path = WORK / f"last-{workload}-trace0.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None
