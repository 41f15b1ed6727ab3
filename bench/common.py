"""Shared plumbing of the benchmark: paths, statistics, child processes,
operation accounting.  Nothing here imports ``repro``; the workloads do,
after :func:`require_program` has put ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Any, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DATA = OUT / "data"
TMP = OUT / "tmp"

#: the benchmark is sized for a measuring budget of this many seconds; other
#: ``--seconds`` values scale the repeat counts, never the data
NOMINAL_SECONDS = 20.0


def require_program() -> None:
    """Put the program under test on ``sys.path`` or stop: a checkout
    without ``src/repro`` has nothing to measure."""
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def center(samples: Sequence[float]) -> float:
    """The reported value of a small timing sample: the mean of what is left
    after dropping the fastest and the slowest fifth (one sample each way of
    five).  On this kind of host — short, frequent, one-sided slow-downs — it
    repeats better from run to run than the plain median, and unlike the mean
    one stalled sample cannot move it."""
    ordered = sorted(samples)
    trim = len(ordered) // 5 if len(ordered) >= 3 else 0
    kept = ordered[trim : len(ordered) - trim]
    return sum(kept) / len(kept)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def summary(samples: Sequence[float]) -> dict[str, float]:
    """Sample count, median and quartiles — what the results file keeps per
    timing so a reader can judge the spread inside one run."""
    if len(samples) >= 2:
        q1, q2, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q2 = q3 = samples[0]
    return {"n": len(samples), "q1": q1, "median": q2, "q3": q3}


# --------------------------------------------------------------------------- #
# operation accounting: every verified, failed or refused operation counts
# --------------------------------------------------------------------------- #
class Ops:
    """Attempted/failed operation counts of one run; ``failed`` over
    ``attempted`` is the run's error rate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def record_all(self, problems: Sequence[str]) -> None:
        """One verification: a pass when it found nothing, else one failure
        per problem found."""
        for problem in problems or [""]:
            self.record(not problem, problem)


# --------------------------------------------------------------------------- #
# files and directories (everything the benchmark writes lives under OUT)
# --------------------------------------------------------------------------- #
def fresh_dir(*parts: str) -> Path:
    path = TMP.joinpath(*parts)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def loadavg() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return -1.0


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# --------------------------------------------------------------------------- #
# the program as child processes
# --------------------------------------------------------------------------- #
def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # one hash seed for every child: set/dict iteration order, and with it
    # allocation patterns and peak RSS, repeat from run to run
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_KERNEL_BACKEND", None)  # the backend seam stays on auto
    return env


def cli_command(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *args]


class CliRun:
    """Outcome of one ``repro`` CLI child: wall seconds from spawn to exit,
    exit code, peak RSS and what it printed."""

    def __init__(self, seconds: float, returncode: int, rss_mb: float, stdout: str, stderr: str):
        self.seconds = seconds
        self.returncode = returncode
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr


def run_cli(args: Sequence[str], tag: str = "cli", timeout: float = 120.0) -> CliRun:
    """Run ``python -m repro.cli <args>`` to completion and time it.

    Output goes to files so a chatty child can never block on a full pipe
    while we wait for its rusage.
    """
    TMP.mkdir(parents=True, exist_ok=True)
    out_path = TMP / f"{tag}.stdout"
    err_path = TMP / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        child = subprocess.Popen(
            cli_command(*args), stdout=out, stderr=err, env=child_env(), cwd=str(ROOT)
        )
        watchdog = threading.Timer(timeout, child.kill)
        watchdog.start()
        try:
            # wait4, not Popen.wait: it hands back the child's rusage
            _, status, usage = os.wait4(child.pid, 0)
            seconds = time.perf_counter() - started
        except BaseException:
            child.kill()  # interrupted while waiting: leave no child behind
            child.wait()
            raise
        finally:
            watchdog.cancel()
        # tell Popen the child is reaped so it never waits on it again
        child.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(
        seconds,
        child.returncode,
        usage.ru_maxrss / 1024.0,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "nogit"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "nogit"


def metric(value: float, unit: str, samples: Sequence[float] | None = None) -> dict[str, Any]:
    """One reported metric; ``samples`` (same unit) add count and quartiles."""
    entry: dict[str, Any] = {"value": value, "unit": unit}
    if samples:
        entry.update(summary(samples))
    return entry


# --------------------------------------------------------------------------- #
# host speed: shared sandboxes drift by tens of percent over minutes
# --------------------------------------------------------------------------- #
class Speed:
    """How fast this host is *right now*, relative to a reference host.

    A shared 2-vCPU sandbox slows down and speeds up by 20-30 % for minutes at
    a time (and now and then by 2-3x), which is more than any bound in
    ``BENCHMARK.json``.  So every CPU-bound timed sample is bracketed by a
    fixed, stdlib-only calibration chunk (dict updates, a sort, string
    building: the interpreter work the program itself mostly does) run before
    and after it, and is reported scaled to the reference speed:
    ``seconds * REFERENCE / median(its bracket's chunk seconds)``.  The chunk
    lives here, not in the program, so a change to the program moves the
    timing and not the yardstick; the unscaled value and the factor are kept
    beside every metric in the results file.
    """

    #: seconds one chunk takes on the reference host (this sandbox when quiet)
    REFERENCE = 0.0082
    #: chunks on each side of a bracket
    SIDE = 3
    #: the chunks that closed one bracket open the next when it starts within
    #: this many seconds
    FRESH = 0.05

    def __init__(self) -> None:
        self._tail: list[float] = []
        self._tail_at = 0.0

    @staticmethod
    def chunk() -> float:
        started = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(40_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i * 3
        sorted(counts.items(), key=lambda item: -item[1])
        ",".join([str(i) for i in range(20_000)]).split(",")
        return time.perf_counter() - started

    def _probe(self) -> list[float]:
        self._tail = [self.chunk() for _ in range(self.SIDE)]
        self._tail_at = time.perf_counter()
        return self._tail

    def open(self) -> list[float]:
        """Chunks just before a timed region (the previous bracket's closing
        chunks when they are still fresh)."""
        if self._tail and time.perf_counter() - self._tail_at < self.FRESH:
            return self._tail
        return self._probe()

    def close(self, before: list[float]) -> float:
        """Chunks just after the region; returns the host's slow-down over
        the bracket (1.0 = reference speed, 1.25 = a quarter slower)."""
        return median(before + self._probe()) / self.REFERENCE


class Samples:
    """Timed samples of one metric, each with the host slow-down of its own
    bracket."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.slowdowns: list[float] = []

    def add(self, seconds: float, slowdown: float = 1.0) -> None:
        self.seconds.append(seconds)
        self.slowdowns.append(slowdown)

    def __len__(self) -> int:
        return len(self.seconds)

    def metric(self, unit: str, p50: bool = False) -> dict[str, Any]:
        """The metric: the median when ``p50`` (latency distributions with
        dozens of samples), else the trimmed mean :func:`center`, of the
        samples scaled to the reference host speed and to ``unit``."""
        scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        estimate = median if p50 else center
        scaled = [s / f * scale for s, f in zip(self.seconds, self.slowdowns)]
        entry = metric(estimate(scaled), unit, scaled)
        entry["raw"] = estimate(self.seconds) * scale
        entry["host_slowdown"] = median(self.slowdowns)
        return entry


def throughput(completed: int, *operations: Samples) -> dict[str, Any]:
    """Verified operations per second of operation time at the reference
    host speed: the workload's fixed mix, every operation a timed sample."""
    scaled = sum(s / f for ops in operations for s, f in zip(ops.seconds, ops.slowdowns))
    entry = metric(completed / scaled, "1/s")
    entry["raw"] = completed / sum(s for ops in operations for s in ops.seconds)
    return entry


def timed(speed: Speed, samples: Samples, fn: Any, *args: Any, **kwargs: Any) -> Any:
    """Run ``fn`` as one bracketed, timed sample; returns its result."""
    before = speed.open()
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    seconds = time.perf_counter() - started
    samples.add(seconds, speed.close(before))
    return result


class Ctx:
    """What one workload run needs: its seed, its measuring budget, the size
    scale (1.0, or about 1/20 for ``--selftest``) and the operation counts
    its checks feed."""

    def __init__(self, workload: str, seed: int, seconds: float, scale: float = 1.0) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.ops = Ops()
        #: floor for repeat counts: five, or two in the selftest
        self.min_repeats = 5 if scale >= 1.0 else 2

    def repeats(self, base: int) -> int:
        """``base`` repeats at the nominal budget, scaled with ``--seconds``
        (cut repeats before data, but never below the floor)."""
        return max(self.min_repeats, int(round(base * self.seconds / NOMINAL_SECONDS)))
