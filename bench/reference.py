"""A fixed reference task that measures how fast the machine runs right now.

The benchmark's host is shared.  The same job, repeated in one process, runs
up to 1.5 times slower for tens of seconds at a time, in user time as well as
in wall time, so whole runs land in slow or fast phases.  The reference task
is the benchmark's own code and never changes with the program, so its time
tracks only the machine: numpy gathers and counts over arrays of 2 MB, as in
the program's vectorized scans.  A pure-Python loop was tried as well; it
reacted to the host's phases more strongly than the program's jobs did, and
over-corrected them.

The benchmark times the task before every job and reports job times
normalized to a machine on which the task takes ``REFERENCE_S``: a change to
the program moves them in the same proportion as wall time, a slow phase of the
host much less.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.01  # about the task's median time on the 2-core Xeon VM of README.md
WINDOW = 5  # a job is scaled by the median task time of the jobs up to 5 before and after it

_IDX = np.random.default_rng(0).integers(0, 1 << 18, size=1 << 18)
_TABLE = np.arange(1 << 18, dtype=np.int64)
_BUF = np.empty_like(_TABLE)  # preallocated, so the task's time does not hang on malloc state


def _task(rounds: int) -> int:
    acc = 0
    for _ in range(rounds):
        np.take(_TABLE, _IDX, out=_BUF)
        np.bitwise_and(_BUF, 1023, out=_BUF)
        acc += int(np.bincount(_BUF, minlength=1024).argmax())
    return acc


def reference_s() -> float:
    """Wall time of one run of the reference task (about 10 ms)."""
    start = time.perf_counter()
    _task(3)
    return time.perf_counter() - start


def normalized(seconds: list[float], reference: list[float]) -> list[float]:
    """Job times scaled to a machine on which the reference task takes REFERENCE_S.

    ``reference[i]`` is the task's time measured just before job ``i``.  Job
    ``i`` is scaled by REFERENCE_S over the median of the task times of jobs
    ``i - WINDOW`` to ``i + WINDOW``: one task time is too noisy on its own,
    and the host's phases last much longer than the window.
    """
    out = []
    for i, s in enumerate(seconds):
        local = statistics.median(reference[max(0, i - WINDOW):i + WINDOW + 1])
        out.append(s * REFERENCE_S / local)
    return out
