"""Host-speed readings for a shared machine.

On a few cores of a shared host, the same fixed computation runs up to
twice as fast or slow, in phases of seconds and regimes of minutes,
depending on what else the host is running. A time taken across such a
stretch moves by as much, whatever the program does. So the benchmark
takes a reading (wall seconds of a fixed reference computation that touches
no plotquest code) before the first timed sample and after each, and
reports times scaled to a host on which a reading takes ``REFERENCE_S``
seconds:

    reference seconds = measured seconds * REFERENCE_S / host reading

A timed pass lasts seconds, long enough for the regime to shift within a
run, so its host reading is the mean of the two readings on either side of
it (``bracketed``). A set-up interpreter lasts about as long as one reading,
and one reading lands in a fast or a slow phase, so set-up uses the mean of
all its readings (``to_reference``). A change to plotquest moves the
measured seconds and not the readings, so it shows in full; a change in
host speed moves both and cancels. The unscaled times and every reading
are kept in the run's record.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# About what a reading takes on the 2-vCPU VM the benchmark was tuned on
# (0.1 to 0.2 s with Python 3.11 and numpy 2.x, depending on the host's
# load); only the scale of the reported times depends on it.
REFERENCE_S = 0.2

_MATRIX = np.random.default_rng(0).random((48, 48))


def reading() -> float:
    """Wall seconds of a fixed mix of interpreter work (dicts, strings,
    sorting, JSON) and small numpy products, the kinds of work a plotquest
    pass is made of. Its data stays in the CPU caches and takes well under
    a megabyte, so it does not move ``peak_rss_mb``."""
    start = time.perf_counter()
    for _ in range(36):
        counts: dict[str, int] = {}
        for i in range(5000):
            key = f"k{i % 997}"
            counts[key] = counts.get(key, 0) + i
        ordered = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
        json.loads(json.dumps(ordered))
        for _ in range(80):
            float((_MATRIX @ _MATRIX).sum())
    return time.perf_counter() - start


def to_reference(readings: list[float]) -> float:
    """The factor that turns measured seconds into reference seconds."""
    return REFERENCE_S / statistics.fmean(readings)


def bracketed(samples: list[float], readings: list[float]) -> list[float]:
    """``samples`` in reference seconds; the i-th was taken between
    ``readings[i]`` and ``readings[i + 1]``."""
    return [sample * REFERENCE_S * 2 / (before + after)
            for sample, before, after in zip(samples, readings, readings[1:])]
