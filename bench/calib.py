"""Host speed calibration for the benchmark's timings.

The container this benchmark was built on shares its cores with other
tenants; its speed drifts by tens of percent over minutes, and the same run
repeated minutes apart moved by up to half. Every timing is therefore paired
with a fixed pure-Python workload timed right before it, in the same process,
and reported scaled to the speed at which that workload takes REFERENCE_S:

    scaled = measured * REFERENCE_S / calibration

The workload mixes the operations treepump spends its time on: tuples grown
one element at a time, dictionary stores keyed by them, and string joins.
"""

from __future__ import annotations

from time import perf_counter

# the workload's duration on the 2-core x86-64 container where the baseline
# in README.md was taken; it only sets the scale of the reported values
REFERENCE_S = 1.5e-3


def _workload() -> None:
    table = {}
    path: tuple[int, ...] = ()
    for i in range(3000):
        path = path + (i % 3,) if len(path) < 40 else (i % 3,)
        table[path] = str(i)
    ",".join(table.values())


def calibrate(repeats: int = 3) -> float:
    """The shortest of `repeats` timings of the fixed workload, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        _workload()
        best = min(best, perf_counter() - t0)
    return best


def scale(seconds: float, calibration: float) -> float:
    """A measured duration expressed at the reference speed."""
    return seconds * REFERENCE_S / calibration
