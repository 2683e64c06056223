"""The CPU's speed, measured beside the work, and the correction for it.

The committing machine is a 2-vCPU virtual machine whose CPUs change speed
in spells: a fixed loop takes 1.00 or about 1.28 times its best time, for
0.3-20 s at a stretch, on each vCPU independently, in CPU time as in wall
time and with no steal time reported.  A run of 15 s sits in one state or
the other for most of its length, so its medians came out 25 % apart on
unchanged code, and no estimator over the run's own samples (blocks, lower
quartiles, minima) repeated better than the plain median.

What does repeat is the ratio between a timing and a fixed piece of work
timed beside it on the same CPU.  So a measured run

* confines itself and every process it starts to one CPU (:func:`pin`):
  client, servers and the probe then see the same speed -- and a request
  no longer pays a cross-vCPU wake-up, 0.3-0.6 ms here and itself unsteady;
* runs :class:`SpeedProbe` beside the work: every 30 ms a thread times a
  fixed loop in its own CPU time, which waiting for the interpreter lock or
  for the CPU does not count;
* states every timing **at reference speed**: the measured time divided by
  (probe time around that moment / ``REFERENCE_S``).

``REFERENCE_S`` is the probe's time on the committing machine at its faster
speed, so the numbers read as that machine's unhindered milliseconds.  On
another machine they are scaled by one constant, alike for a parent commit
and a change; every report prints the run's mean ``cpu_speed_rel`` so the
times as they passed on the wall can be recovered (multiply).  The
correction assumes time is spent computing; the few milliseconds a commit
waits for ``fsync`` are scaled with the rest, which errs by the same factor
on both sides of a comparison.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_left, bisect_right

#: The probe: this many turns of a fixed loop, this often.
LOOPS = 20_000
PERIOD_S = 0.03
#: The probe's CPU time at the speed all timings are stated at.
REFERENCE_S = 0.00080
#: A timing is corrected by the probes from this long before it began to
#: this long after it ended: about seven probes around a 1 ms request.  The
#: spells last tenths of a second and more, one probe alone moves 15 % with
#: what the previous time slice left in the cache.
MARGIN_S = 0.1


def pin() -> str:
    """Confine this process, and so its children, to one CPU; say which."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as exc:
        return f"not pinned ({exc}): client and servers may run at " \
               "different speeds, which the probe cannot see"
    return f"pinned to CPU {cpu}"


class SpeedProbe:
    """A thread that times a fixed loop every ``PERIOD_S``; a context
    manager."""

    def __init__(self) -> None:
        #: (``perf_counter`` when the loop began, its CPU seconds).
        self._samples: list[tuple[float, float]] = []
        self._halt = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="bench-speed-probe", daemon=True
        )

    def _run(self) -> None:
        cpu_time, clock = time.thread_time, time.perf_counter
        while not self._halt.is_set():
            began, c0, acc = clock(), cpu_time(), 0
            for i in range(LOOPS):
                acc += i * i % 7
            self._samples.append((began, cpu_time() - c0))
            self._halt.wait(PERIOD_S)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._halt.set()
        self._thread.join()

    def relative(self, t0: float, t1: float) -> float:
        """Probe time over ``[t0, t1]`` (``perf_counter``) as a multiple of
        ``REFERENCE_S``: 1.25 says the CPU took a quarter longer than at
        reference speed.  Mean of the probes from ``MARGIN_S`` before to
        ``MARGIN_S`` after; of the nearest two when none fell in there."""
        samples = self._samples
        lo = bisect_left(samples, t0 - MARGIN_S, key=_began)
        hi = bisect_right(samples, t1 + MARGIN_S, key=_began)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(samples), hi + 1)
        if lo == hi:
            raise RuntimeError("the speed probe has not run yet")
        return sum(cost for _, cost in samples[lo:hi]) / (hi - lo) / REFERENCE_S


def _began(sample: tuple[float, float]) -> float:
    return sample[0]
