"""Host-speed probe that normalises benchmark seconds for contention.

The shared host this benchmark was built on switches between speed
regimes about 1.8x apart, each lasting seconds, so raw wall-clock time
of one study does not repeat within a tenth.  The probe samples host
speed on the study's own core while the study runs: a SIGALRM timer
fires at ``HZ`` and the handler times a fixed integer loop that stays
in L1 and the interpreter's small-object allocator, between two
bytecodes of the main thread (~15 us a tick, 0.15% of the run).

The handler allocates no GC-tracked object (ints and preallocated
``array`` slots only) and runs with the collector switched off, so a
collection can never land inside a timed sample.

A region is cut into half-second buckets; each bucket's contention
factor is the median tick cost in it divided by ``REFERENCE_NS``, the
tick cost in the host's fast regime.  Dividing each bucket's wall time
by its factor raised to ``EXPONENT`` and summing gives
contention-normalised seconds: seconds the region would have taken in
the fast regime.

A second probe that read a 16 MiB buffer (four times L2) was measured
against this one on eight cold pinned studies and tracked contention
worse (IQR/median of normalised study seconds 7.9% against 3.4%; raw
24.7%), so only the L1 probe is kept.
"""

from __future__ import annotations

import gc
import signal
from array import array
from statistics import median
from time import perf_counter_ns
from typing import List, Sequence, Tuple

HZ = 100
#: ticks the arrays hold (330 s at 100 Hz); later ticks are dropped
CAPACITY = 1 << 15
LOOPS = 200
#: median tick cost (ns) in the fast regime of the reference host (a
#: 2-vCPU Intel Xeon VM, Python 3.11); it only fixes the unit, so it
#: must stay the same between the commits a comparison measures
REFERENCE_NS = 14500.0
#: the study slows more than the L1 loop under contention (it is
#: memory-bound); over 26 probe-sampled cold studies of all three
#: workloads (factors 1.02-1.56) the coefficient of variation of
#: normalised study seconds was lowest near 1.2 (pinned 2.3% -> 1.9%,
#: parallel 5.0% -> 4.0%, sandbox 6.0% -> 4.6% against exponent 1)
EXPONENT = 1.2
#: normalisation buckets: regimes last seconds, so half-second buckets
#: follow a switch inside one study without trusting a single tick
BUCKET_NS = 500_000_000


class Probe:
    """One process-wide timer probe; ``start`` once, ``stop`` once."""

    def __init__(self) -> None:
        self.stamps = array("q", bytes(8 * CAPACITY))
        self.costs = array("q", bytes(8 * CAPACITY))
        self.count = array("q", [0])

    def start(self) -> None:
        stamps, costs, count = self.stamps, self.costs, self.count

        def tick(signum: int, frame: object) -> None:
            n = count[0]
            if n >= CAPACITY:
                return
            enabled = gc.isenabled()
            gc.disable()
            t0 = perf_counter_ns()
            i = 0
            acc = 0
            while i < LOOPS:
                acc = (acc + i * i) & 0xFFFF
                i += 1
            t1 = perf_counter_ns()
            if enabled:
                gc.enable()
            stamps[n] = t1
            costs[n] = t1 - t0
            count[0] = n + 1

        signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, 1.0 / HZ, 1.0 / HZ)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def samples(self) -> Tuple[List[int], List[int]]:
        """(tick end stamps, tick costs), both in ns."""
        n = self.count[0]
        return list(self.stamps[:n]), list(self.costs[:n])


def normalise(start_ns: int, end_ns: int, stamps: Sequence[int],
              costs: Sequence[int]) -> Tuple[float, float]:
    """(normalised seconds, contention factor) of ``[start_ns, end_ns]``.

    A bucket with fewer than five ticks borrows the region's median.
    """
    inside = [(s, c) for s, c in zip(stamps, costs) if start_ns <= s <= end_ns]
    wall = (end_ns - start_ns) / 1e9
    if not inside:
        return wall, 1.0
    overall = median([c for _s, c in inside])
    buckets: dict = {}
    for stamp, cost in inside:
        buckets.setdefault((stamp - start_ns) // BUCKET_NS, []).append(cost)
    normalised = 0.0
    edge = start_ns
    while edge < end_ns:
        top = min(edge + BUCKET_NS, end_ns)
        costs_here = buckets.get((edge - start_ns) // BUCKET_NS, ())
        cost = median(costs_here) if len(costs_here) >= 5 else overall
        normalised += (top - edge) / 1e9 * (REFERENCE_NS / cost) ** EXPONENT
        edge = top
    return normalised, wall / normalised
