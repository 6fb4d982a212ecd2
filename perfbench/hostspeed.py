"""Host-speed calibration: scale wall times to a reference host speed.

The shared host this benchmark runs on changes speed by up to a factor of two
in spells of ten seconds to over a minute, so the wall time of the same call
differs as much between two runs as a real regression would. The benchmark
therefore times a fixed pure-Python loop (`calibrate`) between its rounds of
samples and scales each sample by REFERENCE_S over the mean of the
calibration times just before and just after its round. A figure then reads as the seconds the call
would take on a host that runs the loop in REFERENCE_S.

The loop does the kind of work `nest` does: it parses a fixed JSON document
of 2000 integer polygons, makes `Fraction` vertex tuples and sorts them by
tuple keys. Loops that stay in the processor's caches speed up far more in
the host's fast spells than the program does, and over-correct. It never
calls the program, so a faster program still reads faster. Changing the loop
changes every figure: `test_workloads.py` pins its checksum.
"""

from __future__ import annotations

import gc
import json
import random
import time
from fractions import Fraction

# The loop's seconds on the reference host: a 2-core Intel Xeon at 2.0 GHz
# with Python 3.11.7, in its usual (slower) spells.
REFERENCE_S = 0.2


def _document() -> str:
    rng = random.Random(7)
    return json.dumps({
        "polygons": [
            {"id": f"p{i:05d}",
             "vertices": [[rng.randint(0, 10**6), rng.randint(0, 10**6)] for _ in range(18)]}
            for i in range(2000)
        ]
    })


_DOCUMENT = _document()


def calibrate() -> int:
    """The fixed calibration work; returns a checksum of it."""
    doc = json.loads(_DOCUMENT)
    rows = []
    for poly in doc["polygons"]:
        verts = [(Fraction(x), Fraction(y)) for x, y in poly["vertices"]]
        rows.append((min(verts), poly["id"], tuple(verts)))
    rows.sort()
    return sum(int(row[0][0]) for row in rows[::50]) + len(rows)


def time_calibration() -> float:
    """Wall seconds of one `calibrate`, after a collection."""
    gc.collect()
    t0 = time.perf_counter()
    calibrate()
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration times taken between samples, and the scale they give."""

    def __init__(self):
        self.last = time_calibration()
        self.times = [self.last]

    def scale(self) -> float:
        """Call right after a sample or a round of them: REFERENCE_S over
        the mean calibration time just before and just after it."""
        now = time_calibration()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        self.times.append(now)
        return factor
