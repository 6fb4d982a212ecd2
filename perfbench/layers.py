"""Per-layer timing of nestpoly, taken from outside the program.

`Tracer` wraps the functions that `nestpoly` exports for each layer and sums
the wall time of every call into them. It finds each target by its exported
name only; a layer whose name is gone is listed in `absent` and left
untimed, so a refactor that renames a layer does not stop the run.

The status layer is measured apart, by `drive_status`: it drives a fresh
`SweepStatus` through the `build_events` output with the public `insert`,
`remove` and `predecessor` methods and times each call.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

# (metric, name exported by nestpoly, method name on that export or None)
LAYERS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("instance_io.parse_s", "parse_instance", None),
    ("geometry.make_polygon_s", "make_polygon", None),
    ("segments.decompose_s", "decompose", None),
    ("segments.assign_parities_s", "assign_parities", None),
    ("sweep.build_events_s", "build_events", None),
    ("sweep.nesting_forest_s", "nesting_forest", None),
    ("forest.depths_s", "NestingForest", "depths"),
    ("instance_io.serialize_forest_s", "serialize_forest", None),
)
STATUS_METRICS = (
    "sweep.status_insert_s",
    "sweep.status_remove_s",
    "sweep.status_predecessor_s",
)
COUNT_METRICS = (
    "count.N",
    "count.events",
    "count.peak_live_segments",
    "count.tied_inserts",
)


class Tracer:
    """Installs and removes timing wrappers around nestpoly's layer calls."""

    def __init__(self, package):
        self.package = package
        self.totals_ns: Dict[str, int] = {}
        self.absent: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.totals_ns = {metric: 0 for metric, _, _ in LAYERS}

    def install(self) -> None:
        self.reset()
        self.absent = []
        prefix = self.package.__name__
        modules = [self.package] + [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and name.startswith(prefix + ".")
        ]
        for metric, export, method in LAYERS:
            target = getattr(self.package, export, None)
            if method is not None:
                fn = None if target is None else target.__dict__.get(method)
                if not callable(fn):
                    self.absent.append(metric)
                    continue
                self._bind(target, method, fn, self._timed(metric, fn))
                continue
            if not callable(target):
                self.absent.append(metric)
                continue
            wrapper = self._timed(metric, target)
            # Rebind every module-level name that refers to the function, so
            # calls from inside the package go through the wrapper too.
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._bind(mod, attr, target, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _bind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _timed(self, metric: str, fn):
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.totals_ns[metric] += clock() - t0

        return wrapper


def drive_status(package, polygons: Sequence) -> Dict[str, int]:
    """Time a SweepStatus driven through build_events, and count the events.

    Returns nanoseconds summed per status method (STATUS_METRICS) and the
    event counts (COUNT_METRICS). Raises AttributeError or TypeError when
    the exported names or the event fields this relies on have changed.
    """
    decompose = package.decompose
    assign_parities = package.assign_parities
    segments = []
    for poly in polygons:
        segments.extend(assign_parities(poly, decompose(poly)).segments)
    events = package.build_events(segments)
    status = package.SweepStatus()
    clock = time.perf_counter_ns
    insert_ns = remove_ns = pred_ns = 0
    live = peak = 0
    insert_x: Dict[object, set] = defaultdict(set)
    inserts_at: Counter = Counter()
    for ev in events:
        if ev.kind == "remove":
            t0 = clock()
            status.remove(ev.segment)
            remove_ns += clock() - t0
            live -= 1
            continue
        t0 = clock()
        entry = status.insert(ev.segment, ev.xi)
        insert_ns += clock() - t0
        live += 1
        peak = max(peak, live)
        insert_x[ev.xi].add(ev.segment.polygon_id)
        inserts_at[ev.xi] += 1
        if ev.first:
            t0 = clock()
            status.predecessor(entry)
            pred_ns += clock() - t0
    return {
        "sweep.status_insert_s": insert_ns,
        "sweep.status_remove_s": remove_ns,
        "sweep.status_predecessor_s": pred_ns,
        "count.N": len(segments),
        "count.events": len(events),
        "count.peak_live_segments": peak,
        "count.tied_inserts": sum(
            inserts_at[x] for x, ids in insert_x.items() if len(ids) > 1
        ),
    }
