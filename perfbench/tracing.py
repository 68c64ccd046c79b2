"""Spans around the library's public functions, recorded from outside ``src/``.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds every name
under which an ``obsdiam`` module holds it: ``observable`` calls
``partial_diameter`` and ``heavy_minimal_subsets`` through its own bindings,
so patching only the defining module would lose those spans.  Methods are
patched once, on their class.  Helpers that finish in well under a
microsecond (``to_fraction``, ``format_fraction``, ``FiniteMMSpace.dist``)
stay unwrapped, which keeps the overhead bounded.

A span is (name, start, end, parent, op id).  Spans stay in memory and are
written out after the run; a span's self time is its duration minus the
durations of its children, which on one thread never overlap.
"""

from __future__ import annotations

import gzip
import json
import sys
from math import factorial
from time import perf_counter

import obsdiam

TRACED = (
    "observable.observable_diameter",
    "observable.od_grid_oracle",
    "observable.random_lipschitz_map",
    "mmspace.heavy_minimal_subsets",
    "mmspace.FiniteMMSpace.__init__",
    "mmspace.LipschitzWitness.validate",
    "measures.partial_diameter",
    "measures.pd_profile",
    "measures.DiscreteMeasure.__init__",
    "measures.push_forward",
    "plmaps.PiecewiseLinearMap.after",
    "compression.clamp_construct",
    "prokhorov.prokhorov_onesided",
    "prokhorov.check_pd_transfer",
    "experiments.verify_counterexample",
    "experiments.sharpness_sweep",
    "experiments.semicontinuity_profile",
    "proptests.run_suite",
    "cli.main",
)
OP_SPAN = "bench.op"  # one root span per op: the call plus its checks

# Work counts computed from the arguments and results of traced calls.
WORK_COUNTS = (
    "observable.orderings_total",
    "mmspace.heavy_family_size",
    "prokhorov.subsets_total",
    "measures.profile_windows",
    "measures.pd_atoms",
)
DEFAULT_SUPPORT_CAP = 12  # the Prokhorov default cap at this commit


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1  # id of the op being run
        self.spans: list = []  # [name, start, end, parent, op]
        self._stack: list = []
        self.errors = dict.fromkeys(TRACED, 0)
        self.work = dict.fromkeys(WORK_COUNTS, 0)
        self.od_calls: list = []  # (space, screen, kappa, value)
        self.prokhorov_calls = 0
        self.above_default_cap = 0

    # -- spans -----------------------------------------------------------------

    def open(self, name: str) -> list:
        span = [name, perf_counter(), None, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                tracer.close(span)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in TRACED and rebind all its names."""
        observers = {
            "observable.observable_diameter": self._observe_od,
            "mmspace.heavy_minimal_subsets": self._observe_heavy,
            "prokhorov.prokhorov_onesided": self._observe_prokhorov,
            "measures.pd_profile": self._observe_profile,
            "measures.partial_diameter": self._observe_pd,
        }
        modules = [m for n, m in sys.modules.items() if n == "obsdiam" or n.startswith("obsdiam.")]
        for name in TRACED:
            module_name, _, attr = name.partition(".")
            owner = sys.modules[f"obsdiam.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self._wrap(name, getattr(cls, method), observers.get(name)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, observers.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    # -- work counts ---------------------------------------------------------------

    def _observe_od(self, args, result):
        space, screen, kappa = args[:3]
        n = len(space)
        if n >= 2:
            self.work["observable.orderings_total"] += factorial(n) // 2
        self.od_calls.append((space, screen, kappa, result.value))

    def _observe_heavy(self, args, result):
        self.work["mmspace.heavy_family_size"] += len(result.minimal_subsets)

    def _observe_prokhorov(self, args, result):
        mu, nu = args[:2]
        self.work["prokhorov.subsets_total"] += 2 ** len(nu)
        self.prokhorov_calls += 1
        self.above_default_cap += len(mu) + len(nu) > DEFAULT_SUPPORT_CAP

    def _observe_profile(self, args, result):
        n = len(args[0])
        self.work["measures.profile_windows"] += n * (n + 1) // 2

    def _observe_pd(self, args, result):
        self.work["measures.pd_atoms"] += len(args[0])

    # -- summaries -----------------------------------------------------------------------

    def self_times(self) -> dict:
        """Self seconds and call counts per span name."""
        own = [s[2] - s[1] for s in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        totals: dict = {}
        for span, seconds in zip(self.spans, own):
            entry = totals.setdefault(span[0], [0, 0.0])
            entry[0] += 1
            entry[1] += seconds
        return totals

    def durations(self, name: str) -> list:
        return [(s[4], s[2] - s[1]) for s in self.spans if s[0] == name]

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def seed_hit(space, screen, kappa, value) -> bool:
    """Whether a distance-to-anchor witness, squeezed affinely onto a short
    screen, already reaches the final od."""
    n = len(space)
    if value == 0:
        return True
    base = screen.a if isinstance(screen, obsdiam.Interval) else 0
    width = screen.width if isinstance(screen, obsdiam.Interval) else None
    alpha = 1 - kappa
    for anchor in range(n):
        values = [space.dist(i, anchor) for i in range(n)]
        spread = max(values)
        if width is not None and spread > width:
            values = [v * width / spread for v in values]
        witness = obsdiam.LipschitzWitness(tuple(v + base for v in values))
        if obsdiam.witness_partial_diameter(space, witness, alpha) == value:
            return True
    return False


def embeds_in_line(space) -> bool:
    """Whether the metric is isometric to points on the line: a point
    farthest from point 0 is an end, and distances to it are positions."""
    n = len(space)
    end = max(range(n), key=lambda j: space.dist(0, j))
    pos = [space.dist(end, i) for i in range(n)]
    return all(
        abs(pos[i] - pos[j]) == space.dist(i, j) for i in range(n) for j in range(i + 1, n)
    )
