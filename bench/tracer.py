"""Tracing of finiteqm from outside the package.

``Tracer.install`` wraps the public functions of every layer module at
every module binding that imported them (``transition_probability`` is
bound in both ``finiteqm.rays`` and ``finiteqm.mub``, for example), plus a
few methods.  Three kinds of wrapper keep the overhead bounded:

* span: one record per call (name, start, end, parent, job), for the
  coarse calls that make the layer boundaries;
* hot: per-call functions (``rays``, ``galois.gf_trace*``,
  ``UMatrix.rows``) are not spans; their calls and seconds add up under
  the enclosing span;
* count: scalar ``Cyclotomic`` operations, ``cyclotomic`` module functions
  and ``Ray`` construction only count calls under the enclosing span.

Spans stay in memory until ``export``.  A span's self time is its duration
minus its child spans and minus the outermost hot calls made directly
under it.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("cyclotomic", "galois", "qgroups", "rays", "states", "decomposition", "mub", "cli")
_HOT_MODULES = {"rays"}
_COUNT_MODULES = {"cyclotomic"}
_HOT_FUNCTIONS = {"galois.gf_trace", "galois.gf_trace_int"}
# cli is traced at its entry point only: argument parsing, the cmd_*
# bodies and canonical JSON are the cli layer's self time.
_CLI_FUNCTIONS = {"main"}


def _observe_closure(obs, args, kwargs, result):
    gens = args[0] if args else kwargs["generators"]
    obs["elements"] = result.order
    obs["products"] = len(gens) * result.order


def _observe_candidates(obs, args, kwargs, result):
    _, obs["raw"], obs["deduped"], obs["skipped"] = result


def _observe_filter(obs, args, kwargs, result):
    obs["kept"] = len(result[0])


# counts read off return values at the layer boundary
_OBSERVERS = {
    "qgroups.group_closure": _observe_closure,
    "states.interference_candidates": _observe_candidates,
    "states.rationality_filter": _observe_filter,
}


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "covered", "hot", "obs")

    def __init__(self, sid: int, name: str, parent: "Span | None"):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.covered = 0.0
        self.hot: dict[str, list] = {}
        self.obs: dict[str, int] = {}


class Tracer:
    """Span recorder for one job in one process."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[Span] = []
        self.current: Span | None = None
        self.depth = 0  # active hot calls

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(len(self.spans), name, self.current)
        self.spans.append(span)
        self.current = span
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self.current = span.parent

    def _hot_stat(self, name: str) -> list:
        hot = self.current.hot
        stat = hot.get(name)
        if stat is None:
            stat = hot[name] = [0, 0.0]
        return stat

    def _span_wrapper(self, fn, name: str):
        observe = _OBSERVERS.get(name)
        hot_wrapper = self._hot_wrapper(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.depth:  # inside a hot call: aggregate, do not nest spans
                return hot_wrapper(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if observe is not None:
                observe(span.obs, args, kwargs, result)
            return result

        return wrapper

    def _hot_wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.current
            stat = self._hot_stat(name)
            stat[0] += 1
            outer = not self.depth
            self.depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.depth -= 1
                stat[1] += dt
                if outer:
                    span.covered += dt

        return wrapper

    def _count_wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._hot_stat(name)[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------

    def _wrapper(self, fn, name: str):
        module = name.split(".")[0]
        if module in _COUNT_MODULES:
            return self._count_wrapper(fn, name)
        if module in _HOT_MODULES or name in _HOT_FUNCTIONS:
            return self._hot_wrapper(fn, name)
        return self._span_wrapper(fn, name)

    def install(self) -> None:
        """Wrap every layer's public functions and the traced methods."""
        from finiteqm.cyclotomic import Cyclotomic
        from finiteqm.qgroups import UMatrix
        from finiteqm.rays import Ray

        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"finiteqm.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or (layer == "cli" and attr not in _CLI_FUNCTIONS)
                ):
                    continue
                wrapped[id(obj)] = (obj, self._wrapper(obj, f"{layer}.{attr}"))
        for name, mod in list(sys.modules.items()):
            if name != "finiteqm" and not name.startswith("finiteqm."):
                continue
            for attr, obj in list(vars(mod).items()):
                pair = wrapped.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(mod, attr, pair[1])

        methods = (
            (Cyclotomic, "__mul__", "cyclotomic.mul", self._count_wrapper),
            (Cyclotomic, "__rmul__", "cyclotomic.mul", self._count_wrapper),
            (Cyclotomic, "__add__", "cyclotomic.add", self._count_wrapper),
            (Cyclotomic, "__radd__", "cyclotomic.add", self._count_wrapper),
            (Cyclotomic, "conj", "cyclotomic.conj", self._count_wrapper),
            (Cyclotomic, "inv", "cyclotomic.inv", self._count_wrapper),
            (Cyclotomic, "rational", "cyclotomic.rational", self._count_wrapper),
            (Ray, "__init__", "rays.ray_new", self._count_wrapper),
            (UMatrix, "rows", "qgroups.rows", self._hot_wrapper),
            (UMatrix, "__matmul__", "qgroups.matmul", self._span_wrapper),
            (UMatrix, "dagger", "qgroups.dagger", self._span_wrapper),
        )
        for cls, attr, name, make in methods:
            setattr(cls, attr, make(vars(cls)[attr], name))

    # -- export -------------------------------------------------------------------

    def export(self) -> list[dict]:
        """Spans as plain records, with self time computed."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent.id] += span.end - span.start
        return [
            {
                "job": self.job,
                "id": span.id,
                "name": span.name,
                "parent": None if span.parent is None else span.parent.id,
                "start": span.start,
                "end": span.end,
                "self": span.end - span.start - child_time[span.id] - span.covered,
                "hot": span.hot,
                "obs": span.obs,
            }
            for span in self.spans
        ]


# -- per-layer metrics ------------------------------------------------------------

_GENERATORS = {
    "qgroups.wh_generators",
    "qgroups.fourier_matrix",
    "qgroups.s_matrix",
    "qgroups.clifford_generators",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit), from the spans of one pass.

    ``X.s`` is the time inside spans named X, counting a span nested in a
    span of the same name once; for hot functions it is the summed time of
    all their calls.  ``X.self_s`` sums the self time of X's spans.
    """
    by_key = {(s["job"], s["id"]): s for s in spans}

    def has_ancestor_in(span, names) -> bool:
        parent = span["parent"]
        while parent is not None:
            span = by_key[(span["job"], parent)]
            if span["name"] in names:
                return True
            parent = span["parent"]
        return False

    def seconds(*names: str) -> float:
        group = set(names)
        return sum(
            (
                s["end"] - s["start"]
                for s in spans
                if s["name"] in group and not has_ancestor_in(s, group)
            ),
            0.0,
        )

    def calls(name: str) -> int:
        return sum(1 for s in spans if s["name"] == name)

    def self_s(name: str) -> float:
        return sum((s["self"] for s in spans if s["name"] == name), 0.0)

    hot_calls: dict[str, int] = {}
    hot_s: dict[str, float] = {}
    obs: dict[str, int] = {}
    for s in spans:
        for name, (n, t) in s["hot"].items():
            hot_calls[name] = hot_calls.get(name, 0) + n
            hot_s[name] = hot_s.get(name, 0.0) + t
        for key, value in s["obs"].items():
            obs[key] = obs.get(key, 0) + value

    closure_s = seconds("qgroups.group_closure")
    m: dict[str, tuple[float, str]] = {
        "cli.main.s": (seconds("cli.main"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "qgroups.group_closure.calls": (calls("qgroups.group_closure"), "count"),
        "qgroups.group_closure.s": (closure_s, "s"),
        "qgroups.closure.elements": (obs.get("elements", 0), "count"),
        "qgroups.closure.products": (obs.get("products", 0), "count"),
        "qgroups.closure.elements_per_s": (_ratio(obs.get("elements", 0), closure_s), "1/s"),
        "qgroups.matmul.calls": (calls("qgroups.matmul"), "count"),
        "qgroups.matmul.s": (seconds("qgroups.matmul"), "s"),
        "qgroups.kron.s": (seconds("qgroups.kron"), "s"),
        "qgroups.dagger.s": (seconds("qgroups.dagger"), "s"),
        "qgroups.rows.s": (hot_s.get("qgroups.rows", 0.0), "s"),
        "qgroups.generators.s": (seconds(*_GENERATORS), "s"),
    }
    for name in ("rays.transition_probability", "rays.apply"):
        m[f"{name}.calls"] = (hot_calls.get(name, 0), "count")
        m[f"{name}.s"] = (hot_s.get(name, 0.0), "s")
    m["rays.ray_new.calls"] = (hot_calls.get("rays.ray_new", 0), "count")
    for op in ("mul", "add", "conj", "inv", "rational"):
        m[f"cyclotomic.{op}.calls"] = (hot_calls.get(f"cyclotomic.{op}", 0), "count")
    for name in (
        "states.center_phases",
        "states.interference_candidates",
        "states.rationality_filter",
        "states.clifford_orbit",
        "states.verify_requirements",
        "states.generate_states",
    ):
        m[f"{name}.s"] = (seconds(name), "s")
    m["states.clifford_orbit.calls"] = (calls("states.clifford_orbit"), "count")
    m["states.generate_states.self_s"] = (self_s("states.generate_states"), "s")
    raw, deduped = obs.get("raw", 0), obs.get("deduped", 0)
    kept, skipped = obs.get("kept", 0), obs.get("skipped", 0)
    m["states.candidates_raw"] = (raw, "count")
    m["states.candidates_deduped"] = (deduped, "count")
    m["states.kept"] = (kept, "count")
    m["states.skipped_pairs"] = (skipped, "count")
    m["states.dedup_ratio"] = (_ratio(deduped, raw), "ratio")
    m["states.keep_ratio"] = (_ratio(kept, deduped), "ratio")
    m["decomposition.crt_permutation.s"] = (seconds("decomposition.crt_permutation"), "s")
    m["decomposition.clifford_product_check.s"] = (
        seconds("decomposition.clifford_product_check"),
        "s",
    )
    m["decomposition.clifford_product_check.self_s"] = (
        self_s("decomposition.clifford_product_check"),
        "s",
    )
    m["galois.gf_build.s"] = (seconds("galois.gf_build"), "s")
    m["mub.mub_complete_set.s"] = (seconds("mub.mub_complete_set"), "s")
    m["mub.verify_mub.s"] = (seconds("mub.verify_mub"), "s")
    return m
