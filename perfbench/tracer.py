"""Outside-in tracing of geomcover's layers.

`Tracer.install` replaces each traced public function by a wrapper at every
place a geomcover module binds it (its defining module and every module that
imported it by name), and wraps `CoverableCounter.__init__` on the class.
Nothing under src/ is edited. Each wrapped call records a span: name, start,
end, parent span and the id of the solve it belongs to. Spans stay in memory
until the traced pass ends.

Per-predicate functions (`flat_contains`, `curve_covers`, `c_of_mask`) are
not wrapped: they run millions of times per solve, and wrapping them would
measure the tracer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


def _kernel_info(args, kwargs, result):
    return {"points_out": len(result.points), "forced": len(result.forced),
            "rejected": int(result.rejected), "added_points": len(result.added_points)}


def _search_info(args, kwargs, result):
    st = result.stats
    return {"nodes": st.nodes_expanded, "leaves_rejected": st.leaves_rejected,
            "leaves_ie": st.leaves_ie}


def _decide_info(args, kwargs, result):
    return {"subsets": result.subsets}


def _sums_info(args, kwargs, result):
    # ie_sums(points, family, ks, flats=(), cap=...)
    flats = kwargs.get("flats", args[3] if len(args) > 3 else ())
    return {"subsets": 1 << (len(tuple(args[0])) + len(tuple(flats)))}


def _extract_info(args, kwargs, result):
    return {"objects": len(result)}


# (module, attribute, span name, result summary)
SPANNED = (
    ("geomcover.cli", "main", "cli", None),
    ("geomcover.instances", "load_instance", "instances.load", None),
    ("geomcover.geometry", "enumerate_candidates", "geometry.enumerate", None),
    ("geomcover.geometry", "enumerate_lines3", "geometry.enumerate", None),
    ("geomcover.geometry", "candidate_cover_sets", "geometry.cover_sets", None),
    ("geomcover.geometry", "check_cover", "geometry.check", None),
    ("geomcover.kernel", "curve_kernel", "kernel", _kernel_info),
    ("geomcover.kernel", "plane_kernel_r3", "kernel", _kernel_info),
    ("geomcover.curve_branch", "curve_cover", "curve_branch", _search_info),
    ("geomcover.plane_branch", "plane_cover", "plane_branch", _search_info),
    ("geomcover.inclusion_exclusion", "ie_decide", "ie.decide", _decide_info),
    ("geomcover.inclusion_exclusion", "ie_sums", "ie.sums", _sums_info),
    ("geomcover.inclusion_exclusion", "extract_cover", "ie.extract", _extract_info),
    ("geomcover.oracle", "oracle_min_cover", "oracle", None),
)
# generator functions: the body runs while the caller iterates, so only the
# calls are counted and the time stays with the caller
COUNTED = (
    ("geomcover.plane_branch", "extend_lines", "plane_branch.extend"),
)

SEARCHES = ("curve_branch", "plane_branch")

# per-layer metrics that count work; they must repeat exactly between passes
DETERMINISTIC = (
    "cli.route_oracle", "cli.route_ie",
    "kernel.points_out", "kernel.forced", "kernel.rejected", "kernel.added_points",
    "curve_branch.nodes", "curve_branch.leaves_rejected",
    "plane_branch.nodes", "plane_branch.leaves_ie", "plane_branch.extend_calls",
    "inclusion_exclusion.counter_builds", "inclusion_exclusion.sweep_calls",
    "inclusion_exclusion.subsets", "inclusion_exclusion.extract_decides",
    "oracle.calls",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, solve, info]
        self.calls: Counter = Counter()
        self.solve_id = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _spanned(self, name, fn, summarize):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.solve_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if summarize is not None:
                span[5] = summarize(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "geomcover" or mod_name.startswith("geomcover.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def install(self):
        for mod_name, attr, name, summarize in SPANNED:
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original, self._spanned(name, original, summarize))
        for mod_name, attr, name in COUNTED:
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original, self._counted(name, original))
        counter_cls = sys.modules["geomcover.inclusion_exclusion"].CoverableCounter
        original = counter_cls.__init__
        counter_cls.__init__ = self._spanned("ie.counter_build", original, None)
        self._patches.append((counter_cls, "__init__", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str, pass_name: str):
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent, solve, info in self.spans:
                fh.write(json.dumps({"pass": pass_name, "name": name, "start": start, "end": end,
                                     "parent": parent, "solve": solve, "info": info}) + "\n")


def layer_metrics(tracer: Tracer, routes: Counter) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass as {name: (value, unit)}, and the
    DETERMINISTIC ones among them as {name: value}.

    Times are self times in ms summed over the pass: a span's duration minus
    the time its direct child spans cover."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ms: Counter = Counter()
    calls: Counter = Counter()
    info: Counter = Counter()
    direct_search_sweeps = 0
    extract_decides = 0
    for i, (name, start, end, parent, _, summary) in enumerate(spans):
        self_ms[name] += (end - start - child[i]) * 1e3
        calls[name] += 1
        for key, value in (summary or {}).items():
            info[name + "." + key] += value
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "ie.decide" and parent_name in SEARCHES:
            direct_search_sweeps += 1
        if name == "ie.decide" and parent_name == "ie.extract":
            extract_decides += 1

    search_leaves = info["curve_branch.leaves_ie"] + info["plane_branch.leaves_ie"]
    subsets = info["ie.decide.subsets"] + info["ie.sums.subsets"]
    sweep_ms = self_ms["ie.decide"] + self_ms["ie.sums"]
    curve_nodes = info["curve_branch.nodes"]
    extracted = info["ie.extract.objects"]
    metrics = {
        "cli.self_ms": (self_ms["cli"], "ms"),
        "cli.route_oracle": (routes["oracle"], "count"),
        "cli.route_ie": (routes["ie"], "count"),
        "instances.load_ms": (self_ms["instances.load"], "ms"),
        "geometry.enumerate_ms": (self_ms["geometry.enumerate"], "ms"),
        "geometry.cover_sets_ms": (self_ms["geometry.cover_sets"], "ms"),
        "geometry.check_ms": (self_ms["geometry.check"], "ms"),
        "kernel.ms": (self_ms["kernel"], "ms"),
        "kernel.points_out": (info["kernel.points_out"], "count"),
        "kernel.forced": (info["kernel.forced"], "count"),
        "kernel.rejected": (info["kernel.rejected"], "count"),
        "kernel.added_points": (info["kernel.added_points"], "count"),
        "curve_branch.self_ms": (self_ms["curve_branch"], "ms"),
        "curve_branch.nodes": (curve_nodes, "count"),
        "curve_branch.leaves_rejected": (info["curve_branch.leaves_rejected"], "count"),
        "curve_branch.reject_ratio": (
            info["curve_branch.leaves_rejected"] / curve_nodes if curve_nodes else 0.0, "fraction"),
        "plane_branch.self_ms": (self_ms["plane_branch"], "ms"),
        "plane_branch.nodes": (info["plane_branch.nodes"], "count"),
        "plane_branch.leaves_ie": (info["plane_branch.leaves_ie"], "count"),
        "plane_branch.extend_calls": (tracer.calls["plane_branch.extend"], "count"),
        "inclusion_exclusion.counter_builds": (calls["ie.counter_build"], "count"),
        "inclusion_exclusion.counter_build_ms": (self_ms["ie.counter_build"], "ms"),
        "inclusion_exclusion.sweep_calls": (calls["ie.decide"] + calls["ie.sums"], "count"),
        "inclusion_exclusion.sweep_ms": (sweep_ms, "ms"),
        "inclusion_exclusion.subsets": (subsets, "count"),
        "inclusion_exclusion.ns_per_subset": (sweep_ms * 1e6 / subsets if subsets else 0.0, "ns"),
        "inclusion_exclusion.leaf_cache_hit_ratio": (
            1 - direct_search_sweeps / search_leaves if search_leaves else 0.0, "fraction"),
        "inclusion_exclusion.extract_ms": (self_ms["ie.extract"], "ms"),
        "inclusion_exclusion.extract_decides": (
            extract_decides / extracted if extracted else 0.0, "calls/object"),
        "oracle.calls": (calls["oracle"], "count"),
        "oracle.self_ms": (self_ms["oracle"], "ms"),
    }
    return metrics, {name: metrics[name][0] for name in DETERMINISTIC}
