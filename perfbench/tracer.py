"""Spans around calls into degpow's public functions, installed from outside.

`Tracer.install` replaces each target function with a timing wrapper in
every loaded ``degpow`` module that holds a reference to it, so calls made
through ``from .x import f`` copies are seen too.  Nothing inside
``src/degpow`` is changed.

A span is ``[layer, start, end, parent, tag, count]``: ``parent`` indexes
the span that was open when this one started (-1 for none).  ``tag`` is the
task label for ``verify`` spans; for enumeration spans it is
``"generate <key>"`` when the outermost call is the first one for its
``(n, hereditary key)`` in this process and ``"revisit <key>"`` otherwise,
and nested enumeration calls take their outermost call's tag.  ``count`` is
the records a task returned or the classes an outermost enumeration call
examined.  Self time is a span's duration minus its direct children's.

Pool workers forked by the CLI inherit the wrappers.  Each worker keeps its
spans in memory and writes them to ``worker_dir`` once, when it exits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from multiprocessing import util as mp_util

# (module, function, layer); the layer names are the per-layer metric prefixes
TARGETS = (
    ("degpow.verify", "run_task", "verify"),
    ("degpow.enumeration", "extremal_ep", "enumeration"),
    ("degpow.enumeration", "enumerate_graphs", "enumeration"),
    ("degpow.structure", "is_minimally_t_connected", "structure.min_conn"),
    ("degpow.structure", "is_minimally_t_edge_connected", "structure.min_edge_conn"),
    ("degpow.structure", "degeneracy", "structure.degeneracy"),
    ("degpow.structure", "has_even_cycle", "structure.even_cycle"),
    ("degpow.graphs", "ep", "graphs.ep"),
    ("degpow.families", "ep_closed_form", "families.ep_closed_form"),
    ("degpow.majorization", "p_power_norm", "majorization.p_power_norm"),
)
STRUCTURE_LAYERS = ("structure.min_conn", "structure.min_edge_conn",
                    "structure.degeneracy", "structure.even_cycle")
LEAF_LAYERS = STRUCTURE_LAYERS + ("graphs.ep", "families.ep_closed_form",
                                  "majorization.p_power_norm")


def task_label(task) -> str:
    """A short stable name for one run_task grid task."""
    kind, kw = task
    if kind == "theorem":
        return f"{kw['thm']} n={kw['n']}"
    return kind + " " + ",".join(f"{k}={v}" for k, v in sorted(kw.items()))


class Tracer:
    def __init__(self, worker_dir: str) -> None:
        self.worker_dir = worker_dir
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._seen_keys: set[str] = set()
        self._enum_depth = 0
        self._enum_tag = ""
        self._cached: dict[str, object] = {}  # layer -> lru-cached original
        self._cache_base: dict[str, tuple[int, int]] = {}

    def install(self) -> None:
        for mod_name, fn_name, layer in TARGETS:
            orig = getattr(importlib.import_module(mod_name), fn_name)
            if hasattr(orig, "cache_info"):
                self._cached[layer] = orig
            wrapper = self._wrap(orig, layer)
            for name, mod in list(sys.modules.items()):
                if name == "degpow" or name.startswith("degpow."):
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
        self._cache_base = self._cache_counts()
        # forked pool workers start with no spans and write theirs at exit
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        self.spans, self._stack, self._seen_keys = [], [], set()
        self._enum_depth = 0
        self._cache_base = self._cache_counts()
        mp_util.Finalize(self, self._dump_worker, exitpriority=100)

    def _dump_worker(self) -> None:
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)

    def _cache_counts(self) -> dict[str, tuple[int, int]]:
        counts = {}
        for layer, fn in self._cached.items():
            info = fn.cache_info()
            counts[layer] = (info.hits, info.misses)
        return counts

    def snapshot(self) -> dict:
        """This process's spans and cache hits/misses since install or fork."""
        now = self._cache_counts()
        cache = {layer: [now[layer][0] - self._cache_base[layer][0],
                         now[layer][1] - self._cache_base[layer][1]] for layer in now}
        return {"pid": os.getpid(), "spans": self.spans, "cache": cache}

    def _wrap(self, orig, layer: str):
        sig = inspect.signature(orig)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            tag = ""
            outer_enum = False
            if layer == "verify":
                tag = task_label(args[0] if args else kwargs["task"])
            elif layer == "enumeration":
                if self._enum_depth == 0:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    n, pred = bound.arguments["n"], bound.arguments["pred"]
                    key = f"n={n} {pred.hereditary_key(n)}"
                    kind = "revisit" if key in self._seen_keys else "generate"
                    self._seen_keys.add(key)
                    self._enum_tag = f"{kind} {key}"
                    outer_enum = True
                tag = self._enum_tag
                self._enum_depth += 1
            span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, tag, 0]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if layer == "enumeration":
                    self._enum_depth -= 1
            if layer == "verify":
                span[5] = len(result)
            elif outer_enum:
                span[5] = getattr(result, "graphs_examined", result)
            return result

        return wrapper


def _self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def aggregate(snapshots: list[dict], run_s: float, jobs: int,
              cpu_s: float) -> tuple[dict, list[tuple[str, float, int]]]:
    """Per-layer metrics, and (label, seconds, records) per verify task,
    from every process's snapshot of one traced pass."""
    m: dict[str, float] = {}
    for layer in LEAF_LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.self_s"] = 0.0
    self_by_kind = {"generate": 0.0, "revisit": 0.0}
    generations = classes = 0
    keys: set[str] = set()
    tasks: list[tuple[str, float, int]] = []
    cache = {layer: [0, 0] for layer in STRUCTURE_LAYERS}
    for snap in snapshots:
        spans = snap["spans"]
        for s, self_s in zip(spans, _self_times(spans)):
            layer, tag = s[0], s[4]
            if layer == "verify":
                tasks.append((tag, s[2] - s[1], s[5]))
            elif layer == "enumeration":
                kind, key = tag.split(" ", 1)
                self_by_kind[kind] += self_s
                if s[3] < 0 or spans[s[3]][0] != "enumeration":
                    classes += s[5]
                    generations += kind == "generate"
                    keys.add(key)
            else:
                m[f"{layer}.calls"] += 1
                m[f"{layer}.self_s"] += self_s
        for layer, (hits, misses) in snap["cache"].items():
            cache[layer][0] += hits
            cache[layer][1] += misses
    for layer, (hits, misses) in cache.items():
        # 0 where the predicate has no cache
        m[f"{layer}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    durations = [d for _, d, _ in tasks]
    busy = sum(durations)
    m.update({
        "verify.tasks": len(tasks),
        "verify.records": sum(r for _, _, r in tasks),
        "verify.task_s_p50": statistics.median(durations) if durations else 0.0,
        "verify.task_s_max": max(durations, default=0.0),
        "enumeration.generate_s": self_by_kind["generate"],
        "enumeration.revisit_s": self_by_kind["revisit"],
        "enumeration.generations": generations,
        "enumeration.distinct_keys": len(keys),
        "enumeration.classes_examined": classes,
        "cli.cpu_s": cpu_s,
        "cli.parallel_eff": busy / (jobs * run_s),
        "cli.idle_s": jobs * run_s - busy,
    })
    return m, tasks
