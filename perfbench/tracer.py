"""Run one polyrenorm CLI request in this process, with a span around each
call into a layer's public function.

    python3 perfbench/tracer.py SPANS_JSON -- CLI_ARG...

`polyrenorm` must be importable (the benchmark puts the checkout's `src` on
PYTHONPATH).  Spans hold a name, start, end, parent span and work counts; they
stay in memory and are written to SPANS_JSON when the request ends.  The exit
code is the CLI's.  `summarize` turns the span files of many requests into
per-function and per-layer totals, with self time = duration minus the time
covered by child spans.

Spans are recorded on the main thread only: calls made from `run_row_blocks`
worker threads are covered by the span of the caller that waits for them.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import threading
import time

# Span name -> layer.  Layers follow the package's modules; `poly` is counted
# with `verify` (the cycle census), grid and CSV writes with `render`, and
# `scene` with `cli`.  The two private bottcher functions are the engine's
# entry points that surgery and the equipotential helpers call directly;
# without them that continuation time would land in the caller's self time.
SPANS = {
    "bottcher.land_ray": "bottcher",
    "bottcher.trace_spiral": "bottcher",
    "bottcher.bottcher_point": "bottcher",
    "bottcher.equipotential_arc": "bottcher",
    "bottcher.equipotential_polyline": "bottcher",
    "bottcher.external_angle": "bottcher",
    "bottcher._descend_chain": "bottcher",
    "bottcher._trace_angular": "bottcher",
    "avoiding.escape_analysis": "avoiding",
    "avoiding.wedge_raster": "avoiding",
    "avoiding.connected_components": "avoiding",
    "avoiding.compare_masks": "avoiding",
    "cuts.build_family": "cuts",
    "cuts.check_admissible": "cuts",
    "cuts.check_legal": "cuts",
    "carrots.build_carrots": "carrots",
    "carrots.carrot_geometry": "carrots",
    "surgery.build_surgery": "surgery",
    "surgery.visit_count_experiment": "surgery",
    "surgery.nonescaping_mask": "surgery",
    "surgery.dilatation_report": "surgery",
    "verify.conjugacy_report": "verify",
    "poly.find_cycles": "verify",
    "render.write_ppm": "render",
    "render.render_mask": "render",
    "render.render_scene_image": "render",
    "render.draw_polyline": "render",
    "grid.save_mask_raw": "render",
    "cli._write_rows": "render",
    "scene.load_scene": "cli",
    "scene.figure1_scene": "cli",
    "cli.import": "cli",
    "cli.main": "cli",
}
LAYERS = ("bottcher", "avoiding", "cuts", "carrots", "surgery", "verify",
          "render", "cli")
# Spans opened by `main` itself: the package import and the whole request.
ROOTS = ("cli.import", "cli.main")


def _file_bytes(path) -> dict:
    return {"bytes": os.path.getsize(path)}


# Work counts per span, from the bound arguments and the result.
WORK = {
    "bottcher.land_ray": lambda a, r: {"points": len(r.points)},
    "avoiding.escape_analysis":
        lambda a, r: {"mpix": (a["grid"].resolution * a["supersample"]) ** 2 / 1e6},
    "surgery.visit_count_experiment": lambda a, r: {"seeds": a["n_seeds"]},
    "surgery.nonescaping_mask": lambda a, r: {"mpix": a["grid"].resolution ** 2 / 1e6},
    "poly.find_cycles": lambda a, r: {"cycles": len(r)},
    "render.write_ppm": lambda a, r: _file_bytes(a["path"]),
    "grid.save_mask_raw": lambda a, r: _file_bytes(a["path"]),
    "cli._write_rows": lambda a, r: _file_bytes(a["path"]),
}
# Functions whose repeated calls with equal arguments are counted, giving a
# useful-to-attempted ratio.
UNIQUE = ("bottcher.land_ray", "avoiding.escape_analysis", "carrots.build_carrots")


def _key(x):
    """Hashable fingerprint of an argument: by value for numbers, strings,
    frozen dataclasses and small arrays, by identity for other objects."""
    if x is None or isinstance(x, (bool, int, float, complex, str)):
        return x
    if isinstance(x, (tuple, list)):
        return tuple(_key(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _key(v)) for k, v in x.items()))
    coeffs = getattr(x, "coeffs", None)
    if coeffs is not None:
        return ("coeffs", _key(tuple(coeffs)))
    if hasattr(x, "tobytes") and getattr(x, "size", 1 << 20) <= 4096:
        return (x.shape, x.tobytes())
    try:
        hash(x)
    except TypeError:
        return ("id", id(x))
    return x


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._seen: dict[str, set] = {name: set() for name in UNIQUE}
        self._main = threading.get_ident()

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append({"id": len(self.spans), "parent": None, "name": name,
                           "start": start, "end": end})

    def wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        work = WORK.get(name)
        seen = self._seen.get(name)

        def traced(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            bound = None
            if work or seen is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            span = {"id": len(self.spans),
                    "parent": self._stack[-1] if self._stack else None,
                    "name": name}
            if seen is not None:
                key = tuple(_key(v) for v in bound.arguments.values())
                span["repeat"] = key in seen
                seen.add(key)
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if work:
                span["work"] = work(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function in every loaded polyrenorm module
        that holds a reference to it, so direct imports are covered too."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "polyrenorm" or n.startswith("polyrenorm."))]
        for name in SPANS:
            if name in ROOTS:
                continue
            modname, _, fname = name.partition(".")
            mod = sys.modules.get("polyrenorm." + modname)
            orig = getattr(mod, fname, None) if mod is not None else None
            if not callable(orig):
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)


def summarize(requests: list[dict]) -> dict:
    """Aggregate span files: per span name calls, total_s, self_s, repeats
    and work counts; per layer self_s; and the covered time (root spans)."""
    funcs: dict[str, dict] = {}
    layers = {layer: 0.0 for layer in LAYERS}
    covered = 0.0
    for req in requests:
        spans = req["spans"]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
            else:
                covered += s["end"] - s["start"]
        for s in spans:
            dur = s["end"] - s["start"]
            f = funcs.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                             "repeats": 0, "work": {}})
            f["calls"] += 1
            f["total_s"] += dur
            f["self_s"] += dur - child_time[s["id"]]
            f["repeats"] += bool(s.get("repeat"))
            for k, v in s.get("work", {}).items():
                f["work"][k] = f["work"].get(k, 0) + v
            layers[SPANS[s["name"]]] += dur - child_time[s["id"]]
    return {"functions": funcs, "layers": layers, "covered_s": covered}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- CLI_ARG...", file=sys.stderr)
        return 2
    tracer = Tracer()
    t0 = time.perf_counter()
    import polyrenorm.cli
    tracer.record("cli.import", t0, time.perf_counter())
    tracer.install()
    code = tracer.wrap("cli.main", polyrenorm.cli.main)(argv[2:])
    with open(argv[0], "w") as fh:
        json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
