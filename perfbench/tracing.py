"""Spans around qdist's layers, recorded from outside the library.

``Tracer.install`` replaces the public functions of each layer, in every
loaded ``qdist`` module that refers to them, with wrappers that record a
span; ``Tracer.uninstall`` puts the originals back. Spans stay in memory as
[layer, function, start_ns, end_ns, parent index, solve id, note, raised]
and are written out once, after the traced pass. Layers are named after the
``src/qdist`` modules; ``discrim.fz`` marks the builds of F(z).
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# layer -> (module, function, note taken from (args, result) or None)
_LAYERS = {
    "certificate": [
        ("qdist.metrics", "variety_intersects", None),
        ("qdist.metrics", "centered_intersects", None),
        ("qdist.metrics", "general_intersects", None),
    ],
    "pencil": [
        ("qdist.metrics", "point_pencil", None),
        ("qdist.metrics", "variety_pencil", None),
        ("qdist.metrics", "centered_pencil", None),
        ("qdist.metrics", "general_bipoly_at", None),
    ],
    "discrim.fz": [
        ("qdist.metrics", "point_distance_poly", None),
        ("qdist.metrics", "variety_distance_poly", None),
        ("qdist.metrics", "centered_distance_poly", None),
        ("qdist.metrics", "general_distance_poly_full", None),
    ],
    "discrim.interp": [
        ("qdist.discrim", "discriminant_param", lambda a, r: r.degree if r else -1),
        ("qdist.discrim", "discriminant_biv_param", lambda a, r: r.degree if r else -1),
    ],
    "discrim.node": [
        ("qdist.discrim", "discriminant_uni", None),
        ("qdist.discrim", "bezout_matrix_biv", None),
    ],
    "roots.isolate": [
        ("qdist.realroots", "isolate_real_roots", lambda a, r: a[0].degree),
    ],
    "roots.refine": [
        ("qdist.realroots", "refine_interval", None),
        ("qdist.realroots", "refine", None),
    ],
    "recovery": [
        ("qdist.metrics", "variety_nearest_points", None),
        ("qdist.metrics", "centered_nearest_points", None),
        ("qdist.metrics", "general_nearest_points", None),
    ],
    "parametric.surface": [
        ("qdist.parametric", "family_distance_surface", None),
    ],
    "parametric.iterated": [
        ("qdist.parametric", "family_distance_poly", None),
    ],
}

# spans during which F(z) is being built; nodes are counted only inside them
FZ_BUILDS = ("discrim.fz", "parametric.iterated")

LAYER_NAMES = ("cli", "certificate", "pencil", "discrim", "roots", "recovery", "parametric")

LAYER, FUNC, START, END, PARENT, SOLVE, NOTE, RAISED = range(8)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.solve_id = None
        self._patched = []

    @contextlib.contextmanager
    def span(self, layer, func=""):
        rec = [layer, func or layer, time.perf_counter_ns(), 0,
               self._stack[-1] if self._stack else -1, self.solve_id, None, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        except BaseException:
            rec[RAISED] = True
            raise
        finally:
            self._stack.pop()
            rec[END] = time.perf_counter_ns()

    def _wrap(self, layer, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, fn.__name__) as rec:
                result = fn(*args, **kwargs)
            if note is not None:
                rec[NOTE] = note(args, result)
            return result

        return traced

    def _replace(self, original, replacement):
        for name, module in list(sys.modules.items()):
            if name != "qdist" and not name.startswith("qdist."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def install(self):
        for layer, entries in _LAYERS.items():
            for module_name, func, note in entries:
                original = getattr(sys.modules[module_name], func)
                self._replace(original, self._wrap(layer, original, note))
        # echelons: every GradientReducer construction
        discrim = sys.modules["qdist.discrim"]
        reducer = discrim.GradientReducer
        tracer = self

        class TracedGradientReducer(reducer):
            def __init__(self, *args, **kwargs):
                with tracer.span("discrim.echelon", "GradientReducer"):
                    super().__init__(*args, **kwargs)

        self._replace(reducer, TracedGradientReducer)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "name": rec[LAYER], "function": rec[FUNC],
                    "start_ns": rec[START], "end_ns": rec[END],
                    "parent": rec[PARENT], "solve": rec[SOLVE],
                    "note": rec[NOTE], "raised": rec[RAISED],
                }) + "\n")


def layer_metrics(spans):
    """Per-layer counts, times (ms, summed over the pass) and ratios."""
    n = len(spans)
    dur = [(s[END] - s[START]) / 1e6 for s in spans]
    child = [0.0] * n
    in_fz = [False] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += dur[i]
            in_fz[i] = in_fz[p] or spans[p][LAYER] in FZ_BUILDS

    def pick(layer, fz=None, func=None):
        return [i for i, s in enumerate(spans)
                if s[LAYER] == layer and (fz is None or in_fz[i] == fz)
                and (func is None or s[FUNC] == func)]

    def total(idx):
        return sum(dur[i] for i in idx)

    nodes = pick("discrim.node", fz=True)
    node_evals = len(nodes)
    builds = len(pick("pencil", fz=True, func="general_bipoly_at"))
    biv_nodes = len(pick("discrim.node", fz=True, func="bezout_matrix_biv"))
    # notes are None for calls that raised
    useful = sum(spans[i][NOTE] + 1 for i in pick("discrim.interp", fz=True)
                 if spans[i][NOTE] is not None)
    fz_top = [i for i, s in enumerate(spans) if s[LAYER] in FZ_BUILDS and not in_fz[i]]
    isolate = pick("roots.isolate")
    refine = pick("roots.refine")
    recovery = pick("recovery")
    iterated = [i for i in pick("discrim.interp")
                if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][LAYER] == "parametric.iterated"]
    echelons = pick("discrim.echelon")
    ops = pick("op")
    op_ms = total(ops)

    out = {
        "cli.parse_ms": total(pick("cli.parse")),
        "cli.render_ms": total(pick("cli.render")),
        "certificate.ms": total(pick("certificate")),
        "pencil.calls": len(pick("pencil")),
        "pencil.ms": total(pick("pencil")),
        "discrim.node_evals": node_evals,
        "discrim.node_ms": total(nodes),
        "discrim.node_skips": sum(spans[i][RAISED] for i in nodes) + max(0, builds - biv_nodes),
        "discrim.echelons": len(echelons),
        "discrim.echelon_ms": total(echelons),
        "discrim.fz_ms": total(fz_top),
        "discrim.useful_node_ratio": useful / node_evals if node_evals else 0.0,
        "roots.isolate_calls": len(isolate),
        "roots.isolate_ms": total(isolate),
        "roots.max_degree": max((spans[i][NOTE] for i in isolate
                                 if spans[i][NOTE] is not None), default=0),
        "roots.refine_calls": len(refine),
        "roots.refine_ms": total(refine),
        "roots.refined_used_ratio": len(recovery) / len(refine) if refine else 0.0,
        "recovery.attempts": len(recovery),
        "recovery.failed": sum(spans[i][RAISED] for i in recovery),
        "recovery.ms": total(recovery),
        "parametric.surface_calls": len(pick("parametric.surface")),
        "parametric.surface_ms": total(pick("parametric.surface")),
        "parametric.iterated_ms": total(iterated),
        "trace.uncovered_pct": 100.0 * sum(dur[i] - child[i] for i in ops) / op_ms if op_ms else 0.0,
    }
    self_ms = dict.fromkeys(LAYER_NAMES, 0.0)
    for i, s in enumerate(spans):
        layer = s[LAYER].split(".")[0]
        if layer in self_ms:
            self_ms[layer] += dur[i] - child[i]
    for layer, value in self_ms.items():
        out[f"{layer}.self_ms"] = value
    return out
