"""Spans around the calls into topzeta's layers, recorded from outside.

``Tracer.install()`` replaces each traced function by a wrapper in every
topzeta module that holds it, so calls are seen where the caller looks the
name up (``cli.zeta_local`` as well as ``zeta_core.zeta_local``).  A span is
``[name, start, end, parent, op, error, counts]``; spans stay in memory until
``dump``.  A layer's self time is a span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

LAYERS = ("cli", "polynomial", "unipoly", "curve_resolution", "toric_curve",
          "zeta_core", "analysis", "formats")


def _inserted_rays(args, kwargs, fan):
    return {"toric_curve.rays_inserted": sum(1 for ray in fan.rays if not ray.original)}


def _zeta(args, kwargs, z):
    return {"zeta_core.strata_summed": len(args[0].strata),
            "zeta_core.den_degree": len(z.den) - 1}


def _order_n(args, kwargs, prediction):
    return {"analysis.order_n_poles": int(prediction.s0 is not None)}


def _bytes(args, kwargs, text):
    return {"formats.bytes_out": len(text.encode())}


COUNT_METRICS = ("toric_curve.rays_inserted", "zeta_core.strata_summed", "zeta_core.den_degree",
          "analysis.order_n_poles", "formats.bytes_out")

# (module, function, the counts a span takes from its arguments and result)
TRACED = (
    ("cli", "analyze_poly", None),
    ("cli", "analyze_rd", None),
    ("cli", "analyze_file", None),
    ("cli", "report_to_json", None),
    ("cli", "main", None),
    ("polynomial", "parse_poly", None),
    ("polynomial", "germ_factors", None),
    ("polynomial", "is_nondegenerate_curve", None),
    ("polynomial", "newton_polygon_local", None),
    ("unipoly", "factor_rational", None),
    ("unipoly", "gcd", None),
    ("curve_resolution", "initial_state", None),
    ("curve_resolution", "blowup_step", None),
    ("curve_resolution", "resolve_curve_state", None),
    ("curve_resolution", "resolution_data", None),
    ("curve_resolution", "euler_strata", None),
    ("toric_curve", "toric_resolution_data", None),
    ("toric_curve", "unimodular_subdivide", _inserted_rays),
    ("zeta_core", "zeta_local", _zeta),
    ("zeta_core", "zeta_global", _zeta),
    ("zeta_core", "poles", None),
    ("zeta_core", "lct_local", None),
    ("zeta_core", "lct_global", None),
    ("analysis", "max_order_pole_report", _order_n),
    ("analysis", "acampo_zeta", None),
    ("analysis", "monodromy_eigenvalues_germ", None),
    ("analysis", "check_conjecture2", None),
    ("analysis", "check_conjecture3", None),
    ("analysis", "check_conjecture4", None),
    ("formats", "resolution_from_json", None),
    ("formats", "rational_to_json", None),
    ("formats", "zeta_to_json", None),
    ("formats", "poles_to_json", None),
    ("formats", "prediction_to_json", None),
    ("formats", "dump_canonical", _bytes),
)

NAME, START, END, PARENT, OP, ERROR, COUNTS = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []    # (module, attribute, original)
        self.op = None

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, False, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if count is not None:
                rec[COUNTS] = count(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [importlib.import_module(f"topzeta.{m}") for m in LAYERS]
        for layer, func, count in TRACED:
            owner = modules[LAYERS.index(layer)]
            original = getattr(owner, func)
            wrapper = self._wrap(f"{layer}.{func}", original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def span(self, name, op):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name, op)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class _Span:
    def __init__(self, tracer, name, op):
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self):
        t = self.tracer
        t.op = self.op
        self.rec = [self.name, perf_counter(), 0.0, t._stack[-1] if t._stack else -1,
                    self.op, False, None]
        t._stack.append(len(t.spans))
        t.spans.append(self.rec)
        return self.rec

    def __exit__(self, exc_type, exc, tb):
        self.rec[END] = perf_counter()
        self.rec[ERROR] = exc_type is not None
        self.tracer._stack.pop()
        return False


def self_times(spans):
    """Self time of every span, in span order."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own
