"""Per-layer tracing from outside the library.

`Tracer.install` replaces the public functions and methods of each
`schurquot` module by wrappers that count calls and work and keep self
time (a call's duration minus the time spent in wrapped calls it made).
Functions are replaced under every name a `schurquot` module binds them
to, so a `from .tableaux import enumerate_ssyt` in another module is
traced too; methods are replaced on their class.  `uninstall` puts the
originals back.  The library itself is not edited.
"""

from __future__ import annotations

import functools
import sys
import time

# Per-layer metrics as (layer, field, unit), in report order.
PER_LAYER = [
    ("partitions.SkewShape.cells", "calls", "count"),
    ("tableaux.enumerate_ssyt", "calls", "count"),
    ("tableaux.enumerate_ssyt", "tableaux", "count"),
    ("tableaux.enumerate_ssyt", "self_s", "s"),
    ("tableaux.validate", "calls", "count"),
    ("tableaux.validate", "self_s", "s"),
    ("polynomial.mul", "calls", "count"),
    ("polynomial.mul", "term_products", "count"),
    ("polynomial.mul", "self_s", "s"),
    ("polynomial.add", "calls", "count"),
    ("polynomial.add", "self_s", "s"),
    ("polynomial.evaluate", "calls", "count"),
    ("polynomial.evaluate", "terms", "count"),
    ("polynomial.evaluate", "self_s", "s"),
    ("schur.schur_poly", "calls", "count"),
    ("schur.schur_poly", "distinct_keys", "count"),
    ("schur.schur_poly", "self_s", "s"),
    ("schur.eval_schur", "calls", "count"),
    ("schur.eval_schur", "self_s", "s"),
    ("schur.schur_confluent", "calls", "count"),
    ("schur.schur_confluent", "self_s", "s"),
    ("derivative.derivative_numerator", "calls", "count"),
    ("derivative.derivative_numerator", "self_s", "s"),
    ("derivative.quotient_rule_numerator", "calls", "count"),
    ("derivative.quotient_rule_numerator", "self_s", "s"),
    ("injection.verify_injectivity", "calls", "count"),
    ("injection.verify_injectivity", "pairs", "count"),
    ("injection.verify_injectivity", "us_per_pair", "us/pair"),
    ("injection.OneBoxSetting.grow_region", "calls", "count"),
    ("injection.OneBoxSetting.grow_region", "self_s", "s"),
    ("injection.OneBoxSetting.grow_region", "branched", "count"),
    ("injection.OneBoxSetting.greedy_indices", "calls", "count"),
    ("injection.OneBoxSetting.greedy_indices", "self_s", "s"),
    ("injection.OneBoxSetting.swap_values", "calls", "count"),
    ("injection.OneBoxSetting.swap_values", "self_s", "s"),
    ("injection.OneBoxSetting.output_pair", "calls", "count"),
    ("injection.OneBoxSetting.output_pair", "self_s", "s"),
    ("sympquot.coincidence_search", "self_s", "s"),
    ("sympquot.coincidence_search", "examined", "count"),
    ("sympquot.coincidence_search", "pruned", "count"),
    ("sympquot.coincidence_search", "us_per_leaf", "us/leaf"),
    ("sympquot.gamma0_s1", "calls", "count"),
    ("sympquot.gamma0_s1", "self_s", "s"),
    ("sympquot.gamma0_su2", "calls", "count"),
    ("sympquot.gamma0_su2", "self_s", "s"),
    ("trace", "wall_s", "s"),
    ("trace", "overhead_s", "s"),
]


class Tracer:
    def __init__(self):
        self.layers: dict[str, dict[str, float]] = {}
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self._schur_keys: set = set()

    # -- wrappers ------------------------------------------------------

    def _record(self, layer: str) -> dict[str, float]:
        return self.layers.setdefault(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    def _close(self, rec, start: float):
        elapsed = time.perf_counter() - start
        rec["self_s"] += elapsed - self._stack.pop()
        rec["total_s"] += elapsed
        if self._stack:
            self._stack[-1] += elapsed

    def timed(self, layer: str, fn, count=None):
        """Wrap `fn`; `count(rec, args, result)` adds work counts."""
        rec = self._record(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec["calls"] += 1
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec, start)
            if count is not None:
                count(rec, args, result)
            return result

        return wrapper

    def timed_generator(self, layer: str, fn, item_field: str):
        """Wrap a generator function; time each step, count the items."""
        rec = self._record(layer)
        rec[item_field] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec["calls"] += 1
            it = fn(*args, **kwargs)
            while True:
                self._stack.append(0.0)
                start = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(rec, start)
                rec[item_field] += 1
                yield item

        return wrapper

    def counted(self, layer: str, fn):
        """Count calls only: for very cheap, very frequent methods."""
        rec = self._record(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def _replace(self, owner, name: str, new):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _replace_function(self, original, new):
        for modname, module in list(sys.modules.items()):
            if modname == "schurquot" or modname.startswith("schurquot."):
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name, new)

    def install(self):
        from schurquot import derivative, injection, partitions, polynomial, schur, sympquot, tableaux

        poly = polynomial.SparsePolynomial
        ctx = schur.SchurContext
        setting = injection.OneBoxSetting

        def add(**amounts):
            """Counter adding amount(args, result) to each named field."""
            def count(rec, args, result):
                for field, amount in amounts.items():
                    rec[field] = rec.get(field, 0) + amount(args, result)
            return count

        def schur_key(rec, args, result):
            shape, nvars = args[1], args[2]
            outer = getattr(shape, "outer", shape)
            inner = getattr(shape, "inner", partitions.Partition())
            self._schur_keys.add((outer, inner, nvars))
            rec["distinct_keys"] = len(self._schur_keys)

        def mul_products(args, result):
            other = args[1]
            return len(args[0]) * (len(other) if isinstance(other, poly) else 1)

        cells = partitions.SkewShape.cells
        self._replace(partitions.SkewShape, "cells", self.counted("partitions.SkewShape.cells", cells))
        methods = [
            (poly, "__mul__", "polynomial.mul", add(term_products=mul_products)),
            (poly, "__add__", "polynomial.add", None),
            (poly, "evaluate", "polynomial.evaluate", add(terms=lambda a, r: len(a[0]))),
            (ctx, "schur_poly", "schur.schur_poly", schur_key),
            (ctx, "eval_schur", "schur.eval_schur", None),
            (setting, "grow_region", "injection.OneBoxSetting.grow_region",
             add(branched=lambda a, r: int(r[2]))),
            (setting, "greedy_indices", "injection.OneBoxSetting.greedy_indices", None),
            (setting, "swap_values", "injection.OneBoxSetting.swap_values", None),
            (setting, "output_pair", "injection.OneBoxSetting.output_pair", None),
        ]
        for owner, name, layer, count in methods:
            self._replace(owner, name, self.timed(layer, getattr(owner, name), count))

        functions = [
            (tableaux.validate, "tableaux.validate", None),
            (schur.schur_confluent, "schur.schur_confluent", None),
            (derivative.derivative_numerator, "derivative.derivative_numerator", None),
            (derivative.quotient_rule_numerator, "derivative.quotient_rule_numerator", None),
            (injection.verify_injectivity, "injection.verify_injectivity",
             add(pairs=lambda a, r: r.domain_size)),
            (sympquot.coincidence_search, "sympquot.coincidence_search",
             add(examined=lambda a, r: r.examined, pruned=lambda a, r: r.pruned)),
            (sympquot.gamma0_s1, "sympquot.gamma0_s1", None),
            (sympquot.gamma0_su2, "sympquot.gamma0_su2", None),
        ]
        for fn, layer, count in functions:
            self._replace_function(fn, self.timed(layer, fn, count))
        enum = tableaux.enumerate_ssyt
        self._replace_function(
            enum, self.timed_generator("tableaux.enumerate_ssyt", enum, "tableaux")
        )

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- report --------------------------------------------------------

    def metrics(self, traced_wall: float, plain_wall: float) -> dict:
        def get(layer, field):
            return self.layers.get(layer, {}).get(field, 0)

        derived = {
            ("injection.verify_injectivity", "us_per_pair"): (
                get("injection.verify_injectivity", "total_s"),
                get("injection.verify_injectivity", "pairs"),
            ),
            ("sympquot.coincidence_search", "us_per_leaf"): (
                get("sympquot.coincidence_search", "self_s"),
                get("sympquot.coincidence_search", "examined"),
            ),
        }
        out = {}
        for layer, field, unit in PER_LAYER:
            if layer == "trace":
                value = traced_wall if field == "wall_s" else traced_wall - plain_wall
            elif (layer, field) in derived:
                seconds, count = derived[(layer, field)]
                value = seconds * 1e6 / count if count else 0.0
            else:
                value = get(layer, field)
            out[f"{layer}.{field}"] = {"value": value, "unit": unit}
        return out
