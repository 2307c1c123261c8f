"""Outside-in tracing of the qgrass layers.

The tracer wraps module functions and class methods of the seven qgrass
modules from outside the package; nothing under `src/` knows about it.
Coarse calls get spans, hot tiny ones (`leq`, `compare`, `psi`,
`psi_invert`, the linalg column key) get counters only, so tracing costs a
bounded share of a run.  The time of a counter-only call is charged to the
span that encloses it.

Self time.  A span's own time is its duration minus the spans of *other*
layers inside it; nested spans of the same layer are part of it.  So
`<layer>.self_s` is the time the layer itself ran, and a per-function
`<layer>.<fn>_s` is the own time of that function's outermost span in each
same-layer chain (e.g. `polyring.det_s` includes the `Polynomial.__mul__`
calls of the expansion, but not a `maps` call made from inside it).

A boundary that does not exist in the traced commit is recorded as absent;
every metric that depends on it is then reported as absent (None), never as
zero and never as a crash.  Spans are kept in memory and written out by
`write_spans` after the traced operation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import Counter
from typing import Callable, Optional

# Spans: coarse public calls of each layer, as "<module>.<attr>[.<method>]".
SPANS = (
    "lattice.elements",
    "lattice.incomparable_pairs",
    "lattice.count_maximal_chains",
    "lattice.meet_join",
    "lattice.parse_var",
    "polyring.Polynomial.__mul__",
    "polyring.Polynomial.__rmul__",
    "polyring.Polynomial.__add__",
    "polyring.Polynomial.__sub__",
    "polyring.Polynomial.__neg__",
    "polyring.Polynomial.__pow__",
    "polyring.Polynomial.scale",
    "polyring.TermOrder.leading_term",
    "polyring.TermOrder.sorted_terms",
    "polyring.det",
    "polyring.det_coeff",
    "polyring.substitute",
    "polyring.initial_form",
    "polyring.emit_text",
    "polyring.emit_json",
    "maps.phi",
    "maps.chi",
    "maps.pi",
    "maps.generator_image",
    "maps.minor_map",
    "maps.apply_hom",
    "maps.schubert_mask",
    "straighten.interval_mask",
    "straighten.standard_monomials",
    "straighten.factor_initial",
    "straighten.subduct",
    "straighten.straightening_relation",
    "straighten.reduced_groebner",
    "straighten.sagbi_check",
    "straighten.kernel_quadrics_oracle",
    "linalg.nullspace",
    "linalg.rank_of",
    "linalg.solve_in_span",
    "linalg.Eliminator.add",
    "linalg.Eliminator.reduce",
    "linalg.Eliminator.rows",
    "syzygy.weight_initial_r",
    "syzygy.skew_syzygy_w",
    "syzygy.quantum_syzygy_v",
    "syzygy.coefficient_relations",
    "syzygy.rank_of_span",
    "syzygy.coefficient_relation_report",
    "cli.run",
)

# Counters only: hot, tiny calls.
COUNTERS = (
    "lattice.leq",
    "polyring.TermOrder.compare",
    "maps.psi",
    "maps.psi_invert",
)

# Derived quantities recorded by hooks; each is absent with its boundary.
STEPS = "straighten.subduct.steps"
ROWS_IN = "linalg.rows_in"
KEY_CALLS = "linalg.Eliminator.col_key"
RELATIONS = "syzygy.coefficient_relations.out"
IMAGE_BUILDS = "maps.generator_image.builds"

# Per-layer metrics: name -> (unit, sources); the value sums the sources.  A metric is absent
# when any of its sources is.  Source kinds: "calls:<b>", "s:<b>" (own time
# of boundary b), "n:<q>" (a hook quantity), "layer:<l>" (layer self time).
METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "lattice.self_s": ("s", ("layer:lattice",)),
    "lattice.elements_calls": ("count", ("calls:lattice.elements",)),
    "lattice.leq_calls": ("count", ("calls:lattice.leq",)),
    "polyring.self_s": ("s", ("layer:polyring",)),
    "polyring.mul_calls": ("count", ("calls:polyring.Polynomial.__mul__",)),
    "polyring.mul_s": ("s", ("s:polyring.Polynomial.__mul__",)),
    "polyring.compare_calls": ("count", ("calls:polyring.TermOrder.compare",)),
    "polyring.leading_term_s": ("s", ("s:polyring.TermOrder.leading_term",)),
    "polyring.det_s": ("s", ("s:polyring.det",)),
    "polyring.emit_s": ("s", ("s:polyring.emit_text", "s:polyring.emit_json")),
    "maps.self_s": ("s", ("layer:maps",)),
    "maps.psi_calls": ("count", ("calls:maps.psi",)),
    "maps.psi_invert_calls": ("count", ("calls:maps.psi_invert",)),
    "maps.image_calls": ("count", ("calls:maps.generator_image",)),
    "maps.image_builds": ("count", ("n:" + IMAGE_BUILDS,)),
    "straighten.self_s": ("s", ("layer:straighten",)),
    "straighten.factor_initial_calls": ("count", ("calls:straighten.factor_initial",)),
    "straighten.factor_initial_s": ("s", ("s:straighten.factor_initial",)),
    "straighten.standard_monomials_calls": ("count", ("calls:straighten.standard_monomials",)),
    "straighten.standard_monomials_s": ("s", ("s:straighten.standard_monomials",)),
    "straighten.subduct_calls": ("count", ("calls:straighten.subduct",)),
    "straighten.subduct_steps": ("count", ("n:" + STEPS,)),
    "linalg.self_s": ("s", ("layer:linalg",)),
    "linalg.nullspace_calls": ("count", ("calls:linalg.nullspace",)),
    "linalg.nullspace_s": ("s", ("s:linalg.nullspace",)),
    "linalg.rows_in": ("count", ("n:" + ROWS_IN,)),
    "linalg.key_calls": ("count", ("n:" + KEY_CALLS,)),
    "syzygy.self_s": ("s", ("layer:syzygy",)),
    "syzygy.relations_out": ("count", ("n:" + RELATIONS,)),
    "cli.self_s": ("s", ("layer:cli",)),
}


def _resolve(path: str):
    """(owner, attribute name, raw attribute) for a boundary path, or None."""
    module_name, *attrs = path.split(".")
    try:
        owner = importlib.import_module("qgrass." + module_name)
    except ImportError:
        return None
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)
        if not inspect.isclass(owner):
            return None
    name = attrs[-1]
    try:
        raw = inspect.getattr_static(owner, name)
    except AttributeError:
        return None
    if isinstance(raw, (staticmethod, classmethod)) or not callable(raw):
        return None
    return owner, name, raw


class _Frame:
    __slots__ = ("name", "layer", "foreign", "outer", "span_id")

    def __init__(self, name, layer, outer, span_id):
        self.name = name
        self.layer = layer
        self.foreign = 0
        self.outer = outer
        self.span_id = span_id


class Tracer:
    """Install wrappers, collect counts and spans, restore on uninstall."""

    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.calls: Counter = Counter()
        self.own_ns: Counter = Counter()
        self.layer_ns: Counter = Counter()
        self.quantities: Counter = Counter()
        self.absent: set[str] = set()
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack: list[_Frame] = []
        self._restore: list[tuple[object, str, object]] = []
        self._next_span_id = itertools.count(1).__next__
        self._image_cache_before = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        # Images built = misses of the image cache; absent without one.
        image = _resolve("maps.generator_image")
        if image is None or not hasattr(image[2], "cache_info"):
            self.absent.add(IMAGE_BUILDS)
        else:
            self._image_cache = image[2]
            self._image_cache_before = image[2].cache_info().misses
        for path in SPANS:
            self._wrap(path, self._span)
        for path in COUNTERS:
            self._wrap(path, self._counter)
        self._install_key_counter()

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._restore):
            setattr(owner, name, raw)
        self._restore.clear()

    def _wrap(self, path: str, make: Callable) -> None:
        found = _resolve(path)
        if found is None:
            self.absent.add(path)
            self.absent.update(_HOOKS.get(path, (None, ()))[1])
            return
        owner, name, raw = found
        wrapper = make(path, raw)
        self._set(owner, name, wrapper)
        if inspect.ismodule(owner):
            # `from .x import f` copies elsewhere in the package see it too.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("qgrass.") and mod is not owner:
                    for attr, value in list(vars(mod).items()):
                        if value is raw:
                            self._set(mod, attr, wrapper)

    def _set(self, owner, name, value) -> None:
        self._restore.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, value)

    def _install_key_counter(self) -> None:
        """Count calls of the column key handed to `linalg.Eliminator`."""
        found = _resolve("linalg.Eliminator.__init__")
        if found is None:
            self.absent.add(KEY_CALLS)
            return
        owner, name, raw = found
        try:
            sig = inspect.signature(raw)
        except (TypeError, ValueError):
            sig = None
        if sig is None or "col_key" not in sig.parameters:
            self.absent.add(KEY_CALLS)
            return
        quantities = self.quantities

        def counting(key):
            def counted(*args, **kwargs):
                quantities[KEY_CALLS] += 1
                return key(*args, **kwargs)

            return counted

        @functools.wraps(raw)
        def init(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.arguments["col_key"] = counting(bound.arguments["col_key"])
            return raw(*bound.args, **bound.kwargs)

        self._set(owner, name, init)
        self.quantities[KEY_CALLS] += 0

    # -- wrappers -------------------------------------------------------------

    def _counter(self, path: str, fn: Callable) -> Callable:
        calls = self.calls
        calls[path] += 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[path] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, path: str, fn: Callable) -> Callable:
        layer = path.split(".", 1)[0]
        calls, stack, spans = self.calls, self._stack, self.spans
        own_ns, layer_ns = self.own_ns, self.layer_ns
        clock, next_id = time.perf_counter_ns, self._next_span_id
        hook, quantities = _HOOKS.get(path, (None, ()))
        sig = None
        if hook is not None:
            try:
                sig = inspect.signature(fn)
            except (TypeError, ValueError):
                pass
        for q in quantities:
            self.quantities[q] += 0
        calls[path] += 0
        own_ns[path] += 0
        layer_ns[layer] += 0

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[path] += 1
            parent = stack[-1] if stack else None
            outer = True
            for fr in reversed(stack):
                if fr.layer != layer:
                    break
                if fr.name == path:
                    outer = False
                    break
            frame = _Frame(path, layer, outer, next_id())
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                own = d - frame.foreign
                if outer:
                    own_ns[path] += own
                if parent is None or parent.layer != layer:
                    layer_ns[layer] += own
                if parent is not None:
                    parent.foreign += d if parent.layer != layer else frame.foreign
                spans.append((frame.span_id, parent.span_id if parent else 0, path, t0, t1))
            if hook is not None:
                hook(self, sig, args, kwargs, result, parent)
            return result

        return spanned

    # -- results --------------------------------------------------------------

    def report(self) -> dict:
        """Raw sums for one traced operation; `metrics` combines them."""
        quantities = dict(self.quantities)
        if IMAGE_BUILDS not in self.absent:
            misses = self._image_cache.cache_info().misses
            quantities[IMAGE_BUILDS] = misses - self._image_cache_before
        return {
            "calls": dict(self.calls),
            "own_ns": dict(self.own_ns),
            "layer_ns": dict(self.layer_ns),
            "quantities": quantities,
            "absent": sorted(self.absent),
        }

    def write_spans(self, path: str) -> None:
        """Append this operation's spans as JSON lines."""
        with open(path, "a", encoding="utf-8") as fh:
            for span_id, parent_id, name, t0, t1 in self.spans:
                fh.write(json.dumps([self.op_id, span_id, parent_id, name, t0, t1]) + "\n")


# -- hooks: derived quantities at a boundary ------------------------------------


def _add_len(tracer, quantity: str, value) -> None:
    """Add len(value) to a quantity; a value without a length makes it absent."""
    try:
        tracer.quantities[quantity] += len(value)
    except TypeError:
        tracer.absent.add(quantity)


def _subduct_steps(tracer, sig, args, kwargs, result, parent):
    _add_len(tracer, STEPS, getattr(result, "steps", None))


def _rows(extra: int):
    def hook(tracer, sig, args, kwargs, result, parent):
        try:
            rows = sig.bind(*args, **kwargs).arguments.get("rows")
        except (AttributeError, TypeError):
            rows = None
        _add_len(tracer, ROWS_IN, rows)
        if rows is not None:
            tracer.quantities[ROWS_IN] += extra

    return hook


def _outside_add(tracer, sig, args, kwargs, result, parent):
    # Rows that enter an Eliminator directly from another layer.
    if parent is None or parent.layer != "linalg":
        tracer.quantities[ROWS_IN] += 1


def _relations_out(tracer, sig, args, kwargs, result, parent):
    _add_len(tracer, RELATIONS, result)


# boundary -> (hook, the quantities it records, absent with the boundary)
_HOOKS = {
    "straighten.subduct": (_subduct_steps, (STEPS,)),
    "linalg.nullspace": (_rows(0), (ROWS_IN,)),
    "linalg.rank_of": (_rows(0), (ROWS_IN,)),
    "linalg.solve_in_span": (_rows(1), (ROWS_IN,)),
    "linalg.Eliminator.add": (_outside_add, (ROWS_IN,)),
    "syzygy.coefficient_relations": (_relations_out, (RELATIONS,)),
}


def metrics(reports: list[dict]) -> dict[str, tuple[Optional[float], str]]:
    """Sum per-operation reports into the per-layer metrics.

    Returns name -> (value or None when absent, unit), including the ratios
    `maps.image_hit_ratio` and `straighten.steps_per_pair`.
    """
    calls, own, layers, quantities = Counter(), Counter(), Counter(), Counter()
    absent: set[str] = set()
    for r in reports:
        calls.update(r["calls"])
        own.update(r["own_ns"])
        layers.update(r["layer_ns"])
        quantities.update(r["quantities"])
        absent.update(r["absent"])

    def value(source: str):
        kind, _, key = source.partition(":")
        if key in absent:
            return None
        if kind == "calls":
            return calls[key] if key in calls else None
        if kind == "s":
            return own[key] / 1e9 if key in own else None
        if kind == "n":
            return quantities[key] if key in quantities else None
        return layers[key] / 1e9 if key in layers else None

    out: dict[str, tuple[Optional[float], str]] = {}
    for name, (unit, sources) in METRICS.items():
        values = [value(s) for s in sources]
        out[name] = (None if None in values else sum(values), unit)

    image_calls = out["maps.image_calls"][0]
    builds = out["maps.image_builds"][0]
    hit_ratio = None
    if image_calls is not None and builds is not None:
        hit_ratio = (image_calls - builds) / image_calls if image_calls else 0.0
    out["maps.image_hit_ratio"] = (hit_ratio, "ratio")

    subducts = out["straighten.subduct_calls"][0]
    steps = out["straighten.subduct_steps"][0]
    per_pair = None
    if subducts is not None and steps is not None:
        per_pair = steps / subducts if subducts else 0.0
    out["straighten.steps_per_pair"] = (per_pair, "steps/pair")
    return out
