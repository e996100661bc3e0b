"""Per-layer tracing of cremona_lab from outside the package.

`Tracer.install()` replaces each public function named in `TARGETS` by a
timing wrapper in every loaded `cremona_lab` module that binds it, so calls
through `from .ideals import saturate` style imports are counted as well.
`uninstall()` puts the originals back.  `poly` and `fields` are too hot to
wrap; their cost lands in the self time of the enclosing wrapped call
(mostly `groebner.groebner_basis`).

Per function the tracer keeps `calls`, `busy_s` (inclusive wall time of the
outermost active call, so recursion is not double counted), `self_s` (wall
time minus the time of wrapped callees) and `errors` (exceptions that
propagated out).  `groebner.groebner_basis` also gets `repeat_frac`,
`elim_calls`, `qq_s` and `out_terms`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

TARGETS = {
    "groebner": ("groebner_basis", "normal_form"),
    "ideals": ("sat_irrelevant", "saturate", "quotient", "intersect", "local_length",
               "multiplicity_at", "extract_points", "count_points", "isolated_points",
               "hilbert_from_basis"),
    "univar": ("roots_gf", "irreducible_quadratics"),
    "linalg": ("rref",),
    "cremona": ("line_preimage_split", "genus_of_map", "is_ruled", "is_birational",
                "birationality_certificate", "inverse", "analyze_map"),
    "hudson": ("hudson_vector", "classify_point", "match_table", "classify_component"),
    "families": ("build",),
    "cli": ("analysis_report", "scan_one"),
}

# every module of the package; acceptance holds from-imports of wrapped names
MODULES = ("fields", "rng", "poly", "groebner", "linalg", "univar", "ideals",
           "cremona", "hudson", "families", "cli", "acceptance")

SPAN_METRICS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("errors", "count"))
GB_METRICS = (("repeat_frac", "frac"), ("elim_calls", "count"), ("qq_s", "s"),
              ("out_terms", "count"))
GB_NAME = "groebner.groebner_basis"
# metrics that must repeat exactly across two traced runs with one seed
COUNTER_SUFFIXES = (".calls", ".errors", ".repeat_frac", ".out_terms", ".elim_calls")


def span_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name in span_names():
        for kind, unit in SPAN_METRICS:
            out[f"{name}.{kind}"] = unit
    for kind, unit in GB_METRICS:
        out[f"{GB_NAME}.{kind}"] = unit
    return out


def package_modules() -> list:
    return [importlib.import_module(f"cremona_lab.{m}") for m in MODULES] + \
        [importlib.import_module("cremona_lab")]


class _Span:
    __slots__ = ("calls", "busy", "self_", "errors", "active")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_ = 0.0
        self.errors = 0
        self.active = 0


class Tracer:
    def __init__(self):
        self.spans = {name: _Span() for name in span_names()}
        self._child = []  # wall time of wrapped callees, one slot per open call
        self._originals = {}  # span name -> original function
        self._seen = set()  # groebner inputs of the current item
        self.gb_repeats = 0
        self.gb_elim = 0
        self.gb_qq = 0.0
        self.gb_terms = 0

    # ---------------------------------------------------------- recording

    def begin_item(self) -> None:
        """Repeats are counted within one item only."""
        self._seen = set()

    def _wrap(self, name: str, fn):
        span = self.spans[name]
        child = self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span.calls += 1
            span.active += 1
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.errors += 1
                raise
            finally:
                dt = clock() - t0
                span.active -= 1
                span.self_ += dt - child.pop()
                if not span.active:
                    span.busy += dt
                if child:
                    child[-1] += dt

        return traced

    def _wrap_groebner(self, fn):
        from cremona_lab.fields import GF, GF2
        from cremona_lab.poly import ElimBlock

        inner = self._wrap(GB_NAME, fn)
        sig = inspect.signature(fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def groebner_basis(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            gens, order = bound.arguments["gens"], bound.arguments["order"]
            key = (tuple(gens), order)
            if key in self._seen:
                self.gb_repeats += 1
            else:
                self._seen.add(key)
            if isinstance(order, ElimBlock):
                self.gb_elim += 1
            field = next((g.ring.field for g in gens if g), None)
            t0 = clock()
            try:
                out = inner(*args, **kwargs)
            finally:
                if field is not None and (not isinstance(field, GF) or isinstance(field, GF2)):
                    self.gb_qq += clock() - t0
            self.gb_terms += sum(len(g.terms) for g in out)
            return out

        return groebner_basis

    # ------------------------------------------------------- installation

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        mods = package_modules()
        swap = {}
        for mod, fns in TARGETS.items():
            home = importlib.import_module(f"cremona_lab.{mod}")
            for fn in fns:
                name = f"{mod}.{fn}"
                orig = getattr(home, fn)
                self._originals[name] = orig
                wrapped = self._wrap_groebner(orig) if name == GB_NAME else self._wrap(name, orig)
                swap[id(orig)] = wrapped
        self._rebind(mods, swap)

    def uninstall(self) -> None:
        swap = {}
        for name, orig in self._originals.items():
            mod, fn = name.split(".")
            wrapped = getattr(importlib.import_module(f"cremona_lab.{mod}"), fn)
            swap[id(wrapped)] = orig
        self._rebind(package_modules(), swap)
        self._originals = {}

    @staticmethod
    def _rebind(mods, swap: dict) -> None:
        for m in mods:
            for attr, val in list(vars(m).items()):
                new = swap.get(id(val))
                if new is not None:
                    setattr(m, attr, new)

    def unwrapped_bindings(self) -> list:
        """`module.attr` names in cremona_lab that still bind an original."""
        ids = {id(f) for f in self._originals.values()}
        return [f"{m.__name__}.{attr}" for m in package_modules()
                for attr, val in vars(m).items() if id(val) in ids]

    # ------------------------------------------------------------ results

    def metrics(self) -> dict:
        out = {}
        for name, sp in self.spans.items():
            out[f"{name}.calls"] = sp.calls
            out[f"{name}.busy_s"] = sp.busy
            out[f"{name}.self_s"] = sp.self_
            out[f"{name}.errors"] = sp.errors
        calls = self.spans[GB_NAME].calls
        out[f"{GB_NAME}.repeat_frac"] = self.gb_repeats / calls if calls else 0.0
        out[f"{GB_NAME}.elim_calls"] = self.gb_elim
        out[f"{GB_NAME}.qq_s"] = self.gb_qq
        out[f"{GB_NAME}.out_terms"] = self.gb_terms
        return out
