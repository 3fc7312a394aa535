"""Per-layer tracing from outside the library.

The layers are the package modules. ``Tracer.install`` replaces every
public function and method of each layer with a wrapper that records one
span per call -- name, parent span, start and end -- and, for a few
names, a benchmark-computed counter. A function wrapper goes on the
defining module and on every ``cyclestat`` module that imported the name
with ``from ... import``; a method wrapper goes on its class, which every
importer shares. Generator functions get a wrapper that records one span
per ``next()``. ``uninstall`` restores the originals.

Spans stay in memory (four flat arrays) and are summarised once the
traced pass has ended. A span's self time is its duration minus the part
of its interval that its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import checks

LAYERS = ("permutations", "hopping", "enumeration", "algebra", "formulas", "cli")

# Dunder methods that do a layer's work; every other dunder is left alone.
# Reflected aliases share the name of the operation they alias.
TRACED_DUNDERS = {
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "rsub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__pow__": "pow",
    "__truediv__": "truediv",
    "__post_init__": "post_init",
}

DIST_FUNCTIONS = ("dist_joint", "dist_exc", "dist_cval", "count_snki")
HOOK_SPAN = "bench.hook"  # time spent computing counters, kept out of the layers

# The exported closed forms and checks of ``cyclestat.formulas``.
FORMULAS = (
    "brenti",
    "theorem1_joint",
    "theorem6_cval",
    "lemma1_check",
    "theorem2_gamma",
    "theorem2_check",
    "corollary2_check",
    "corollary3_check",
    "corollary4_check",
    "theorem4_check",
    "theorem5_check",
    "egf_snki",
)


def self_times(
    parents: list[int], starts: list[float], ends: list[float]
) -> list[float]:
    """Self time of every span.

    Spans are listed in order of their start, and ``parents[i]`` is the
    index of the span that caused span i, or -1. A span's self time is
    its duration minus the union of its children's intervals, each
    clipped to the parent's interval.
    """
    count = len(parents)
    covered = [0.0] * count
    covered_to = list(starts)
    for i in range(count):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], covered_to[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            covered_to[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(count)]


def _members_of_dist_call(name: str, args: tuple) -> int:
    """Class sizes covered by one dist_*/count_snki call, computed from
    the call's arguments with the benchmark's own combinatorics."""
    if name == "count_snki":
        n, k = args[0], args[1]
    else:
        spec = args[0]
        if spec.cycle_type is not None:
            return checks.class_size(spec.cycle_type.parts)
        n, k = spec.n, spec.fixed_points
    return sum(checks.class_size(p) for p in checks.partitions(n) if p.count(1) == k)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers ------------------------------------------------------

    def _wrap(self, fn, name: str, hook=None):
        nid = self._id(name)
        hook_id = self._id(HOOK_SPAN)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, errors, clock = self.stack, self.errors, perf_counter

        if inspect.isgeneratorfunction(fn):
            counts = self.counts

            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = len(span_name)
                    span_name.append(nid)
                    span_parent.append(stack[-1])
                    span_start.append(0.0)
                    span_end.append(0.0)
                    stack.append(idx)
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    except BaseException:
                        errors[nid] += 1
                        raise
                    finally:
                        end = clock()
                        stack.pop()
                        span_start[idx] = start
                        span_end[idx] = end
                    counts[name + ".yielded"] += 1
                    yield item

            return functools.wraps(fn)(traced_gen)

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                span_start[idx] = start
                span_end[idx] = end
            if hook is not None:
                span_name.append(hook_id)
                span_parent.append(stack[-1])
                span_start.append(clock())
                hook(args, result)
                span_end.append(clock())
            return result

        return functools.wraps(fn)(traced)

    def _hook_for(self, layer: str, qualname: str):
        counts = self.counts
        if layer == "enumeration" and qualname in DIST_FUNCTIONS:

            def dist_hook(args, result):
                counts["enumeration.dist.members"] += _members_of_dist_call(qualname, args)

            return dist_hook
        if layer == "hopping" and qualname == "orbit":

            def orbit_hook(args, result):
                counts["hopping.orbit.members"] += result.size

            return orbit_hook
        if layer == "algebra" and qualname in ("MultiPoly.mul", "TruncSeries.mul"):
            key = f"algebra.{qualname}.term_products"
            fractions = qualname == "MultiPoly.mul"

            def mul_hook(args, result):
                a, b = args
                right = len(b.terms) if hasattr(b, "terms") else 1
                counts[key] += len(a.terms) * right
                if fractions and hasattr(result, "terms"):
                    coeffs = result.terms.values()
                    counts["algebra.fraction_share.base"] += len(coeffs)
                    counts["algebra.fraction_share.count"] += sum(
                        1 for c in coeffs if c.denominator != 1
                    )

            return mul_hook
        return None

    # -- install / uninstall ------------------------------------------

    def install(self, package: str = "cyclestat") -> None:
        """Wrap every layer of ``package``; the layer modules must be importable."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value):
                    if not issubclass(value, BaseException):
                        self._wrap_class(layer, value)
                elif callable(value):
                    wrapper = self._wrap(value, f"{layer}.{attr}", self._hook_for(layer, attr))
                    replaced[id(value)] = wrapper
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replaced[id(value)])

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                if attr not in TRACED_DUNDERS:
                    continue
                label = TRACED_DUNDERS[attr]
            else:
                label = attr
            qualname = f"{cls.__name__}.{label}"
            hook = self._hook_for(layer, qualname)
            if isinstance(value, (classmethod, staticmethod)):
                wrapped = type(value)(self._wrap(value.__func__, f"{layer}.{qualname}", hook))
            elif inspect.isfunction(value):
                wrapped = self._wrap(value, f"{layer}.{qualname}", hook)
            else:
                continue  # properties and plain attributes
            self._restore.append((cls, attr, value))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- summary -------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, self time and errors, plus psi calls made by orbit."""
        names = self.names
        span_name, parents = self.span_name, self.span_parent
        own = self_times(parents, self.span_start, self.span_end)
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for nid, seconds in zip(span_name, own):
            calls[nid] += 1
            self_s[nid] += seconds
        psi = self._ids.get("hopping.psi", -2)
        orbit = self._ids.get("hopping.orbit", -2)
        psi_in_orbit = sum(
            1
            for nid, parent in zip(span_name, parents)
            if nid == psi and parent >= 0 and span_name[parent] == orbit
        )
        return {
            "calls": {names[i]: c for i, c in calls.items()},
            "self_s": {names[i]: s for i, s in self_s.items()},
            "errors": {names[i]: e for i, e in self.errors.items()},
            "counts": dict(self.counts),
            "psi_in_orbit": psi_in_orbit,
            "spans": len(span_name),
        }


def layer_metrics(summary: dict, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed by metric name."""
    calls, self_s = Counter(summary["calls"]), Counter(summary["self_s"])
    errors, counts = Counter(summary["errors"]), Counter(summary["counts"])
    out: dict[str, float] = {}

    def span(prefix: str, name: str) -> None:
        out[f"{prefix}.calls"] = calls[name]
        out[f"{prefix}.self_s"] = self_s[name]

    dist = [f"enumeration.{f}" for f in DIST_FUNCTIONS]
    dist_self = sum(self_s[n] for n in dist)
    members = counts["enumeration.dist.members"]
    out["enumeration.dist.calls"] = sum(calls[n] for n in dist)
    out["enumeration.dist.self_s"] = dist_self
    out["enumeration.dist.members"] = members
    out["enumeration.dist.members_per_s"] = members / dist_self if dist_self else 0.0
    out["enumeration.iter_class.yielded"] = counts["enumeration.iter_class.yielded"]
    out["enumeration.iter_class.self_s"] = self_s["enumeration.iter_class"]

    span("hopping.psi", "hopping.psi")
    out["hopping.x_factorize.calls"] = calls["hopping.x_factorize"]
    span("hopping.orbit", "hopping.orbit")
    orbit_members = counts["hopping.orbit.members"]
    out["hopping.orbit.members"] = orbit_members
    out["hopping.psi_per_member"] = (
        summary["psi_in_orbit"] / orbit_members if orbit_members else 0.0
    )

    span("permutations.stat_sets", "permutations.stat_sets")
    out["permutations.Permutation.validations"] = calls["permutations.Permutation.post_init"]

    for op in ("mul", "pow"):
        span(f"algebra.MultiPoly.{op}", f"algebra.MultiPoly.{op}")
    out["algebra.MultiPoly.mul.term_products"] = counts["algebra.MultiPoly.mul.term_products"]
    base = counts["algebra.fraction_share.base"]
    out["algebra.fraction_share"] = counts["algebra.fraction_share.count"] / base if base else 0.0
    for op in ("mul", "inverse", "sqrt"):
        span(f"algebra.TruncSeries.{op}", f"algebra.TruncSeries.{op}")
    out["algebra.TruncSeries.mul.term_products"] = counts["algebra.TruncSeries.mul.term_products"]
    span("algebra.poly_at_series", "algebra.poly_at_series")
    for cls in ("MultiPoly", "TruncSeries"):
        prefix = f"algebra.{cls}."
        out[f"algebra.{cls}.self_s"] = sum(s for n, s in self_s.items() if n.startswith(prefix))

    formula_calls = formula_errors = 0
    for name in FORMULAS:
        span(f"formulas.{name}", f"formulas.{name}")
        formula_calls += calls[f"formulas.{name}"]
        formula_errors += errors[f"formulas.{name}"]
    out["formulas.errors"] = formula_errors / formula_calls if formula_calls else 0.0

    out["cli.main.self_s"] = self_s["cli.main"]
    for layer in LAYERS:
        total = sum(s for n, s in self_s.items() if n.startswith(layer + "."))
        out[f"layer.{layer}.self_s"] = total
        out[f"layer.{layer}.share"] = total / wall_s if wall_s > 0 else 0.0
    return out


def isolation(workload: str, m: dict[str, float], wall_s: float) -> dict[str, bool]:
    """Whether the traced pass confirms that the workload isolates its layer."""
    half = wall_s / 2
    dist = m["enumeration.dist.self_s"]
    series = m["algebra.TruncSeries.self_s"]
    if workload == "fold":
        return {"dist_over_half": dist > half, "truncseries_zero": series == 0}
    if workload == "series":
        return {"truncseries_over_half": series > half, "dist_zero": dist == 0}
    if workload == "orbits":
        hop_perm = m["layer.hopping.self_s"] + m["layer.permutations.self_s"]
        return {
            "hopping_permutations_over_half": hop_perm > half,
            "dist_zero": dist == 0,
            "truncseries_zero": series == 0,
        }
    if workload == "verify":
        multipoly = m["algebra.MultiPoly.self_s"]
        others = [m[f"layer.{layer}.self_s"] for layer in LAYERS if layer != "algebra"]
        return {"multipoly_largest": multipoly > max(others + [series])}
    return {}
