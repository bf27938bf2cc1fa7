"""Outside-in tracing of partinv's layers.

``Tracer.install`` wraps the public functions listed in ``LAYERS`` and the
``check_*`` oracle families, replacing every binding of each function in
every loaded ``partinv`` module, since the modules import each other's
names with ``from .x import y`` and inner calls must be caught too.  A
span is opened per call (and per ``next()`` of the partition enumerator)
and aggregated in memory by ``(name, parent)``, so memory stays bounded
however many calls a workload makes.  Self time is a span's time minus the
time of its child spans.  A function a later version of the package no
longer has is reported with zero calls, so the metric set stays fixed.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = {
    "partitions": ("parse_partition", "enumerate_partitions", "count_partitions"),
    "gcd_symm": ("g_vector", "h_vector", "power_norm", "gcd_matrix",
                 "gcd_matrix_det_and_bounds", "euler_phi"),
    "partition_poly": ("epsilon", "equivalent", "distinct_eigenvalue_count"),
    "classify": ("classify", "self_equivalent", "EquivalenceClasses.to_csv"),
    "algebra": ("dimension", "wedderburn", "isomorphic", "morita_equivalent",
                "is_semisimple", "FieldSpec", "pair_orbits", "canonical_permutation"),
    "oracles": ("brute_g", "root_union", "eigenvalue_multiplicities", "commutant_dimension"),
    "cli": ("main",),
}
FAMILIES = (
    "check_g_vector_vs_brute", "check_power_norm_vs_g", "check_h_vector_vs_roots",
    "check_inclusion_exclusion", "check_orbit_count_vs_gcd_sum", "check_commutant_dimension",
    "check_block_sum_rules", "check_determinant_bounds", "check_scaling_invariance",
    "check_append_part", "check_concat_classes", "check_multiset_sufficiency",
)
# Functions whose inputs are counted to see how much of their work repeats.
DISTINCT_INPUTS = ("gcd_symm.g_vector", "partition_poly.epsilon")
REPEATED_PARTS = "gcd_symm.gcd_matrix_det_and_bounds"
ENUMERATOR = "partitions.enumerate_partitions"


def function_names() -> list[str]:
    return [f"{module}.{name}" for module, names in LAYERS.items() for name in names]


def metric_names() -> list[str]:
    """Every metric ``Tracer.metrics`` reports, in a fixed order."""
    names = []
    for name in function_names():
        names += [f"{name}.calls", f"{name}.self_s"]
    names.append(f"{ENUMERATOR}.items")
    for family in FAMILIES:
        names += [f"oracles.{family}.total_s", f"oracles.{family}.instances"]
    names += [f"{name}.distinct_frac" for name in DISTINCT_INPUTS]
    names.append(f"{REPEATED_PARTS}.repeated_frac")
    return names


def _input_key(args) -> int:
    first = getattr(args[0], "parts", args[0]) if args else None
    return hash(first)


class _Spans:
    """Iterator that times each ``next()`` of a wrapped generator as a span."""

    def __init__(self, tracer: "Tracer", name: str, inner):
        self._tracer, self._name, self._inner = tracer, name, iter(inner)

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer.enter(self._name)
        try:
            item = next(self._inner)
        finally:
            self._tracer.leave(frame, calls=0)
        self._tracer.items += 1
        return item


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []
        self.spans: dict[tuple[str, str | None], list[float]] = {}
        self.inputs: dict[str, set[int]] = {name: set() for name in DISTINCT_INPUTS}
        self.repeated = 0
        self.items = 0
        self.instances: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, calls: int = 1) -> None:
        elapsed = time.perf_counter() - frame[1]
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += elapsed
        key = (frame[0], parent[0] if parent else None)
        record = self.spans.setdefault(key, [0, 0.0, 0.0])
        record[0] += calls
        record[1] += elapsed
        record[2] += elapsed - frame[2]

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in tracer.inputs:
                tracer.inputs[name].add(_input_key(args))
            elif name == REPEATED_PARTS and args and len(set(args[0].parts)) < len(args[0].parts):
                tracer.repeated += 1
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if name == ENUMERATOR:
                return _Spans(tracer, name, result)
            if name.startswith("oracles.check_"):
                tracer.instances[name] = tracer.instances.get(name, 0) + getattr(result, "instances", 0)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap every traced function of the imported ``partinv`` package."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "partinv" or key.startswith("partinv."))]
        targets = [(module, name) for module, names in LAYERS.items() for name in names]
        targets += [("oracles", family) for family in FAMILIES]
        for module_name, name in targets:
            module = sys.modules.get(f"partinv.{module_name}")
            owner_name, _, method = name.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None)
            if original is None:
                continue
            traced_name = f"{module_name}.{name}"
            if isinstance(original, type):
                # A class: time its construction, which runs its validation.
                self._patch(original, "__init__", self._wrap(traced_name, original.__init__))
            elif owner_name:
                self._patch(owner, method, self._wrap(traced_name, original))
            else:
                wrapper = self._wrap(traced_name, original)
                for bound in modules:
                    for attr, value in list(vars(bound).items()):
                        if value is original:
                            self._patch(bound, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        for (name, _), (count, total, own) in self.spans.items():
            calls[name] = calls.get(name, 0) + count
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + total
        out: dict[str, float] = {}
        for name in function_names():
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{ENUMERATOR}.items"] = self.items
        for family in FAMILIES:
            name = f"oracles.{family}"
            out[f"{name}.total_s"] = total_s.get(name, 0.0)
            out[f"{name}.instances"] = self.instances.get(name, 0)
        for name, seen in self.inputs.items():
            out[f"{name}.distinct_frac"] = len(seen) / calls[name] if calls.get(name) else 0.0
        det_calls = calls.get(REPEATED_PARTS, 0)
        out[f"{REPEATED_PARTS}.repeated_frac"] = self.repeated / det_calls if det_calls else 0.0
        return out

    def span_table(self) -> list[list]:
        """``[name, parent, calls, total_s, self_s]`` per aggregated span."""
        return [[name, parent, *record] for (name, parent), record in sorted(
            self.spans.items(), key=lambda item: -item[1][1])]
