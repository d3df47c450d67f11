"""Per-layer spans, recorded by wrappers the benchmark installs at run time.

Nothing under ``src/`` changes.  ``install`` replaces, in every ``entnum``
module, each binding of a public function of the eight layer modules with a
timing wrapper, and wraps the ``__init__`` of their public dataclasses (the
value types), the entries of ``verify.CHECKS`` and the two scipy functions
``entnum.mixed`` calls (``minimize`` and ``expm``).  The ``minimize`` wrapper
also wraps the objective it is handed, so every evaluation is a span.
``enable(False)`` puts the program's own functions back, so one process can
run an operation untraced and traced in turn.

Spans are kept in memory (parallel arrays) and written once, at the end.  A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np

import reference as ref

LAYERS = ("measures", "operators", "contexts", "bipartite", "mixed", "serialize", "cli", "verify")
# called once per JSON number; a wrapper there would cost more than the call
PER_ENTRY = {"serialize.decode_complex", "serialize.encode_complex"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.dur = array("q")
        self.self_ns = array("q")
        self._stack: list[list[int]] = []  # [span index, summed child ns]
        self.searches: list[tuple[int, int]] = []  # (span, MixedResult.evaluations)
        self.descents: list[tuple[int, bool, bool]] = []  # (span, at budget, improved)
        self.decoded: list[tuple[int, object]] = []  # (span, JSON input)
        self._best: list[float] = []  # running best value of each open search
        self._patches: list[tuple[object, str, object, object]] = []  # target, key, old, new

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.dur.append(0)
        self.self_ns.append(0)
        self._stack.append([idx, 0])
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self) -> None:
        end = time.perf_counter_ns()
        idx, child = self._stack.pop()
        d = end - self.start[idx]
        self.dur[idx] = d
        self.self_ns[idx] = d - child
        if self._stack:
            self._stack[-1][1] += d

    def wrap(self, name: str, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return traced

    def wrap_search(self, fn):
        """``entanglement_number_mixed``: records evaluations and tracks the best value.

        A search starts from the spectral decomposition, so its first best
        value is the spectral score; the reference computes it before the
        span opens.
        """
        nid = self._id("mixed.entanglement_number_mixed")

        @functools.wraps(fn)
        def traced(rho, *args, **kwargs):
            da, db = rho.factor_dims
            self._best.append(ref.spectral_upper_bound(rho.mat, da, db)[0])
            idx = self._open(nid)
            try:
                result = fn(rho, *args, **kwargs)
            finally:
                self._close()
                self._best.pop()
            self.searches.append((idx, int(result.evaluations)))
            return result

        return traced

    def wrap_minimize(self, fn):
        nid = self._id("scipy.minimize")
        objective = self._id("mixed.objective")

        @functools.wraps(fn)
        def traced(fun, x0, *args, **kwargs):
            @functools.wraps(fun)
            def timed_fun(*a):
                self._open(objective)
                try:
                    return fun(*a)
                finally:
                    self._close()

            idx = self._open(nid)
            try:
                res = fn(timed_fun, x0, *args, **kwargs)
            finally:
                self._close()
            options = kwargs.get("options", {})
            # stopped by the iteration or evaluation budget, not by its tolerances
            at_budget = (int(res.nfev) >= options.get("maxfev", math.inf)
                         or int(res.nit) >= options.get("maxiter", math.inf))
            improved = False
            if self._best:
                # tolerance for the last bits between reference and program
                improved = float(res.fun) < self._best[-1] * (1.0 - 1e-12) - 1e-15
                self._best[-1] = min(self._best[-1], float(res.fun))
            self.descents.append((idx, at_budget, improved))
            return res

        return traced

    def wrap_decode(self, name: str, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(obj, *args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                self._close()
                self.decoded.append((idx, obj))

        return traced

    def install(self) -> None:
        import entnum
        from entnum import mixed, verify

        modules = {layer: sys.modules[f"entnum.{layer}"] for layer in LAYERS}
        targets = [entnum] + [m for n, m in sys.modules.items() if n.startswith("entnum.")]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isclass(obj):
                    if dataclasses.is_dataclass(obj):
                        self._patch(obj, "__init__", self.wrap(name, obj.__init__))
                    continue
                if not inspect.isfunction(obj) or name in PER_ENTRY:
                    continue
                if name == "mixed.entanglement_number_mixed":
                    wrapped = self.wrap_search(obj)
                elif layer == "serialize" and attr.startswith("decode_"):
                    wrapped = self.wrap_decode(name, obj)
                else:
                    wrapped = self.wrap(name, obj)
                for target in targets:
                    if getattr(target, attr, None) is obj:
                        self._patch(target, attr, wrapped)
        for check_id, fn in list(verify.CHECKS.items()):
            self._patch(verify.CHECKS, check_id, self.wrap(f"verify.check.{check_id}", fn))
        self._patch(mixed, "minimize", self.wrap_minimize(mixed.minimize))
        self._patch(mixed, "expm", self.wrap("scipy.expm", mixed.expm))
        self.enable(True)

    def _patch(self, target, key: str, new) -> None:
        old = target[key] if isinstance(target, dict) else getattr(target, key)
        self._patches.append((target, key, old, new))

    def enable(self, on: bool) -> None:
        """Put the wrappers in place, or the program's own functions back."""
        for target, key, old, new in self._patches:
            if isinstance(target, dict):
                target[key] = new if on else old
            else:
                setattr(target, key, new if on else old)

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            dur_ns=np.frombuffer(self.dur, dtype=np.int64),
            self_ns=np.frombuffer(self.self_ns, dtype=np.int64))

    # -- per-layer metrics --------------------------------------------------

    def _spans(self, name: str) -> np.ndarray:
        if name not in self._ids:
            return np.zeros(0, dtype=np.int64)
        return np.nonzero(np.frombuffer(self.name, dtype=np.int32) == self._ids[name])[0]

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer values, counts per round; a name the program no longer defines is left out."""
        dur = np.frombuffer(self.dur, dtype=np.int64)
        self_ns = np.frombuffer(self.self_ns, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_of = np.frombuffer(self.name, dtype=np.int32)
        out: dict[str, float] = {}

        def median(values, scale):
            return float(np.median(values)) / scale if len(values) else 0.0

        def per_call(metric, span_name, scale, field=dur):
            if _defined(span_name):
                out[metric] = median(field[self._spans(span_name)], scale)

        us, ms = 1e3, 1e6
        searches = self._spans("mixed.entanglement_number_mixed")
        objective = self._spans("mixed.objective")
        descents = self._spans("scipy.minimize")
        evaluations = sum(e for _, e in self.searches)
        if _defined("mixed.entanglement_number_mixed"):
            out["mixed.searches"] = len(searches) / rounds
            out["mixed.search_ms"] = median(dur[searches], ms)
            out["mixed.evaluations"] = evaluations / rounds
            out["mixed.eval_us"] = float(dur[searches].sum()) / us / evaluations if evaluations else 0.0
        if _defined("scipy.minimize"):
            out["mixed.objective_us"] = median(dur[objective], us)
            out["mixed.optimizer_us"] = (float(self_ns[descents].sum()) / us / len(objective)
                                         if len(objective) else 0.0)
            out["mixed.descents"] = len(descents) / rounds
            out["mixed.descents_at_budget"] = sum(b for _, b, _ in self.descents) / rounds
            out["mixed.improving_descents"] = sum(imp for *_, imp in self.descents) / rounds
        per_call("mixed.expm_us", "scipy.expm", us)
        per_call("mixed.certificate_ms", "mixed.separability_certificate", ms)
        per_call("mixed.spectral_us", "mixed.spectral_pure_decomposition", us)
        per_call("mixed.decomposition_entanglement_us", "mixed.decomposition_entanglement", us)
        per_call("operators.density_us", "operators.DensityState", us)
        per_call("operators.operator_us", "operators.Operator", us)
        per_call("contexts.from_rows_us", "contexts.context_from_rows", us)
        per_call("contexts.coefficient_us", "contexts.context_coefficient", us)
        per_call("contexts.residual_us", "contexts.residual_map", us)
        per_call("contexts.measurable_us", "contexts.is_measurable", us)
        per_call("bipartite.from_vector_us", "bipartite.bipartite_from_vector", us)
        per_call("bipartite.schmidt_us", "bipartite.schmidt_decompose", us)
        per_call("bipartite.pure_e_us", "bipartite.pure_entanglement_number", us)
        per_call("measures.e_us", "measures.entanglement_number", us)
        per_call("measures.product_e_us", "measures.product_entanglement_number", us)
        per_call("measures.factorized_us", "measures.is_factorized", us)
        per_call("serialize.encode_ms", "serialize.encode_decomposition", ms)
        per_call("cli.main_ms", "cli.main", ms)
        per_call("cli.self_ms", "cli.main", ms, field=self_ns)
        per_call("cli.parser_us", "cli.build_parser", us)
        per_call("verify.run_checks_ms", "verify.run_checks", ms)
        per_call("verify.example9_ms", "verify.check.example9", ms)
        per_call("verify.thm33_ms", "verify.check.thm33", ms)

        # outermost decode calls only: decode_matrix -> decode_vector nests
        decode_ids = {i for i, n in enumerate(self.names) if n.startswith("serialize.decode_")}
        outer = [(idx, obj) for idx, obj in self.decoded
                 if parent[idx] < 0 or int(name_of[parent[idx]]) not in decode_ids]
        entries = sum(_count_numbers(obj) for _, obj in outer)
        decode_ns = float(sum(int(dur[idx]) for idx, _ in outer))
        out["serialize.decode_ms"] = median([int(dur[idx]) for idx, _ in outer], ms)
        out["serialize.decode_entries"] = entries / rounds
        out["serialize.decode_ns_per_entry"] = decode_ns / entries if entries else 0.0
        return out


def _defined(span_name: str) -> bool:
    """Whether the wrapped name still exists in the program."""
    module, _, attr = span_name.partition(".")
    if module == "scipy":
        return hasattr(sys.modules["entnum.mixed"], attr)
    if module == "verify" and attr.startswith("check."):
        return attr[len("check."):] in sys.modules["entnum.verify"].CHECKS
    return hasattr(sys.modules[f"entnum.{module}"], attr)


def _count_numbers(obj) -> int:
    if isinstance(obj, (list, tuple)):
        return sum(_count_numbers(x) for x in obj)
    if isinstance(obj, dict):
        return sum(_count_numbers(x) for x in obj.values())
    return 1 if isinstance(obj, (int, float)) and not isinstance(obj, bool) else 0
