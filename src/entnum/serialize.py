"""JSON encoding of package values.

Complex numbers are always two-element arrays [re, im]; vectors are arrays of
pairs, matrices arrays of rows.  Probability measures are plain number arrays
(matrices of numbers for product measures).  Every array goes through one
reader, which checks only JSON types and rectangular shape: a non-empty nest of
numbers (not booleans) of exactly the expected depth, else ParseError.  The
value types' intake then checks shape and finiteness and raises its usual
DimensionMismatch / InvariantViolation.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from .bipartite import BipartiteVectorState, Entanglement, bipartite_from_vector
from .contexts import Context, context_from_rows
from .errors import ParseError
from .measures import ProbMeasure, ProductMeasure
from .mixed import OptimizerOptions, PureDecomposition
from .operators import DensityState, Operator


def _read(obj: Any, ndim: int, expected: str, pairs: bool = False) -> np.ndarray:
    """``obj`` as a float array with ``ndim`` axes, else ParseError naming ``expected``.

    ``obj`` must be a non-empty, rectangular nest of numbers (int or float, not
    bool) exactly ``ndim`` deep; with ``pairs`` one level deeper, ending in
    [re, im] pairs that are read as a complex array.  NaN and infinities pass.
    """
    try:
        a = np.array(obj, dtype=object)
        if (a.ndim == ndim + pairs and a.size and (not pairs or a.shape[-1] == 2)
                and all(issubclass(t, (int, float)) and t is not bool
                        for t in set(map(type, a.flat)))):
            a = a.astype(float)
            return a.view(complex)[..., 0] if pairs else a
    except (OverflowError, RuntimeError, ValueError):
        pass  # an integer too large for a float, or a nest deeper than numpy allows
    raise ParseError(f"expected {expected}")


def _write(a: np.ndarray) -> list:
    """Complex array as nested lists ending in [re, im] pairs."""
    a = np.asarray(a)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _fields(obj: Any, *names: str) -> list:
    """The values of the named fields of a JSON object; other keys are ignored."""
    if not isinstance(obj, dict) or any(n not in obj for n in names):
        raise ParseError(f"expected an object with fields {{{', '.join(names)}}}")
    return [obj[n] for n in names]


def _require_int(x: Any) -> int:
    if isinstance(x, bool) or not (isinstance(x, int) or isinstance(x, float) and x.is_integer()):
        raise ParseError(f"expected an integer, got {x!r}")
    return int(x)


def decode_vector(obj: Any) -> np.ndarray:
    return _read(obj, 1, "a non-empty array of [re, im] number pairs", pairs=True)


def decode_matrix(obj: Any) -> np.ndarray:
    return _read(obj, 2, "a non-empty array of equal-length rows of [re, im] number pairs",
                 pairs=True)


def encode_matrix(m: np.ndarray) -> list:
    return _write(m)


def decode_prob_measure(obj: Any) -> ProbMeasure:
    return ProbMeasure(_read(obj, 1, "a non-empty array of numbers"))


def decode_product_measure(obj: Any) -> ProductMeasure:
    return ProductMeasure(_read(obj, 2, "a non-empty array of equal-length number rows"))


def decode_classical(obj: Any) -> ProbMeasure | ProductMeasure:
    """Array of numbers -> ProbMeasure; array of arrays -> ProductMeasure."""
    if not isinstance(obj, list) or not obj:
        raise ParseError("expected an array (measure) or array of arrays (product measure)")
    if isinstance(obj[0], list):
        return decode_product_measure(obj)
    return decode_prob_measure(obj)


def decode_operator(obj: Any) -> Operator:
    return Operator(decode_matrix(obj))


def decode_density(obj: Any, factor_dims: tuple[int, int] | None = None) -> DensityState:
    return DensityState(decode_matrix(obj), factor_dims=factor_dims)


def decode_context(obj: Any) -> Context:
    return context_from_rows(decode_matrix(obj))


def encode_context(ctx: Context) -> list:
    return _write(ctx.matrix)


def decode_bipartite_state(obj: Any) -> BipartiteVectorState:
    da, db, coeff = _fields(obj, "dimA", "dimB", "coeff")
    return bipartite_from_vector(decode_matrix(coeff).reshape(-1),
                                 (_require_int(da), _require_int(db)))


def encode_bipartite_state(psi: BipartiteVectorState) -> dict:
    da, db = psi.dims
    return {"dimA": da, "dimB": db, "coeff": encode_matrix(psi.coeff)}


def decode_entanglement(obj: Any) -> Entanglement:
    lam, ca, cb = _fields(obj, "lambda", "ctxA", "ctxB")
    return Entanglement(decode_prob_measure(lam), decode_context(ca), decode_context(cb))


def encode_entanglement(e: Entanglement) -> dict:
    return {
        "lambda": e.lam.weights.tolist(),
        "ctxA": encode_context(e.ctx_a),
        "ctxB": encode_context(e.ctx_b),
    }


def encode_decomposition(d: PureDecomposition) -> dict:
    return {"weights": d.weights.weights.tolist(), "vectors": _write(d.vectors)}


def decode_decomposition(obj: Any) -> PureDecomposition:
    weights, vectors = _fields(obj, "weights", "vectors")
    return PureDecomposition(decode_prob_measure(weights), decode_matrix(vectors))


# every OptimizerOptions field is an integer; ``m`` (default None) also takes null
_OPT_FIELDS = {f.name for f in dataclasses.fields(OptimizerOptions)}


def decode_optimizer_options(obj: Any) -> OptimizerOptions:
    if not isinstance(obj, dict):
        raise ParseError("expected an options object")
    kwargs = {}
    for key, value in obj.items():
        if key not in _OPT_FIELDS:
            raise ParseError(f"unknown optimizer option {key!r}")
        kwargs[key] = None if key == "m" and value is None else _require_int(value)
    return OptimizerOptions(**kwargs)


def encode_optimizer_options(opts: OptimizerOptions) -> dict:
    return dataclasses.asdict(opts)
