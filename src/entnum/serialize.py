"""JSON encoding of package values.

Complex numbers are always two-element arrays [re, im]; vectors are arrays of
pairs, matrices arrays of rows.  Probability measures are plain number arrays
(matrices of numbers for product measures).  Structural problems raise
ParseError; well-formed values that fail domain checks raise their usual
InvariantViolation / DimensionMismatch from the constructors.
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


def _require_number(x: Any) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParseError(f"expected a number, got {x!r}")
    return float(x)


def _require_int(x: Any) -> int:
    if isinstance(x, bool) or not (isinstance(x, int) or isinstance(x, float) and x.is_integer()):
        raise ParseError(f"expected an integer, got {x!r}")
    return int(x)


def decode_complex(obj: Any) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ParseError(f"complex entries must be [re, im] pairs, got {obj!r}")
    return complex(_require_number(obj[0]), _require_number(obj[1]))


def encode_complex(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def decode_vector(obj: Any) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ParseError("expected a non-empty array of [re, im] pairs")
    return np.array([decode_complex(e) for e in obj])


def encode_vector(v: np.ndarray) -> list[list[float]]:
    return [encode_complex(complex(z)) for z in np.asarray(v).reshape(-1)]


def decode_matrix(obj: Any) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ParseError("expected a non-empty array of rows")
    rows = [decode_vector(r) for r in obj]
    width = rows[0].size
    if any(r.size != width for r in rows):
        raise ParseError("matrix rows have unequal lengths")
    return np.stack(rows)


def encode_matrix(m: np.ndarray) -> list[list[list[float]]]:
    return [encode_vector(row) for row in np.asarray(m)]


def decode_prob_measure(obj: Any) -> ProbMeasure:
    if not isinstance(obj, list) or not obj:
        raise ParseError("expected a non-empty array of numbers")
    return ProbMeasure(np.array([_require_number(x) for x in obj]))


def decode_product_measure(obj: Any) -> ProductMeasure:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ParseError("expected a non-empty array of number rows")
    rows = [[_require_number(x) for x in r] for r in obj]
    width = len(rows[0])
    if any(len(r) != width for r in rows) or width == 0:
        raise ParseError("product measure rows must be non-empty and of equal length")
    return ProductMeasure(np.array(rows))


def decode_classical(obj: Any) -> ProbMeasure | ProductMeasure:
    """Array of numbers -> ProbMeasure; array of arrays -> ProductMeasure."""
    if not isinstance(obj, list) or not obj:
        raise ParseError("expected an array (measure) or array of arrays (product measure)")
    if isinstance(obj[0], list):
        return decode_product_measure(obj)
    return decode_prob_measure(obj)


def decode_operator(obj: Any) -> Operator:
    return Operator(decode_matrix(obj))


def encode_operator(a: Operator) -> list:
    return encode_matrix(a.mat)


def decode_density(obj: Any, factor_dims: tuple[int, int] | None = None) -> DensityState:
    return DensityState(decode_matrix(obj), factor_dims=factor_dims)


def decode_context(obj: Any) -> Context:
    if not isinstance(obj, list) or not obj:
        raise ParseError("expected an array of basis vectors")
    return context_from_rows(np.stack([decode_vector(v) for v in obj]))


def encode_context(ctx: Context) -> list:
    return [encode_vector(row) for row in ctx.matrix]


def decode_bipartite_state(obj: Any) -> BipartiteVectorState:
    if not isinstance(obj, dict):
        raise ParseError("expected {dimA, dimB, coeff}")
    try:
        da, db, coeff = obj["dimA"], obj["dimB"], obj["coeff"]
    except KeyError as exc:
        raise ParseError(f"malformed bipartite state object: {exc}") from exc
    return bipartite_from_vector(decode_matrix(coeff).reshape(-1),
                                 (_require_int(da), _require_int(db)))


def encode_bipartite_state(psi: BipartiteVectorState) -> dict:
    da, db = psi.dims
    return {"dimA": da, "dimB": db, "coeff": encode_matrix(psi.coeff)}


def decode_entanglement(obj: Any) -> Entanglement:
    if not isinstance(obj, dict):
        raise ParseError("expected {lambda, ctxA, ctxB}")
    try:
        lam, ca, cb = obj["lambda"], obj["ctxA"], obj["ctxB"]
    except KeyError as exc:
        raise ParseError(f"missing entanglement field: {exc}") from exc
    return Entanglement(decode_prob_measure(lam), decode_context(ca), decode_context(cb))


def encode_entanglement(e: Entanglement) -> dict:
    return {
        "lambda": [float(w) for w in e.lam.weights],
        "ctxA": encode_context(e.ctx_a),
        "ctxB": encode_context(e.ctx_b),
    }


def encode_decomposition(d: PureDecomposition) -> dict:
    return {
        "weights": [float(w) for w in d.weights.weights],
        "vectors": [encode_vector(v) for v in d.vectors],
    }


def decode_decomposition(obj: Any) -> PureDecomposition:
    if not isinstance(obj, dict):
        raise ParseError("expected {weights, vectors}")
    try:
        weights, vectors = obj["weights"], obj["vectors"]
    except KeyError as exc:
        raise ParseError(f"missing decomposition field: {exc}") from exc
    return PureDecomposition(
        decode_prob_measure(weights), np.stack([decode_vector(v) for v in vectors])
    )


# one checked converter per OptimizerOptions field, from its default; ``m``
# (default None) takes an int or null
_OPT_FIELDS = {f.name: _require_number if isinstance(f.default, float) else _require_int
               for f in dataclasses.fields(OptimizerOptions)}


def decode_optimizer_options(obj: Any) -> OptimizerOptions:
    if not isinstance(obj, dict):
        raise ParseError("expected an options object")
    kwargs = {}
    for key, value in obj.items():
        if key not in _OPT_FIELDS:
            raise ParseError(f"unknown optimizer option {key!r}")
        if key == "m" and value is None:
            kwargs[key] = None
        else:
            kwargs[key] = _OPT_FIELDS[key](value)
    return OptimizerOptions(**kwargs)


def encode_optimizer_options(opts: OptimizerOptions) -> dict:
    return dataclasses.asdict(opts)
