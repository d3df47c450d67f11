"""JSON round trips and structural validation."""

import dataclasses
import json

import numpy as np
import pytest

from entnum import bipartite as bp
from entnum import contexts as cx
from entnum import mixed as mx
from entnum import operators as op
from entnum import serialize as sz
from entnum.errors import InvariantViolation, ParseError
from entnum.measures import ProbMeasure


def _with_first(obj, leaf):
    """``obj`` with its first number replaced by ``leaf``."""
    return [_with_first(obj[0], leaf), *obj[1:]] if isinstance(obj, list) else leaf


def _nest(leaf, depth):
    for _ in range(depth):
        leaf = [leaf]
    return leaf


# each reader with a valid input, ragged rows and, where entries are [re, im] pairs, a
# 3-element pair
READERS = [
    (sz.decode_vector, [[1, 0], [0, 0]], [[1, 0], [0]], [[1, 0, 0], [0, 0, 0]]),
    (sz.decode_matrix, [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], [0, 0]], [[1, 0]]],
     [[[1, 0, 0]]]),
    (sz.decode_prob_measure, [0.5, 0.5], [[0.5], [0.25, 0.25]], None),
    (sz.decode_product_measure, [[0.5, 0.5], [0, 0]], [[0.5, 0.5], [0]], None),
]
BAD_ENTRIES = {"true": True, "string": "1", "null": None, "object": {}, "400-digit": 10 ** 400}


def _malformed():
    for decode, valid, ragged, pair in READERS:
        name = decode.__name__
        yield pytest.param(decode, ragged, id=f"{name}-ragged")
        if pair is not None:
            yield pytest.param(decode, pair, id=f"{name}-3-element-pair")
        for label, leaf in BAD_ENTRIES.items():
            yield pytest.param(decode, _with_first(valid, leaf), id=f"{name}-{label}-entry")
            yield pytest.param(decode, leaf, id=f"{name}-{label}")
        yield pytest.param(decode, [], id=f"{name}-empty")
        yield pytest.param(decode, [[]], id=f"{name}-empty-row")
        yield pytest.param(decode, _nest(1.0, 100), id=f"{name}-100-deep")
    yield pytest.param(sz.decode_vector, [[1.0]], id="decode_vector-1-element-pair")
    yield pytest.param(sz.decode_vector, [[1.0, "x"]], id="decode_vector-string-in-pair")


class TestScalarsAndArrays:
    def test_matrix_round_trip(self):
        m = np.array([[1 + 2j, 0], [3, -1j]])
        np.testing.assert_array_equal(sz.decode_matrix(sz.encode_matrix(m)), m)

    @pytest.mark.parametrize("decode, obj", _malformed())
    def test_reader_rejects(self, decode, obj):
        with pytest.raises(ParseError):
            decode(obj)

    @pytest.mark.parametrize("decode, valid", [r[:2] for r in READERS],
                             ids=[r[0].__name__ for r in READERS])
    def test_reader_passes_nan(self, decode, valid):
        obj = _with_first(valid, json.loads("NaN"))
        if decode in (sz.decode_vector, sz.decode_matrix):
            assert np.isnan(decode(obj).flat[0].real)
        else:  # the measure's intake, not the reader, rejects it
            with pytest.raises(InvariantViolation):
                decode(obj)

    def test_rejects_ragged_matrix(self):
        with pytest.raises(ParseError):
            sz.decode_matrix([[[1, 0], [0, 0]], [[1, 0]]])


class TestDomainValues:
    def test_classical_dispatch(self):
        u = sz.decode_classical([0.5, 0.5])
        assert isinstance(u, ProbMeasure)
        p = sz.decode_classical([[0.5, 0.5]])
        assert p.weights.shape == (1, 2)

    def test_rejects_string_weights(self):
        with pytest.raises(ParseError):
            sz.decode_classical(["a", "b"])

    def test_context_round_trip(self):
        ctx = cx.random_context(3, np.random.default_rng(0))
        back = sz.decode_context(sz.encode_context(ctx))
        np.testing.assert_allclose(back.matrix, ctx.matrix, atol=1e-15)

    def test_bipartite_round_trip(self):
        vec = np.zeros(4, dtype=complex)
        vec[0] = vec[3] = 2**-0.5
        psi = bp.bipartite_from_vector(vec, (2, 2))
        back = sz.decode_bipartite_state(sz.encode_bipartite_state(psi))
        np.testing.assert_allclose(back.coeff, psi.coeff)

    @pytest.mark.parametrize("dim", ["2", 2.7, True, None])
    def test_rejects_bipartite_dims_of_wrong_type(self, dim):
        obj = sz.encode_bipartite_state(bp.bipartite_from_vector(np.eye(4)[0], (2, 2)))
        for key in ("dimA", "dimB"):
            with pytest.raises(ParseError):
                sz.decode_bipartite_state({**obj, key: dim})

    def test_entanglement_round_trip(self):
        e = bp.random_entanglement(3, np.random.default_rng(1))
        back = sz.decode_entanglement(sz.encode_entanglement(e))
        np.testing.assert_allclose(back.lam.weights, e.lam.weights, atol=1e-15)
        np.testing.assert_allclose(back.ctx_a.matrix, e.ctx_a.matrix, atol=1e-15)

    def test_decomposition_round_trip(self):
        rho = op.random_density(4, np.random.default_rng(2), factor_dims=(2, 2))
        d = mx.spectral_pure_decomposition(rho)
        back = sz.decode_decomposition(sz.encode_decomposition(d))
        assert back.reconstruction_error(rho) <= 1e-9

    def test_rejects_ragged_decomposition_vectors(self):
        with pytest.raises(ParseError):
            sz.decode_decomposition({"weights": [0.5, 0.5],
                                     "vectors": [[[1, 0], [0, 0]], [[1, 0]]]})

    def test_optimizer_options(self):
        opts = mx.OptimizerOptions(restarts=7, seed=5, m=4)
        back = sz.decode_optimizer_options(sz.encode_optimizer_options(opts))
        assert back.restarts == 7 and back.seed == 5 and back.m == 4

    def test_optimizer_options_round_trip_every_field(self):
        opts = mx.OptimizerOptions(restarts=7, max_iters=11, seed=5, m=4)
        fields = dataclasses.fields(mx.OptimizerOptions)
        assert all(getattr(opts, f.name) != f.default for f in fields)
        encoded = json.loads(json.dumps(sz.encode_optimizer_options(opts)))
        assert set(encoded) == {f.name for f in fields}
        assert sz.decode_optimizer_options(encoded) == opts
        default = mx.OptimizerOptions()
        assert sz.decode_optimizer_options(sz.encode_optimizer_options(default)) == default
        assert sz.decode_optimizer_options({"max_iters": 500}).max_iters == 500

    def test_rejects_unknown_option(self):
        with pytest.raises(ParseError):
            sz.decode_optimizer_options({"bogus": 1})
        with pytest.raises(ParseError):
            sz.decode_optimizer_options({**sz.encode_optimizer_options(mx.OptimizerOptions()),
                                         "bogus": 1})

    @pytest.mark.parametrize("obj", [
        {"restarts": "x"}, {"restarts": None}, {"restarts": 2.7}, {"restarts": True},
        {"seed": float("inf")}, {"m": 2.5}, {"m": "4"}, {"max_iters": "500"},
        {"max_iters": None}, {"max_iters": False},
    ])
    def test_rejects_option_of_wrong_type(self, obj):
        with pytest.raises(ParseError):
            sz.decode_optimizer_options(obj)

    def test_accepts_integral_numbers_and_null_m(self):
        opts = sz.decode_optimizer_options({"restarts": 3.0, "m": None})
        assert opts.restarts == 3 and isinstance(opts.restarts, int)
        assert opts.m is None
