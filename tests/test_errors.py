"""The argument checks of the public functions: each raises its own error
type with its own message.

Two raises have no case here.  ``eigendecompose``'s NonConvergence is LAPACK
failing to converge, which no small input brings about.  The NotPTSymmetric
of ``charge_from_spectrum`` on complex pairings is reached by no input:
c_n = phi_n^dagger P^-1 phi_n with P^-1 Hermitian is real up to roundoff.
"""

import math

import numpy as np
import pytest

from quasiherm import (DimensionMismatch, PseudoMetric, SelfOrthogonal,
                       SingularMetric, biorthonormalize, charge_from_metric,
                       conjugation_in, eigendecompose, hermitize,
                       inverse_family, make_ansatz, make_grid, make_triple,
                       propagate_spectrum, qh_residual, spectral_metric,
                       triple_inner, verify_table)
from quasiherm.models import canonical_json, jsonable
from quasiherm.operators import adjoint_wrt, as_state, parity_matrix
from quasiherm.spectral import is_real_spectrum

I2, I3 = np.eye(2), np.eye(3)


def spectrum():
    return eigendecompose(np.diag([1.0, 2.0]))


def triple():
    return make_triple(I2, I2)


SPACES = "('F', 'R', 'H')"

CASES = {
    # spectral
    "eigendecompose-negative-gap-floor": (
        lambda: eigendecompose(I2, gap_floor=-1), ValueError,
        "gap_floor must be nonnegative"),
    "is_real_spectrum-negative-tol": (
        lambda: is_real_spectrum(spectrum(), -1), ValueError,
        "tolerance must be nonnegative"),
    "biorthonormalize-3d": (
        lambda: biorthonormalize(np.ones((2, 2, 2)), np.ones((2, 2, 2))),
        DimensionMismatch, "expected vectors as columns"),
    "biorthonormalize-shapes": (
        lambda: biorthonormalize(I2, I3), DimensionMismatch,
        "right system (2, 2) does not match left system (3, 3)"),
    "biorthonormalize-zero-column": (
        lambda: biorthonormalize(I2, np.diag([1.0, 0.0])), SelfOrthogonal,
        "zero vector in the eigensystem"),
    # operators
    "as_state-empty": (
        lambda: as_state([]), DimensionMismatch,
        "state vector must not be empty"),
    "as_state-nan": (
        lambda: as_state([math.nan]), ValueError,
        "state entries must be finite"),
    "parity_matrix-0": (
        lambda: parity_matrix(0), DimensionMismatch,
        "parity needs a positive integer dimension"),
    "adjoint_wrt-shapes": (
        lambda: adjoint_wrt(I2, I3), DimensionMismatch,
        "operator (2, 2) incompatible with metric (3, 3)"),
    # metrics
    "qh_residual-shapes": (
        lambda: qh_residual(I2, I3), DimensionMismatch,
        "operator (2, 2) incompatible with metric (3, 3)"),
    "spectral_metric-weight-count": (
        lambda: spectral_metric(spectrum(), [1.0]), DimensionMismatch,
        "need 2 weights, got shape (1,)"),
    "hermitize-shapes": (
        lambda: hermitize(I3, I2), DimensionMismatch,
        "operator (3, 3) incompatible with metric (2, 2)"),
    # factorization
    "structured-dense": (
        lambda: PseudoMetric.structured("dense", 3), ValueError,
        "no structured pseudometric 'dense'"),
    "make_triple-shapes": (
        lambda: make_triple(I2, I3), DimensionMismatch,
        "charge (3, 3) incompatible with pseudometric (2, 2)"),
    "charge_from_metric-shapes": (
        lambda: charge_from_metric(I3, I2), DimensionMismatch,
        "metric (3, 3) incompatible with pseudometric (2, 2)"),
    "conjugation_in-shapes": (
        lambda: conjugation_in(triple(), "F", I3), DimensionMismatch,
        "operator (3, 3) incompatible with triple of dim 2"),
    "verify_table-shapes": (
        lambda: verify_table(triple(), I3), DimensionMismatch,
        "operator (3, 3) incompatible with triple of dim 2"),
    "triple_inner-space": (
        lambda: triple_inner(triple(), "X", [1, 0], [1, 0]), ValueError,
        f"space must be one of {SPACES}, got 'X'"),
    "conjugation_in-space": (
        lambda: conjugation_in(triple(), "X", I2), ValueError,
        f"space must be one of {SPACES}, got 'X'"),
    "conjugation_in-singular-theta": (
        lambda: conjugation_in(make_triple(I2, np.diag([1.0, 0.0])), "H", I2),
        SingularMetric, "Theta is numerically singular: Singular matrix"),
    # family
    "make_ansatz-infinite-omega": (
        lambda: make_ansatz(make_grid(1.0, 5), np.ones(5), np.zeros(5),
                            omega=math.inf),
        ValueError, "omega must be finite, got inf"),
    "inverse_family-branch-0": (
        lambda: inverse_family(np.ones(5), np.zeros(5), 0.0,
                               make_grid(1.0, 5), branch=0),
        ValueError, "branch must be +1 or -1"),
    # evolution
    "propagate_spectrum-no-times": (
        lambda: propagate_spectrum(spectrum(), [1, 0], []), ValueError,
        "need at least one time sample"),
    # models
    "canonical_json-object": (
        lambda: canonical_json(object()), TypeError,
        "cannot serialize object"),
    "jsonable-object": (
        lambda: jsonable(object()), TypeError,
        "cannot embed object in a report"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_argument_checks_raise_their_type_and_message(name):
    call, error, message = CASES[name]
    with pytest.raises(Exception) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
