import json
import math

import numpy as np
import pytest

A_UNBROKEN = 0.6
A_BROKEN = 1.2


@pytest.fixture
def model_h():
    """Two-level gain/loss model in the unbroken phase (eigenvalues +-0.8)."""
    return np.array([[1j * A_UNBROKEN, 1.0], [1.0, -1j * A_UNBROKEN]])


@pytest.fixture
def broken_h():
    """Same model past the symmetry-breaking point (eigenvalues +-0.6633i)."""
    return np.array([[1j * A_BROKEN, 1.0], [1.0, -1j * A_BROKEN]])


@pytest.fixture
def parity2():
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@pytest.fixture
def golden_charge():
    """Involutory charge of the unbroken model, by direct 2x2 arithmetic."""
    return np.array([[0.75j, 1.25], [1.25, -0.75j]])


@pytest.fixture
def golden_theta():
    """Positive metric of the unbroken model: parity times the charge."""
    return np.array([[1.25, -0.75j], [0.75j, 1.25]])


def random_diagonalizable(rng, dim, cond_v=10.0, spread=1.0):
    """H = V diag(real) V^-1 with controlled cond(V) and separated spectrum."""
    q1, _ = np.linalg.qr(rng.normal(size=(dim, dim))
                         + 1j * rng.normal(size=(dim, dim)))
    q2, _ = np.linalg.qr(rng.normal(size=(dim, dim))
                         + 1j * rng.normal(size=(dim, dim)))
    sing = np.geomspace(1.0, cond_v, dim)
    v = (q1 * sing) @ q2
    min_gap = 0.1 * spread / dim
    while True:
        lam = np.sort(rng.uniform(-spread, spread, size=dim))
        if dim == 1 or np.diff(lam).min() > min_gap:
            break
    h = v @ np.diag(lam) @ np.linalg.inv(v)
    return h, lam, v


def render_float(x) -> str:
    """A report float, written out here apart from the library: 17
    significant digits, and inf and nan as the JSON strings "inf", "-inf"
    and "nan"."""
    x = float(x)
    return format(x, ".17g") if math.isfinite(x) else json.dumps(str(x))


def point_major_csv(x, named):
    """The point-major series rows, (x, name, value) for every series at
    each x in turn, rendered one row per line."""
    columns = [(name, samples.tolist()) for name, samples in named]
    rows = [(xj, name, col[j]) for j, xj in enumerate(x.tolist())
            for name, col in columns]
    return "".join(f"{render_float(t)},{name},{render_float(v)}\n"
                   for t, name, v in rows)


def exact(rows):
    """Rows as (name, repr of the value): equal floats are equal bit for
    bit, the sign of a zero included."""
    return [(name, repr(float(v)) if isinstance(v, (float, np.floating))
             else repr(v)) for name, v in rows]


def document_matrix(data) -> np.ndarray:
    """The complex matrix of a document's rows of numbers or [re, im]
    pairs."""
    return np.array([[complex(*v) if isinstance(v, list) else complex(v)
                      for v in row] for row in data])


def lattice_h(doc) -> np.ndarray:
    """The H of a lattice document, written out entry by entry."""
    n = doc["n"]
    gamma = doc.get("gamma", 0.0)
    coupling = doc.get("coupling", 1.0)
    h = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        h[k, k + 1] = coupling
        h[k + 1, k] = coupling
    if doc.get("pattern") == "alternating":
        for k in range(n):
            h[k, k] += 1j * gamma * (-1.0) ** k
    else:
        h[0, 0] = 1j * gamma
        h[n - 1, n - 1] = -1j * gamma
    return h


def document_h(doc) -> np.ndarray:
    """The complex H that an operator model document defines, built from
    the document with the public functions.  A parsed model keeps only the
    frame of its analysis, which is the real form of H under a "parity" or
    "identity" P."""
    from quasiherm.expressions import Sampler, parse_expression
    from quasiherm.family import discretize_hamiltonian, make_grid
    if doc["kind"] == "matrix":
        return document_matrix(doc["data"])
    if doc["kind"] == "lattice":
        return lattice_h(doc)
    grid = make_grid(float(doc["grid"]["L"]), doc["grid"]["N"])
    sampler = Sampler(grid.points)
    v_re, v_im = (parse_expression(doc.get(name, "0")).sample(sampler)
                  for name in ("V_real", "V_imag"))
    return discretize_hamiltonian(grid, v_re + 1j * v_im)
