"""Seeded workload generators and the expected-outcome table.

Every model document is built from ``--seed`` alone, and every expected
outcome is decided here with plain numpy (``numpy.linalg.eigvals`` on an
independently assembled matrix, numpy evaluation of the expression
strings), never through ``quasiherm``, so that the benchmark's checks do not
share the code path they check.

Sizes are fixed per workload; the seed varies only parameters (gain/loss
strengths, random matrix entries, ansatz coefficients), so the work in a
run barely depends on the seed.
"""

from __future__ import annotations

import numpy as np

# relative size of Im(lambda) below which numpy's spectrum counts as real
REAL_RTOL = 1e-10

def _num(value: float) -> str:
    """Number text that both the model parser and Python read identically."""
    return repr(float(value))


# ---------------------------------------------------------------------------
# independent operator assembly (mirrors the documented model semantics)

def lattice_matrix(n: int, gamma: float, pattern: str) -> np.ndarray:
    """Tight-binding chain, unit coupling, gain/loss +-i*gamma."""
    h = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    h = h.astype(complex)
    if pattern == "endpoints":
        h[0, 0], h[-1, -1] = 1j * gamma, -1j * gamma
    else:
        h += np.diag(1j * gamma * (-1.0) ** np.arange(n))
    return h


def grid_points(half_width: float, npoints: int) -> np.ndarray:
    h = 2.0 * half_width / (npoints - 1)
    return (np.arange(npoints) - (npoints - 1) // 2) * h


def schroedinger_matrix(half_width, npoints, v_real, v_imag) -> np.ndarray:
    """-d^2/dx^2 + V, central stencil, zero samples beyond the ends."""
    x = grid_points(half_width, npoints)
    h2 = (x[1] - x[0]) ** 2
    off = -np.ones(npoints - 1) / h2
    return (np.diag(2.0 / h2 + v_real(x) + 1j * v_imag(x))
            + np.diag(off, 1) + np.diag(off, -1))


def pt_matrix(rng, dim: int) -> np.ndarray:
    """Random complex-symmetric, PT-symmetric matrix with real spectrum.

    H = A + i*g*B with A real symmetric and centrosymmetric and B real
    symmetric and anti-centrosymmetric gives H^T = H and P conj(H) P = H,
    hence H^dagger P = P H for the flip P.  g is halved until the spectrum
    is real at both g and 2g (PT phases can re-enter, so one check is not
    enough), which keeps the model well inside the unbroken phase.
    """
    flip = np.arange(dim)[::-1]
    a = rng.normal(size=(dim, dim))
    a = a + a.T
    a = a + a[flip][:, flip]
    b = rng.normal(size=(dim, dim))
    b = b + b.T
    b = b - b[flip][:, flip]
    g = 0.5
    for _ in range(60):
        if all(spectrum_is_real(a + 1j * f * g * b) for f in (1, 2)):
            return a + 1j * g * b
        g *= 0.5
    raise RuntimeError("could not certify an unbroken PT matrix")


def spectrum_is_real(m: np.ndarray) -> bool:
    vals = np.linalg.eigvals(m)
    return bool(np.abs(vals.imag).max()
                <= REAL_RTOL * max(1.0, float(np.abs(vals).max())))


def spectrum_with_conditions(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and their condition numbers |l||r| / |<l|r>| (>= 1)."""
    vals, right = np.linalg.eig(m)
    left = np.linalg.inv(right).conj().T
    cond = (np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0)
            / np.abs(np.einsum("ij,ij->j", left.conj(), right)))
    return vals, np.maximum(cond, 1.0)


def alternating_threshold(n: int) -> float:
    """Breaking point of the alternating chain: min_k |2 cos k|."""
    k = np.pi * np.arange(1, n + 1) / (n + 1)
    return float(np.abs(2.0 * np.cos(k)).min())


def unbroken_gamma(rng, n: int, pattern: str) -> float:
    """A gain/loss strength that is unbroken, also at 1.5 times its value."""
    if pattern == "alternating":
        gamma = rng.uniform(0.2, 0.5) * alternating_threshold(n)
    else:
        gamma = rng.uniform(0.1, 0.6)
    while not (spectrum_is_real(lattice_matrix(n, gamma, pattern)) and
               spectrum_is_real(lattice_matrix(n, 1.5 * gamma, pattern))):
        gamma *= 0.5
    return round(gamma, 12)


# ---------------------------------------------------------------------------
# model records

def _matrix_data(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _matrix_like(mid: str, doc: dict, h: np.ndarray) -> dict:
    """Model record with its spectrum oracle and expected exit code."""
    real = spectrum_is_real(h)
    vals, cond = spectrum_with_conditions(h)
    return {"id": mid, "doc": doc, "kind": doc["kind"],
            "expect": 0 if real else 1,
            "eigenvalues": [[float(z.real), float(z.imag)] for z in vals],
            "eig_conditions": cond.tolist()}


def lattice_model(mid, n, gamma, pattern) -> dict:
    doc = {"kind": "lattice", "n": n, "gamma": gamma, "pattern": pattern}
    return _matrix_like(mid, doc, lattice_matrix(n, gamma, pattern))


def schroedinger_model(mid, half_width, npoints, v_real, v_imag) -> dict:
    """v_real/v_imag are (model text, numpy function) pairs."""
    doc = {"kind": "schroedinger", "grid": {"L": half_width, "N": npoints},
           "V_real": v_real[0], "V_imag": v_imag[0]}
    h = schroedinger_matrix(half_width, npoints, v_real[1], v_imag[1])
    return _matrix_like(mid, doc, h)


def pt_model(mid, rng, dim) -> dict:
    h = pt_matrix(rng, dim)
    return _matrix_like(mid, {"kind": "matrix", "data": _matrix_data(h)}, h)


def family_model(mid, rng, half_width, npoints, explicit: bool) -> dict:
    """Gaussian-bump ansatz sigma = 1 + a exp(-x^2/s), alpha = b x exp(-x^2/t).

    sigma > 0 everywhere, so the inverse map is regular and the +1 branch
    recovers (sigma, alpha).  With ``explicit`` the document carries S and
    Lambda written out from the forward map.
    """
    a, b = round(rng.uniform(0.2, 0.7), 4), round(rng.uniform(0.4, 1.2), 4)
    s, t = round(rng.uniform(1.0, 3.0), 4), round(rng.uniform(0.5, 2.0), 4)
    omega = round(rng.uniform(0.0, 1.0), 4)
    sigma_txt = f"(1+{_num(a)}*exp(-x^2/{_num(s)}))"
    alpha_txt = f"({_num(b)}*x*exp(-x^2/{_num(t)}))"
    doc = {"kind": "family", "grid": {"L": half_width, "N": npoints},
           "sigma": sigma_txt, "alpha": alpha_txt, "omega": omega}
    if explicit:
        doc["S"] = f"{sigma_txt}^2-{alpha_txt}^2+{_num(omega)}"
        doc["Lambda"] = f"2*{sigma_txt}*{alpha_txt}"

    def oracle(x):
        return 1 + a * np.exp(-x ** 2 / s), b * x * np.exp(-x ** 2 / t)
    return _family_record(mid, doc, oracle)


def _family_record(mid, doc, oracle) -> dict:
    """Family record with oracle samples of sigma, alpha, S and Lambda."""
    x = grid_points(doc["grid"]["L"], doc["grid"]["N"])
    sig, alp = oracle(x)
    s_even = sig ** 2 - alp ** 2 + doc["omega"]
    lam_odd = 2 * sig * alp
    return {"id": mid, "doc": doc, "kind": "family", "expect": 0,
            "oracle": {"sigma": sig.tolist(), "alpha": alp.tolist(),
                       "S": s_even.tolist(), "Lambda": lam_odd.tolist()}}


def readme_family(mid, npoints) -> dict:
    """The README ansatz: sigma = 1 + 0.5 exp(-x^2), alpha = x exp(-x^2)."""
    doc = {"kind": "family", "grid": {"L": 4, "N": npoints},
           "sigma": "1+0.5*exp(-x^2)", "alpha": "x*exp(-x^2)", "omega": 0.7}
    return _family_record(
        mid, doc, lambda x: (1 + 0.5 * np.exp(-x ** 2), x * np.exp(-x ** 2)))


ZERO = ("0", lambda x: np.zeros_like(x))
HARMONIC = ("x^2", lambda x: x ** 2)
CUBIC = ("0.1*x^3", lambda x: 0.1 * x ** 3)


# ---------------------------------------------------------------------------
# workloads: models plus the calls made on them

def _call(model: dict, argv: list) -> dict:
    """One CLI call, expected to exit with the model's expected code."""
    return {"model": model["id"], "argv": argv, "expect": model["expect"]}


def battery_dense(rng) -> tuple[list, list]:
    n = 250
    models = [
        lattice_model("lattice-endpoints", n,
                      unbroken_gamma(rng, n, "endpoints"), "endpoints"),
        lattice_model("lattice-alternating", n,
                      unbroken_gamma(rng, n, "alternating"), "alternating"),
        lattice_model("lattice-alternating-broken", n,
                      round(rng.uniform(3.0, 6.0) * alternating_threshold(n),
                            12), "alternating"),
        schroedinger_model("schroedinger-pt", 2, 301, ZERO, CUBIC),
        # README harmonic model: Hermitian, so every task must pass
        schroedinger_model("schroedinger-harmonic", 8, 301, HARMONIC, ZERO),
        # broken phase: exit 1 with finite rows only
        schroedinger_model("schroedinger-broken", 8, 201, ZERO, CUBIC),
        pt_model("matrix-pt-a", rng, int(rng.integers(64, 97))),
        pt_model("matrix-pt-b", rng, int(rng.integers(64, 97))),
    ]
    return models, [_call(m, ["report"]) for m in models]


def family_refine(rng) -> tuple[list, list]:
    models = [readme_family("family-readme", 1201),
              family_model("family-explicit", rng, 5, 801, explicit=True)]
    calls = []
    for m in models:
        calls.append(_call(m, ["report"]))
        calls.append(_call(m, ["family", "check", "--refine", "2"]))
    return models, calls


def single_task_small(rng) -> tuple[list, list]:
    models, calls = [], []
    for k in range(16):
        n = int(rng.integers(2, 17))
        models.append(lattice_model(f"lattice-endpoints-{k}", n,
                                    unbroken_gamma(rng, n, "endpoints"),
                                    "endpoints"))
        n = 2 * int(rng.integers(1, 9))
        models.append(lattice_model(f"lattice-alternating-{k}", n,
                                    unbroken_gamma(rng, n, "alternating"),
                                    "alternating"))
        models.append(pt_model(f"matrix-pt-{k}", rng,
                               int(rng.integers(2, 17))))
    for m in models:
        for task in ("spectrum", "metric", "evolve", "table"):
            calls.append(_call(m, [task]))
    for k in range(12):
        m = family_model(f"family-{k}", rng, 4, 101, explicit=k % 2 == 1)
        models.append(m)
        for sub in ("forward", "inverse"):
            calls.append(_call(m, ["family", sub, "--format", "csv"]))
    return models, calls


def warmup_models() -> tuple[list, list]:
    """Tiny models that touch every code path once before timing starts."""
    m = lattice_model("warmup-lattice", 4, 0.3, "endpoints")
    f = readme_family("warmup-family", 21)
    calls = [_call(m, ["report"]), _call(f, ["report"]),
             _call(f, ["family", "check", "--refine", "1"])]
    calls += [_call(m, [task]) for task in ("spectrum", "metric", "evolve",
                                            "table")]
    calls += [_call(f, ["family", sub, "--format", "csv"])
              for sub in ("forward", "inverse")]
    return [m, f], calls


BUILDERS = {"battery-dense": battery_dense, "family-refine": family_refine,
            "single-task-small": single_task_small}
WORKLOADS = tuple(BUILDERS)


def build_plan(workload: str, seed: int) -> dict:
    """Models, timed calls and warm-up calls of one workload at one seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    models, calls = BUILDERS[workload](rng)
    warm_models, warm_calls = warmup_models()
    return {"workload": workload, "seed": seed,
            "models": models + warm_models, "calls": calls,
            "warmup": warm_calls}
