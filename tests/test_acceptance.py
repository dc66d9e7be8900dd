"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).  Golden values come from the
direct-arithmetic oracles documented in the module-level tests."""

import json
import time

import numpy as np
from quasiherm import (discretize_hamiltonian, eigendecompose, hermitize,
                       inverse_family, forward_family, make_ansatz, make_grid,
                       make_triple, norm_traces, parity_matrix, parse_model,
                       propagate, qh_residual, run_scenario, signature,
                       spectral_metric, standard_charge, verify_table,
                       coefficient_match, compatible_split,
                       charge_pg_hermiticity, discretize_charge,
                       ode_pair_residual)
from quasiherm.cli import main

from conftest import document_h, random_diagonalizable

MODEL_2X2 = {"kind": "matrix", "data": [[[0, 0.6], [1, 0]], [[1, 0], [0, -0.6]]]}
MODEL_BROKEN = {"kind": "matrix", "data": [[[0, 1.2], [1, 0]], [[1, 0], [0, -1.2]]]}


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status}: criterion {criterion} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_golden_benchmark():
    start = time.perf_counter()
    h = np.array([[0.6j, 1.0], [1.0, -0.6j]])
    p = parity_matrix(2)
    charge, cand = standard_charge(h, p)
    golden_c = np.array([[0.75j, 1.25], [1.25, -0.75j]])
    golden_t = np.array([[1.25, -0.75j], [0.75j, 1.25]])
    checks = [
        np.abs(charge - golden_c).max() <= 1e-12,
        np.abs(charge @ charge - np.eye(2)).max() <= 1e-12,
        np.abs(cand.theta - golden_t).max() <= 1e-12,
        np.abs(np.linalg.eigvalsh(cand.theta)
               - np.array([0.5, 2.0])).max() <= 1e-12,
    ]
    rows = verify_table(make_triple(p, charge), h)
    residuals = [r.rel_residual for r in rows[:6]]
    checks.append(max(residuals) <= 1e-12)
    elapsed = time.perf_counter() - start
    checks.append(elapsed < 1.0)
    _report(1, all(checks),
            f"(2x2 golden benchmark, {elapsed * 1e3:.0f} ms, "
            f"max table residual {max(residuals):.2e})")


def test_criterion_2_randomized_quasi_hermitian_suite():
    start = time.perf_counter()
    worst_qh = worst_herm = worst_spec = 0.0
    min_separation = np.inf
    for seed in range(100):
        rng = np.random.default_rng(9000 + seed)
        dim = 2 + seed % 11  # dims 2..12
        cond_v = float(10.0 ** rng.uniform(0.0, 2.0))  # cond(V) <= 100
        h, lam, _ = random_diagonalizable(rng, dim, cond_v=cond_v)
        s = eigendecompose(h)
        cand = spectral_metric(s)
        _, rel = qh_residual(h, cand.theta)
        worst_qh = max(worst_qh, rel)

        hm = hermitize(h, cand)
        herm = np.linalg.norm(hm - hm.conj().T) / np.linalg.norm(hm)
        worst_herm = max(worst_herm, herm)
        w = np.sort(np.linalg.eigvalsh(0.5 * (hm + hm.conj().T)))
        worst_spec = max(worst_spec, float(np.abs(w - lam).max()))

        alt = spectral_metric(s, 1.0 + np.arange(dim) / dim)
        separation = np.linalg.norm(alt.theta - cand.theta)
        min_separation = min(min_separation, separation)
        _, rel_alt = qh_residual(h, alt.theta)
        worst_qh = max(worst_qh, rel_alt)
    elapsed = time.perf_counter() - start
    ok = (worst_qh <= 1e-10 and worst_herm <= 1e-10 and worst_spec <= 1e-9
          and min_separation > 1e-6 and elapsed < 10.0)
    _report(2, ok,
            f"(100 seeds dims 2-12: qh {worst_qh:.2e}, herm {worst_herm:.2e},"
            f" spec {worst_spec:.2e}, distinct metrics >= "
            f"{min_separation:.2e}, {elapsed:.2f} s)")


def test_criterion_3_unitarity_demonstration():
    start = time.perf_counter()
    h = np.array([[0.6j, 1.0], [1.0, -0.6j]])
    _, cand = standard_charge(h, parity_matrix(2))
    times = np.linspace(0.0, 20.0, 200)
    traj = propagate(h, [1.0, 0.0], times)
    rows = norm_traces(traj, {"identity": np.eye(2), "theta": cand.theta})
    theta_vals = np.array([v for _, n, v in rows if n == "theta"])
    ident_vals = np.array([v for _, n, v in rows if n == "identity"])
    drift = np.abs(theta_vals - theta_vals[0]).max() / abs(theta_vals[0])
    ratio = ident_vals.max() / ident_vals.min()

    hb = np.array([[1.2j, 1.0], [1.0, -1.2j]])
    traj_b = propagate(hb, [1.0, 0.0], times)
    vals_b = np.array([v for *_, v in norm_traces(traj_b,
                                                  {"identity": np.eye(2)})])
    rate = np.log(vals_b[-1] / vals_b[100]) / (times[-1] - times[100])
    target = 2.0 * np.sqrt(0.44)  # 1.32665 from the characteristic polynomial
    elapsed = time.perf_counter() - start
    ok = (drift <= 1e-9 and ratio > 1.01
          and abs(rate - target) <= 0.01 * target and elapsed < 1.0)
    _report(3, ok, f"(drift {drift:.2e}, fnorm ratio {ratio:.6f}, "
                   f"growth {rate:.5f} vs {target:.5f}, {elapsed * 1e3:.0f} ms)")


def test_criterion_4_discretization_order():
    box = 1.0
    modes = np.array([1, 2, 3])
    exact = (modes * np.pi / (2.0 * box)) ** 2
    errors = {}
    for n in (101, 201, 401):
        # hard walls at +-box: grid extent shrinks so the walls, one
        # spacing beyond the sampled extent, stay fixed under refinement
        extent = box * (n - 1) / (n + 1)
        grid = make_grid(extent, n)
        hmat = discretize_hamiltonian(grid, np.zeros(n))
        s = eigendecompose(hmat, gap_floor=0.0)
        lowest = np.sort(s.eigenvalues.real)[:3]
        errors[n] = np.abs(lowest - exact)
    ratios = [errors[101][k] / errors[201][k] for k in range(3)]
    ratios += [errors[201][k] / errors[401][k] for k in range(3)]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    _report(4, ok, "(box eigenvalue refinement ratios "
            + ", ".join(f"{r:.2f}" for r in ratios) + ")")


def _ansatz_zoo(grid):
    x = grid.points
    zoo = [
        make_ansatz(grid, 1.0 + 0.5 * np.exp(-x ** 2),
                    x * np.exp(-x ** 2), 0.7),
        make_ansatz(grid, np.cosh(x / 4.0), np.sinh(x / 4.0), -0.2),
        make_ansatz(grid, 2.0 + np.cos(np.pi * x / 4.0) ** 2,
                    0.3 * np.sin(np.pi * x / 4.0), 0.0),
        make_ansatz(grid, np.full(grid.npoints, 1.3),
                    np.zeros(grid.npoints), 0.1),
    ]
    return zoo


def test_criterion_5_section_six_algebra():
    grid = make_grid(4.0, 201)
    worst_top = worst_pg_rel = 0.0
    for ansatz in _ansatz_zoo(grid):
        cm = coefficient_match(ansatz, compatible_split(ansatz))
        worst_top = max(worst_top, cm.sup(3), cm.sup(2))
        pc_norm = np.linalg.norm(
            parity_matrix(grid.npoints)
            @ discretize_charge(grid, ansatz.sigma, ansatz.alpha))
        worst_pg_rel = max(worst_pg_rel,
                           charge_pg_hermiticity(ansatz) / pc_norm)

    res = []
    n = 101
    for _ in range(3):
        g = make_grid(4.0, n)
        a = make_ansatz(g, 1.0 + 0.5 * np.exp(-g.points ** 2),
                        g.points * np.exp(-g.points ** 2), 0.7)
        res.append(ode_pair_residual(a, compatible_split(a)))
        n = 2 * n - 1
    ratios = [res[k][i] / res[k + 1][i] for k in (0, 1) for i in (0, 1)]
    ok = (worst_top <= 1e-13 and worst_pg_rel <= 1e-13
          and all(3.5 <= r <= 4.5 for r in ratios))
    _report(5, ok, f"(top-order residual {worst_top:.1e}, PC hermiticity "
                   f"{worst_pg_rel:.1e}, ode ratios "
            + ", ".join(f"{r:.2f}" for r in ratios) + ")")


def test_criterion_6_inverse_roundtrip_with_omega():
    grid = make_grid(4.0, 201)
    worst = 0.0
    for omega in (0.0, 0.7, -0.3):
        for branch in (+1, -1):
            a = make_ansatz(grid, 1.0 + 0.5 * np.exp(-grid.points ** 2),
                            grid.points * np.exp(-grid.points ** 2), omega)
            s_even, lam_odd = forward_family(a)
            rec = inverse_family(s_even, lam_odd, omega, grid, branch=branch)
            mask = np.abs(a.sigma) > 1e-6
            worst = max(worst,
                        np.abs(branch * rec.sigma - a.sigma)[mask].max(),
                        np.abs(branch * rec.alpha - a.alpha)[mask].max())
    # the sign convention must be recorded in the emitted report
    spec = parse_model({"kind": "family", "grid": {"L": 4, "N": 201},
                        "sigma": "1+0.5*exp(-x^2)", "alpha": "x*exp(-x^2)",
                        "omega": 0.7})
    report = run_scenario(spec, "family-inverse")
    convention = {r.name: r.value for r in report.rows}["omega_sign_convention"]
    ok = worst <= 1e-12 and convention == "S_minus_omega" and report.all_passed
    _report(6, ok, f"(roundtrip error {worst:.2e}, convention {convention})")


def test_criterion_7_krein_bookkeeping():
    sig_ok = all(
        signature(parity_matrix(n)) == ((n + 1) // 2, n // 2)
        for n in range(2, 10))
    # indefinite parity composes with the charge into a positive metric
    h = np.array([[0.6j, 1.0], [1.0, -0.6j]])
    _, cand2 = standard_charge(h, parity_matrix(2))
    h5 = document_h({"kind": "lattice", "n": 5, "gamma": 0.5})
    _, cand5 = standard_charge(h5, parity_matrix(5))
    ok = (sig_ok and cand2.positive and cand5.positive
          and signature(parity_matrix(5)) == (3, 2))
    _report(7, ok, f"(signatures ok, theta min eigs {cand2.min_eig:.3f} and "
                   f"{cand5.min_eig:.3f})")


def test_criterion_8_failure_path_contract(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(MODEL_BROKEN))
    code = main(["metric", "--model", str(path)])
    doc = json.loads(capsys.readouterr().out)
    row = doc["rows"][0]
    ok = (code == 1 and row["name"] == "BrokenPhase"
          and row["pass"] is False
          and abs(row["value"] - np.sqrt(0.44)) <= 1e-9)
    with capsys.disabled():
        _report(8, ok, f"(exit {code}, reported max imag {row['value']:.9f})")
