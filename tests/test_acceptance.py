"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and enforces a wall-clock budget.  Tolerances and seeds are
frozen; loosening them is not an option when a check fails.
"""

import time

import numpy as np
import pytest

from conftest import (
    random_full_rank,
    random_povm,
    random_pure,
    random_rank_one_povm,
    random_two_copy_povm,
)
from fisym.designs import mub_state_set, sic_d3, sic_qubit
from fisym.fisher import (
    fisher_fd_oracle,
    fisher_matrix,
    fisher_symmetry_check,
    gm_check,
    gm_value,
)
from fisym.matcore import kron, swap_operator
from fisym.povm import (
    classify_coherent,
    collective_sic_qubit,
    great_circle_qubit,
    minimal_tight_coherent_d3,
    tight_coherent_check,
    validate_povm,
)
from fisym.states import (
    AffineMixed,
    BlochQubit,
    PureCanonical,
    PureState,
    qfi_matrix,
    tangent_ops,
)
from fisym.tomosim import SimConfig, asymptotic_metrics, run_simulation, scheme_povm


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def budget(num: int, start: float, limit: float) -> None:
    elapsed = time.monotonic() - start
    assert elapsed < limit, (
        f"criterion {num} took {elapsed:.1f} s, budget {limit:.0f} s")


def bloch_pure(theta: float, phi: float) -> PureState:
    return PureState(np.array([np.cos(theta / 2),
                               np.exp(1j * phi) * np.sin(theta / 2)]))


def test_criterion_01_sic_overlap_law():
    start = time.monotonic()
    worst = 0.0
    sets = [(sic_qubit(), 2)]
    for phi in (0.0, np.pi / 18.0, np.pi / 9.0):
        sets.append((sic_d3(phi), 3))
    for des, d in sets:
        g = np.abs(des.vectors.conj() @ des.vectors.T) ** 2
        law = (d * np.eye(des.size) + 1.0) / (d + 1.0)
        worst = max(worst, float(np.abs(g - law).max()))
    ok = worst < 1e-12
    report(1, ok, f"overlap-law residual {worst:.2e} (tol 1e-12)")
    assert ok
    budget(1, start, 1.0)


def test_criterion_02_two_copy_design_information():
    start = time.monotonic()
    rng = np.random.default_rng(20202)
    worst_an = 0.0
    worst_fd = 0.0
    from fisym.povm import twocopy_design_povm

    for design, d in ((sic_qubit(), 2), (mub_state_set(2), 2),
                      (sic_d3(0.0), 3)):
        p = twocopy_design_povm(design)
        target_dim = 2 * d - 2
        for _ in range(50):
            par = PureCanonical(random_pure(rng, d))
            i_an = fisher_matrix(par, p)
            worst_an = max(worst_an, float(
                np.abs(i_an - 4.0 * np.eye(target_dim)).max()))
            i_fd = fisher_fd_oracle(par, p)
            worst_fd = max(worst_fd, float(np.abs(i_an - i_fd).max()))
    ok = worst_an < 1e-9 and worst_fd < 1e-6
    report(2, ok, f"analytic residual {worst_an:.2e} (tol 1e-9), "
                  f"fd residual {worst_fd:.2e} (tol 1e-6)")
    assert ok
    budget(2, start, 10.0)


def test_criterion_03_single_copy_information_bound():
    start = time.monotonic()
    rng = np.random.default_rng(30303)
    worst_eq = 0.0
    for k in range(500):
        d = 2 if k % 2 == 0 else 3
        p = random_rank_one_povm(rng, d, d + int(rng.integers(1, 4)))
        par = AffineMixed(random_full_rank(rng, d))
        value = gm_value(qfi_matrix(par.base(), par.tangents()),
                         fisher_matrix(par, p))
        worst_eq = max(worst_eq, abs(value - (d - 1)))
    min_deficit = np.inf
    for k in range(500):
        d = 2 if k % 2 == 0 else 3
        p = random_povm(rng, d, d + int(rng.integers(1, 4)))
        par = AffineMixed(random_full_rank(rng, d))
        value = gm_value(qfi_matrix(par.base(), par.tangents()),
                         fisher_matrix(par, p))
        min_deficit = min(min_deficit, (d - 1) - value)
    ok = worst_eq < 1e-8 and min_deficit > 1e-10
    report(3, ok, f"rank-one saturation residual {worst_eq:.2e} (tol 1e-8), "
                  f"smallest strict deficit {min_deficit:.2e} (> 1e-10)")
    assert ok
    budget(3, start, 60.0)


def test_criterion_04_two_copy_information_bound():
    start = time.monotonic()
    rng = np.random.default_rng(40404)
    worst_excess = -np.inf
    near_saturation = 0
    for k in range(600):
        d = 2 if k < 500 else 3
        p = random_two_copy_povm(rng, d, d * d + int(rng.integers(0, 3)))
        par = AffineMixed(random_full_rank(rng, d))
        value = gm_value(qfi_matrix(par.base(), par.tangents()),
                         fisher_matrix(par, p))
        excess = value - (3 * d - 3)
        worst_excess = max(worst_excess, excess)
        if excess > -1e-8:
            # saturation by accident must come with coherent structure
            near_saturation += 1
            assert classify_coherent(p).coherent
    fixtures = [(collective_sic_qubit(), 2), (minimal_tight_coherent_d3(), 3)]
    worst_fixture = 0.0
    for p, d in fixtures:
        assert classify_coherent(p).coherent
        par = AffineMixed(random_full_rank(rng, d))
        value = gm_value(qfi_matrix(par.base(), par.tangents()),
                         fisher_matrix(par, p))
        worst_fixture = max(worst_fixture, abs(value - (3 * d - 3)))
    ok = worst_excess <= 1e-6 and worst_fixture < 1e-8
    report(4, ok, f"largest random excess {worst_excess:.2e} (tol 1e-6), "
                  f"coherent saturation residual {worst_fixture:.2e}, "
                  f"accidental saturations {near_saturation}")
    assert ok
    budget(4, start, 300.0)


def test_criterion_05_collective_sic_information():
    start = time.monotonic()
    rng = np.random.default_rng(50505)
    p = collective_sic_qubit()
    worst = 0.0
    for _ in range(100):
        s = rng.normal(size=3)
        s *= rng.uniform(0.0, 0.95) / max(np.linalg.norm(s), 1e-12)
        par = BlochQubit(s)
        i_mat = fisher_matrix(par, p)
        target = np.eye(3) + np.outer(s, s) / (1.0 - float(s @ s))
        worst = max(worst, float(np.abs(i_mat - target).max()))
    worst_metric = 0.0
    for s in (0.0, 0.3, 0.6, 0.9):
        par = BlochQubit([s, 0.0, 0.0])
        mse = asymptotic_metrics(par, p, "hs")
        msb = asymptotic_metrics(par, p, "msb")
        worst_metric = max(worst_metric, abs(mse - (3.0 - s * s)),
                           abs(msb - 1.5))
    ok = worst < 1e-9 and worst_metric < 1e-9
    report(5, ok, f"matrix residual {worst:.2e}, metric residual "
                  f"{worst_metric:.2e} (tol 1e-9)")
    assert ok
    budget(5, start, 5.0)


def test_criterion_06_minimal_tight_coherent_d3():
    start = time.monotonic()
    p = minimal_tight_coherent_d3()
    vr = validate_povm(p)
    rep = tight_coherent_check(p)
    size_ok = p.size == 18
    completeness_ok = vr.completeness_residual <= 1e-9 and vr.psd_violation <= 1e-9
    purity_ok = abs(rep.q_certificate.purity - 5.0 / 6.0) < 1e-9
    slack_ok = rep.q_certificate.slack <= 1e-8
    gsic_ok = (rep.antisym_gsic is not None and rep.antisym_gsic.is_gsic
               and abs(rep.antisym_gsic.purity - 0.5) < 1e-9)
    ok = size_ok and completeness_ok and purity_ok and slack_ok and gsic_ok and rep.ok
    report(6, ok, f"elements {p.size}, completeness "
                  f"{vr.completeness_residual:.2e}, marginal purity "
                  f"{rep.q_certificate.purity:.12f} (target 5/6), design slack "
                  f"{rep.q_certificate.slack:.2e}, antisym gsic purity "
                  f"{rep.antisym_gsic.purity:.6f}")
    assert ok
    budget(6, start, 5.0)


@pytest.mark.slow
def test_criterion_07_monte_carlo_efficiencies():
    start = time.monotonic()
    checks = []
    for s in (0.0, 0.5, 0.9):
        r = run_simulation(SimConfig(
            scheme="collective-sic", bloch=(s, 0.0, 0.0),
            n_copies=10_000, n_trials=2000, seed=42))
        checks.append((f"collective mse s={s}", r.scaled_mse, 3.0 - s * s))
        checks.append((f"collective msb s={s}", r.scaled_msb, 1.5))
    r = run_simulation(SimConfig(
        scheme="sic-single", bloch=(0.0, 0.0, 0.0),
        n_copies=10_000, n_trials=2000, seed=42))
    checks.append(("single-sic msb s=0", r.scaled_msb, 2.25))
    rel = [(name, abs(value / target - 1.0)) for name, value, target in checks]
    worst_name, worst_rel = max(rel, key=lambda x: x[1])
    ok = worst_rel < 0.05
    report(7, ok, f"worst relative deviation {worst_rel:.4f} at "
                  f"{worst_name} (tol 0.05)")
    assert ok
    budget(7, start, 600.0)


def test_criterion_08_single_copy_witness():
    start = time.monotonic()
    p = scheme_povm("sic-single")
    # pure state antipodal to the first SIC direction
    r = 1.0 / np.sqrt(3.0)
    s = -np.array([r, r, r])
    theta = np.arccos(s[2])
    phi = np.arctan2(s[1], s[0])
    par = PureCanonical(bloch_pure(theta, phi))
    verdict = gm_check(par, p)
    ok = verdict.value <= 1.0 - 0.01
    report(8, ok, f"information ratio {verdict.value:.6f} <= 0.99 "
                  f"(bound {verdict.bound})")
    assert ok
    budget(8, start, 1.0)


def test_criterion_09_great_circle_symmetry_set():
    start = time.monotonic()
    p = great_circle_qubit()
    worst_on = 0.0
    equator = [0.15 + k * (2 * np.pi - 0.3) / 19 for k in range(20)]
    for phi in equator:
        rep = fisher_symmetry_check(PureCanonical(bloch_pure(np.pi / 2, phi)), p)
        worst_on = max(worst_on, rep.full_residual)
        assert rep.verdict == "fisher-symmetric"
    thetas = [0.15 + k * (np.pi - 0.3) / 9 for k in range(10)]
    for phi in (np.pi / 2, 3 * np.pi / 2):
        for theta in thetas:
            rep = fisher_symmetry_check(PureCanonical(bloch_pure(theta, phi)), p)
            worst_on = max(worst_on, rep.full_residual)
            assert rep.verdict == "fisher-symmetric"
    min_off = np.inf
    for k in range(20):
        theta = 0.3 + 0.05 * k
        phi = 0.25 + 0.06 * k
        rep = fisher_symmetry_check(PureCanonical(bloch_pure(theta, phi)), p)
        min_off = min(min_off, rep.weak_residual)
        assert rep.verdict == "not-fisher-symmetric"
    ok = worst_on <= 1e-9
    report(9, ok, f"on-circle residual {worst_on:.2e} (tol 1e-9), smallest "
                  f"off-circle weak residual {min_off:.2e}")
    assert ok
    budget(9, start, 5.0)


def test_criterion_10_inverse_information_operator_identity():
    start = time.monotonic()
    rng = np.random.default_rng(101010)
    worst = 0.0
    for d in (2, 3):
        v = swap_operator(d)
        eye = np.eye(d)
        for kind in ("full-rank", "pure"):
            for _ in range(50):
                if kind == "full-rank":
                    par = AffineMixed(random_full_rank(rng, d))
                else:
                    par = PureCanonical(random_pure(rng, d))
                rho = par.base().matrix
                tans = tangent_ops(par)
                j = qfi_matrix(par.base(), tans)
                jinv = np.linalg.inv(j)
                lhs = np.zeros((d * d, d * d), dtype=complex)
                for a, ta in enumerate(tans):
                    for b, tb in enumerate(tans):
                        lhs += jinv[a, b] * kron(ta, tb)
                rhs = 0.5 * v @ (kron(rho, eye) + kron(eye, rho)) - kron(rho, rho)
                worst = max(worst, float(np.abs(lhs - rhs).max()))
    ok = worst < 1e-8
    report(10, ok, f"operator-identity residual {worst:.2e} (tol 1e-8)")
    assert ok
    budget(10, start, 30.0)
