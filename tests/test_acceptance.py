"""Acceptance gate: one test per shipped guarantee.

Each test prints a single `[criterion NN] PASS/FAIL` line with the
measured quantity next to its tolerance, then asserts it.

Core claims:
    01  rigid motions: the energy is bitwise zero, never merely small
    02  the four Q-norm evaluation paths agree to oracle precision
    03  p = 2 sweeps extrapolate to the symmetric-gradient integral
    04  p = 1 sweeps extrapolate to the absolutely continuous mass
    05  jump sweeps extrapolate to the a (.) nu interface values
    06  the residual functional isolates the singular part
    07  the local-density integral stays below the compactness bound
    08  mollified fields never beat the widened-domain energy
    09  density measures pair against the dictionary within gap budget
    10  totals are deterministic across reruns and worker counts, and
        scale with workers when the hardware provides them
"""

import importlib
import math
import os
import time

import numpy as np

from nldef import (
    DomainBox,
    MollifierSpec,
    PlanarJumpField,
    RigidField,
    SinField,
    SymMatrix,
    TestFunction,
    ground_truth,
    make_sphere_rule,
    mollify,
    q_norm,
    q_norm_eigen,
    q1_trace_psd,
    q2_closed,
)

en = importlib.import_module("nldef.energy")
me = importlib.import_module("nldef.measures")
lab = importlib.import_module("nldef.lab")

OMEGA = DomainBox([0.0, 0.0], [1.0, 1.0])
EPS_SCHEDULE = [0.2, 0.1, 0.05, 0.025]


def _line(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def _sweep_cfg(field_cfg, p, **overrides):
    raw = {
        "schema": 1,
        "dim": 2,
        "field": field_cfg,
        "domain": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "p": p,
        "mollifier": {"family": "shell"},
        "eps": EPS_SCHEDULE,
        "inner": {"level": 16},
        "workers": 1,
    }
    raw.update(overrides)
    return lab.SweepConfig.from_dict(raw)


def _jump_cfg(a):
    return {
        "id": "planar_jump",
        "params": {
            "normal": [1.0, 0.0],
            "offset": 0.5,
            "minus": {"id": "rigid", "params": {"spin": [[0.0, 0.0], [0.0, 0.0]]}},
            "plus": {"id": "rigid", "params": {"spin": [[0.0, 0.0], [0.0, 0.0]],
                                               "shift": list(a)}},
        },
    }


SIN_CFG = {"id": "sin", "params": {"amplitude": [0.3, 0.2],
                                   "waves": [[3.0, 1.0], [1.0, 2.0]]}}


def test_criterion_01_rigid_kernel():
    rng = np.random.default_rng(11)
    bad = 0
    runs = 0
    for d, n_outer in ((2, 8), (3, 4)):
        box = DomainBox([0.0] * d, [1.0] * d)
        for _ in range(20):
            m = rng.standard_normal((d, d))
            field = RigidField(m - m.T, rng.standard_normal(d))
            for eps in (0.2, 0.1, 0.05):
                for p in (1.0, 2.0):
                    res = en.energy(en.EnergyRequest(
                        field=field, domain=box, p=p,
                        mollifier=MollifierSpec("shell", eps, d),
                        outer_grid=n_outer, inner_level=2, workers=1))
                    runs += 1
                    if res.value != 0.0:
                        bad += 1
    ok = bad == 0
    _line(1, ok, f"{runs - bad}/{runs} evaluations bitwise zero")
    assert ok, f"{bad} rigid evaluations were not exactly zero"


def test_criterion_02_qnorm_oracles():
    rng = np.random.default_rng(22)
    rules = {2: make_sphere_rule(2, 64), 3: make_sphere_rule(3, 24)}
    fine = {2: make_sphere_rule(2, 256), 3: make_sphere_rule(3, 32)}
    worst_pair = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 4))
        p = float(rng.integers(1, 4))
        m = rng.standard_normal((d, d))
        a = SymMatrix((m + m.T) / 2.0)
        v1 = q_norm(a, p, rules[d])
        v2 = q_norm_eigen(a, p, rules[d])
        worst_pair = max(worst_pair, abs(v1 - v2) / max(abs(v1), 1e-300))
    worst_closed = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 4))
        m = rng.standard_normal((d, d))
        psd = SymMatrix(m @ m.T)
        worst_closed = max(worst_closed, abs(
            q1_trace_psd(psd) - q_norm(psd, 1.0, fine[d])) / q_norm(psd, 1.0, fine[d]))
        gen = SymMatrix((m + m.T) / 2.0)
        worst_closed = max(worst_closed, abs(
            q2_closed(gen) - q_norm(gen, 2.0, fine[d])) / q_norm(gen, 2.0, fine[d]))
    ok = worst_pair <= 1e-10 and worst_closed <= 1e-9
    _line(2, ok, f"eigen path rel {worst_pair:.2e} <= 1e-10, "
                 f"closed forms rel {worst_closed:.2e} <= 1e-9")
    assert ok


def test_criterion_03_limit_exists_p2():
    cfg = _sweep_cfg({"id": "linear", "params": {"matrix": [[1.0, 0.0], [0.0, -1.0]]}}, 2.0)
    rep = lab.run_sweep(cfg)
    err = abs(rep.extrapolated_limit - 0.5)
    ok = err <= 0.01
    _line(3, ok, f"|extrapolated - 0.5| = {err:.2e} <= 0.01")
    assert ok, f"extrapolated {rep.extrapolated_limit} vs 0.5"


def test_criterion_04_ac_limit_p1():
    cfg = _sweep_cfg({"id": "linear", "params": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}}, 1.0)
    rep = lab.run_sweep(cfg)
    err = abs(rep.extrapolated_limit - 1.0)
    ok = err <= 0.01
    _line(4, ok, f"|extrapolated - 1.0| = {err:.2e} <= 0.01")
    assert ok, f"extrapolated {rep.extrapolated_limit} vs 1.0"


def test_criterion_05_singular_limits():
    normal = lab.run_sweep(_sweep_cfg(_jump_cfg([1.0, 0.0]), 1.0, aligned=True))
    tangent = lab.run_sweep(_sweep_cfg(_jump_cfg([0.0, 1.0]), 1.0, aligned=True))
    err_n = abs(normal.extrapolated_limit - 0.5)
    err_t = abs(tangent.extrapolated_limit - 1.0 / math.pi)
    ok = err_n <= 0.02 and err_t <= 0.02
    _line(5, ok, f"normal jump err {err_n:.2e}, tangential err {err_t:.2e}, tol 0.02")
    assert ok, (normal.extrapolated_limit, tangent.extrapolated_limit)


def test_criterion_06_residual_isolates_singular():
    sin_rep = lab.run_sweep(_sweep_cfg(SIN_CFG, 1.0, residual=True))
    sin_field = SinField(np.array([0.3, 0.2]), np.array([[3.0, 1.0], [1.0, 2.0]]))
    eu = ground_truth(sin_field, OMEGA, 1.0, make_sphere_rule(2, 64)).total
    err_sin = abs(sin_rep.extrapolated_limit)
    normal = lab.run_sweep(_sweep_cfg(_jump_cfg([1.0, 0.0]), 1.0, aligned=True,
                                      residual=True))
    tangent = lab.run_sweep(_sweep_cfg(_jump_cfg([0.0, 1.0]), 1.0, aligned=True,
                                       residual=True))
    err_n = abs(normal.extrapolated_limit - 0.5)
    err_t = abs(tangent.extrapolated_limit - 1.0 / math.pi)
    ok = err_sin <= 0.01 * eu and err_n <= 0.02 and err_t <= 0.02
    _line(6, ok, f"sin residual {err_sin:.2e} <= {0.01 * eu:.2e}, "
                 f"jump errs {err_n:.2e}/{err_t:.2e} <= 0.02")
    assert ok, (sin_rep.extrapolated_limit, normal.extrapolated_limit,
                tangent.extrapolated_limit)


def test_criterion_07_compactness_bound():
    sin_field = SinField(np.array([0.3, 0.2]), np.array([[3.0, 1.0], [1.0, 2.0]]))
    violations = 0
    worst = math.inf
    for fam in ("gaussian", "scaled_bump"):
        for eps in (0.05, 0.1):
            for radius in (0.2, 0.4):
                for p in (1.0, 2.0):
                    moll = MollifierSpec(fam, eps, 2)
                    req = en.EnergyRequest(field=sin_field, domain=OMEGA, p=p,
                                           mollifier=moll, outer_grid=96,
                                           inner_level=12, workers=1)
                    pts, masses, est = en.density_masses(req)
                    inner_box = OMEGA.erode(radius)
                    lhs = en.pairwise_total(masses[inner_box.contains(pts)])
                    rhs = en.upper_bound_rhs(sin_field, inner_box, radius, p, moll)
                    if lhs > rhs + 2.0 * est:
                        violations += 1
                    worst = min(worst, (rhs + 2.0 * est) / lhs)
    ok = violations == 0
    _line(7, ok, f"16 combos, 0 violations required, got {violations} "
                 f"(worst rhs/lhs margin {worst:.2f}x)")
    assert ok


def test_criterion_08_mollified_monotonicity():
    zero = RigidField(np.zeros((2, 2)), np.zeros(2))
    shift = RigidField(np.zeros((2, 2)), np.array([0.0, 1.0]))
    jump = PlanarJumpField(np.array([1.0, 0.0]), 0.5, zero, shift)
    sub_box = DomainBox([0.25, 0.25], [0.75, 0.75])
    violations = 0
    tightest = math.inf
    for eta in (0.02, 0.05):
        smoothed = mollify(jump, eta, MollifierSpec("scaled_bump", eta, 2),
                           eta / 12.0, sub_box, angular_level=64, radial_nodes=8)
        for eps in (0.1, 0.05):
            moll = MollifierSpec("shell", eps, 2)
            lhs = en.energy(en.EnergyRequest(field=smoothed, domain=sub_box, p=1.0,
                                             mollifier=moll, outer_grid=64,
                                             inner_level=12, workers=1))
            rhs = en.energy(en.EnergyRequest(field=jump, domain=sub_box.dilate(eta),
                                             p=1.0, mollifier=moll, outer_grid=64,
                                             inner_level=12, workers=1))
            slack = 2.0 * max(lhs.est_quadrature_error, rhs.est_quadrature_error)
            gap = rhs.value + slack - lhs.value
            if gap < 0.0:
                violations += 1
            tightest = min(tightest, gap)
    ok = violations == 0
    _line(8, ok, f"4 combos, 0 violations required, got {violations} "
                 f"(smallest slack {tightest:.3f})")
    assert ok


def test_criterion_09_weakstar_dictionary():
    zero = RigidField(np.zeros((2, 2)), np.zeros(2))
    shift = RigidField(np.zeros((2, 2)), np.array([0.0, 1.0]))
    jump = PlanarJumpField(np.array([1.0, 0.0]), 0.5, zero, shift)
    phis = [
        TestFunction.const_one(),
        TestFunction.tent([0.5, 0.5], 0.25),
        TestFunction.tent([0.15, 0.5], 0.1),
        TestFunction.cosine([1.0, 0.0]),
    ]
    requests = [
        en.EnergyRequest(field=jump, domain=OMEGA, p=1.0,
                         mollifier=MollifierSpec("shell", eps, 2),
                         outer_grid=max(64, math.ceil(8.0 / eps)),
                         inner_level=16, trunc_tol=1e-10, workers=1)
        for eps in EPS_SCHEDULE
    ]
    rows = me.weakstar_gap(requests, phis)
    budget = 0.03 / math.pi
    by_phi = {}
    for r in rows:
        by_phi.setdefault(r["phi"], []).append(r)
    worst_gap = 0.0
    monotone_ok = True
    for seq in by_phi.values():
        worst_gap = max(worst_gap, seq[-1]["gap"])
        inversions = [
            nxt for prev, nxt in zip(seq[-3:], seq[-2:])
            if nxt["gap"] > prev["gap"] + nxt["est_quad_err"]
        ]
        if len(inversions) > 1:
            monotone_ok = False
    ok = worst_gap <= budget and monotone_ok
    _line(9, ok, f"finest gap {worst_gap:.2e} <= {budget:.2e}, "
                 f"last refinements non-increasing: {monotone_ok}")
    assert ok


def _finest_ac_request(workers):
    return en.EnergyRequest(
        field=lab.SweepConfig.from_dict({
            "schema": 1, "dim": 2,
            "field": {"id": "linear", "params": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}},
            "domain": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "p": 1.0, "mollifier": {"family": "shell"}, "eps": [0.025],
        }).field,
        domain=OMEGA, p=1.0, mollifier=MollifierSpec("shell", 0.025, 2),
        outer_grid=320, inner_level=16, workers=workers)


def test_criterion_10_determinism():
    first = en.energy(_finest_ac_request(1))
    rerun = en.energy(_finest_ac_request(1))
    pooled = en.energy(_finest_ac_request(8))
    rel = abs(pooled.value - first.value) / abs(first.value)
    ok = first.value == rerun.value and rel <= 1e-13
    _line(10, ok, f"rerun bitwise: {first.value == rerun.value}, "
                  f"1 vs 8 workers rel {rel:.2e} <= 1e-13")
    assert ok, (first.value, rerun.value, pooled.value)


def test_criterion_10_speedup():
    t0 = time.perf_counter()
    en.energy(_finest_ac_request(1))
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    en.energy(_finest_ac_request(8))
    t_pool = time.perf_counter() - t0
    speedup = t_serial / t_pool
    ok = speedup >= 4.0
    _line(10, ok, f"speedup at 8 workers {speedup:.2f}x >= 4.0x "
                  f"(serial {t_serial:.2f}s, pooled {t_pool:.2f}s, "
                  f"{os.cpu_count()} cpu cores visible)")
    assert ok, (
        f"measured {speedup:.2f}x speedup with 8 workers on a host exposing "
        f"{os.cpu_count()} core(s); the 4x target needs at least 8 physical "
        f"cores, so on this host the threshold is unreachable no matter how "
        f"the tiling is arranged"
    )
