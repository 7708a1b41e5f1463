"""Pairwise energy engine: quadrature, clipping, determinism.

Core claims:
    - request validation rejects out-of-range parameters with typed errors
    - rigid motions produce an exactly zero energy (not merely small)
    - the interior local density of a linear field reproduces its
      directional average norm
    - the energy is monotone in the domain, blind to added spin, and
      invariant under quarter-turn frame rotations
    - totals are bitwise reproducible across reruns and worker counts
    - a pool whose worker died is rebuilt once, then a typed error is raised;
      the default worker count is the CPU affinity of the process
    - the residual variant subtracts the local linearization and accepts
      only p = 1
    - the tensor inner mode converges to the radial-spherical value
    - the compactness bound combines the gradient mass with a tail term
"""

import importlib
import math
import multiprocessing
import os
import signal
from dataclasses import replace

import numpy as np
import pytest

from nldef import (
    ConfigError,
    DimensionError,
    DomainBox,
    DomainError,
    LinearField,
    ModelError,
    MollifierSpec,
    ParameterError,
    PlanarJumpField,
    RigidField,
    SampledField,
    SinField,
    SymMatrix,
    WorkerError,
    make_sphere_rule,
    q_norm,
)

# the package re-exports the energy() function under the submodule's name,
# so the module itself has to come from the import system directly
en = importlib.import_module("nldef.energy")

BOX = DomainBox([0.0, 0.0], [1.0, 1.0])
CBOX = DomainBox([-0.5, -0.5], [0.5, 0.5])
SHELL = MollifierSpec("shell", 0.1, 2)


def _req(**kw):
    base = dict(field=_rigid(), domain=BOX, p=1.0, mollifier=SHELL,
                outer_grid=8, inner_level=4, workers=1)
    base.update(kw)
    return en.EnergyRequest(**base)


def _rigid(d=2):
    spin = np.zeros((d, d))
    if d >= 2:
        spin[0, 1], spin[1, 0] = 0.3, -0.3
    return RigidField(spin, 0.1 * np.arange(d, dtype=float))


def _jump():
    zero = RigidField(np.zeros((2, 2)), np.zeros(2))
    shift = RigidField(np.zeros((2, 2)), np.array([0.0, 1.0]))
    return PlanarJumpField(np.array([1.0, 0.0]), 0.5, zero, shift)


# -- validation --------------------------------------------------------------

def test_request_validation():
    with pytest.raises(ParameterError):
        _req(p=0.5)
    with pytest.raises(ParameterError):
        _req(trunc_tol=0.0)
    with pytest.raises(ParameterError):
        _req(trunc_tol=0.02)
    with pytest.raises(ParameterError):
        _req(outer_grid=1)
    with pytest.raises(ParameterError):
        _req(inner_level=0)
    with pytest.raises(ParameterError):
        _req(inner_mode="simpson")
    with pytest.raises(DimensionError):
        _req(domain=DomainBox([0.0] * 3, [1.0] * 3))


@pytest.mark.parametrize("kw", [
    {"p": True},
    {"outer_grid": 8.5},
    {"outer_grid": True},
    {"inner_level": 4.0},
    {"inner_level": True},
])
def test_request_rejects_bools_and_fractional_sizes(kw):
    with pytest.raises(ParameterError):
        _req(**kw)


def test_pairwise_total():
    assert en.pairwise_total([]) == 0.0
    assert en.pairwise_total([3.5]) == 3.5
    rng = np.random.default_rng(0)
    v = rng.standard_normal(10001)
    assert abs(en.pairwise_total(v) - math.fsum(v)) < 1e-12


# -- exact kernel ------------------------------------------------------------

def test_rigid_energy_exact_zero():
    for fam, eps in (("shell", 0.2), ("scaled_bump", 0.1), ("gaussian", 0.05)):
        for p in (1.0, 2.0):
            res = en.energy(_req(mollifier=MollifierSpec(fam, eps, 2), p=p))
            assert res.value == 0.0
            assert res.est_quadrature_error == 0.0
            assert res.truncation_radius > 0.0
            assert res.samples_outer == 64
            assert res.samples_inner > 0
            assert res.elapsed >= 0.0


def test_rigid_energy_exact_zero_3d():
    spin = np.array([[0.0, 0.4, -0.2], [-0.4, 0.0, 0.1], [0.2, -0.1, 0.0]])
    f = RigidField(spin, np.array([1.0, -1.0, 0.5]))
    res = en.energy(en.EnergyRequest(
        field=f, domain=DomainBox([0.0] * 3, [1.0] * 3), p=1.0,
        mollifier=MollifierSpec("shell", 0.1, 3), outer_grid=4,
        inner_level=2, workers=1))
    assert res.value == 0.0


def test_empty_domain():
    res = en.energy(_req(domain=BOX.erode(0.75)))
    assert res.value == 0.0
    assert res.samples_outer == 0


# -- local density -----------------------------------------------------------

def test_local_density_identity_interior():
    req = _req(field=LinearField(np.eye(2), np.zeros(2)),
               mollifier=MollifierSpec("shell", 0.05, 2), inner_level=32)
    ld = en.local_density(req, np.array([0.5, 0.5]))
    assert abs(ld - 1.0) < 1e-9


def test_local_density_general_matrix():
    a = np.array([[1.0, 2.0], [0.5, -0.3]])
    req = _req(field=LinearField(a, np.zeros(2)),
               mollifier=MollifierSpec("shell", 0.05, 2), inner_level=32)
    ld = en.local_density(req, np.array([0.5, 0.5]))
    want = q_norm(SymMatrix(0.5 * (a + a.T)), 1.0, make_sphere_rule(2, 4096))
    assert abs(ld - want) < 1e-3


def test_local_density_outside_domain():
    with pytest.raises(DomainError):
        en.local_density(_req(), np.array([1.5, 0.5]))


# -- structural invariances --------------------------------------------------

def test_energy_monotone_in_domain():
    lin = LinearField(np.diag([1.0, -1.0]), np.zeros(2))
    small = en.energy(_req(field=lin, domain=DomainBox([0.25, 0.25], [0.75, 0.75]),
                           outer_grid=8, inner_level=16)).value
    big = en.energy(_req(field=lin, outer_grid=16, inner_level=16)).value
    assert 0.0 < small <= big + 1e-12


def test_energy_ignores_added_spin():
    a = np.array([[1.0, 2.0], [0.5, -0.3]])
    w = np.array([[0.0, 0.7], [-0.7, 0.0]])
    e1 = en.energy(_req(field=LinearField(a, np.zeros(2)), inner_level=16)).value
    e2 = en.energy(_req(field=LinearField(a + w, np.zeros(2)), inner_level=16)).value
    assert abs(e1 - e2) <= 1e-12 * abs(e1)


def test_energy_quarter_turn_invariance():
    a = np.array([[1.0, 2.0], [0.5, -0.3]])
    r = np.array([[0.0, -1.0], [1.0, 0.0]])
    for p in (1.0, 2.0):
        e1 = en.energy(_req(field=LinearField(a, np.zeros(2)), domain=CBOX,
                            mollifier=MollifierSpec("scaled_bump", 0.1, 2),
                            p=p, outer_grid=16, inner_level=32)).value
        e2 = en.energy(_req(field=LinearField(r @ a @ r.T, np.zeros(2)), domain=CBOX,
                            mollifier=MollifierSpec("scaled_bump", 0.1, 2),
                            p=p, outer_grid=16, inner_level=32)).value
        assert abs(e1 - e2) <= 1e-12 * abs(e1)


# -- determinism -------------------------------------------------------------

def test_rerun_bitwise_identical():
    req = _req(field=_jump(), outer_grid=32, inner_level=16)
    r1 = en.energy(req)
    r2 = en.energy(req)
    assert r1.value == r2.value
    assert r1.est_quadrature_error == r2.est_quadrature_error


def test_worker_count_does_not_change_totals():
    # the fine pass splits into several fixed tiles at this size, so the
    # multi-process path exercises real tile assembly
    base = dict(field=_jump(), domain=BOX, p=1.0, mollifier=SHELL,
                outer_grid=128, inner_level=16)
    serial = en.energy(en.EnergyRequest(**base, workers=1))
    pooled = en.energy(en.EnergyRequest(**base, workers=2))
    assert serial.value == pooled.value
    assert serial.est_quadrature_error == pooled.est_quadrature_error


def test_sin_residual_bitwise_across_reruns_and_workers():
    sin = SinField(np.array([0.3, 0.2]), np.array([[3.0, 1.0], [1.0, 2.0]]))
    base = dict(field=sin, domain=BOX, p=1.0, mollifier=SHELL,
                outer_grid=128, inner_level=16)
    first = en.residual_energy(en.EnergyRequest(**base, workers=1))
    rerun = en.residual_energy(en.EnergyRequest(**base, workers=1))
    pooled = en.residual_energy(en.EnergyRequest(**base, workers=2))
    for res in (rerun, pooled):
        assert res.value == first.value
        assert res.est_quadrature_error == first.est_quadrature_error


def _pooled_req():
    # 4 tiles at the fine level, so workers=2 goes through the pool
    return en.EnergyRequest(field=_jump(), domain=BOX, p=1.0, mollifier=SHELL,
                            outer_grid=128, inner_level=16, workers=2)


def test_killed_pool_worker_is_replaced():
    en._shutdown_pools()
    for child in multiprocessing.active_children():
        child.join(timeout=30)
    first = en.energy(_pooled_req())
    workers = multiprocessing.active_children()
    assert len(workers) == 2
    os.kill(workers[0].pid, signal.SIGKILL)
    workers[0].join(timeout=30)
    assert not workers[0].is_alive()
    again = en.energy(_pooled_req())
    assert again.value == first.value
    assert again.est_quadrature_error == first.est_quadrature_error


_PARENT_PID = os.getpid()
_TILE_MASSES = en._tile_masses


def _die_in_worker(*args):
    if os.getpid() != _PARENT_PID:
        os._exit(1)
    return _TILE_MASSES(*args)


def test_pool_that_keeps_dying_raises_worker_error(monkeypatch):
    monkeypatch.setattr(en, "_tile_masses", _die_in_worker)
    with pytest.raises(WorkerError):
        en.energy(_pooled_req())
    assert 2 not in en._POOLS  # no broken pool stays cached
    monkeypatch.undo()
    assert en.energy(_pooled_req()).value > 0.0


def test_default_workers_follow_cpu_affinity(monkeypatch):
    monkeypatch.delenv("NLD_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert en._resolve_workers(None) == 1
    assert en._resolve_workers(2) == 2  # an explicit count is kept
    res = en.energy(replace(_pooled_req(), workers=None))
    assert res.value == en.energy(_pooled_req()).value
    monkeypatch.delattr(os, "sched_getaffinity")
    assert en._resolve_workers(None) == (os.cpu_count() or 1)


def test_thread_env_override(monkeypatch):
    monkeypatch.setenv("NLD_THREADS", "3")
    assert en._resolve_workers(None) == 3
    assert en._resolve_workers(2) == 2
    monkeypatch.setenv("NLD_THREADS", "zero")
    with pytest.raises(ConfigError):
        en._resolve_workers(None)
    monkeypatch.setenv("NLD_THREADS", "0")
    with pytest.raises(ConfigError):
        en._resolve_workers(None)
    monkeypatch.delenv("NLD_THREADS")
    assert en._resolve_workers(None) >= 1


# -- residual variant --------------------------------------------------------

def test_residual_requires_p1():
    with pytest.raises(ParameterError):
        en.residual_energy(_req(p=2.0))


def test_residual_rejects_sampled():
    samp = SampledField(np.zeros(2), np.ones(2), np.zeros((3, 3, 2)))
    with pytest.raises(ModelError):
        en.residual_energy(_req(field=samp))


def test_residual_rigid_and_linear_vanish():
    assert en.residual_energy(_req(inner_level=8)).value == 0.0
    lin = LinearField(np.array([[1.0, 2.0], [0.5, -0.3]]), np.zeros(2))
    res = en.residual_energy(_req(field=lin, inner_level=16))
    assert abs(res.value) <= 1e-12


def test_residual_equals_energy_for_pure_jump():
    # rigid sides have zero symmetric gradient, so subtracting it changes
    # nothing at all
    req = _req(field=_jump(), outer_grid=32, inner_level=8)
    assert en.residual_energy(req).value == en.energy(req).value


# -- inner modes -------------------------------------------------------------

def test_tensor_mode_converges_to_radial():
    lin = LinearField(np.diag([1.0, -1.0]), np.zeros(2))
    moll = MollifierSpec("scaled_bump", 0.1, 2)
    ref = en.energy(_req(field=lin, mollifier=moll, outer_grid=16,
                         inner_mode="radial_spherical", inner_level=32)).value
    coarse = en.energy(_req(field=lin, mollifier=moll, outer_grid=16,
                            inner_mode="tensor", inner_level=12)).value
    fine = en.energy(_req(field=lin, mollifier=moll, outer_grid=16,
                          inner_mode="tensor", inner_level=24)).value
    assert abs(fine - ref) / ref < 0.02
    assert abs(fine - ref) < abs(coarse - ref)


# -- compactness bound -------------------------------------------------------

def test_upper_bound_values():
    lin = LinearField(np.eye(2), np.zeros(2))
    got = en.upper_bound_rhs(lin, BOX, 0.25, 1.0, SHELL)
    # gradient term only: the shell has no mass beyond its scale
    assert abs(got - 2.25) < 1e-9
    assert en.upper_bound_rhs(_rigid(), BOX, 0.25, 1.0, SHELL) == 0.0


def test_upper_bound_gaussian_adds_tail():
    lin = LinearField(np.eye(2), np.zeros(2))
    gauss = MollifierSpec("gaussian", 0.1, 2)
    compact = en.upper_bound_rhs(lin, BOX, 0.5, 1.0, SHELL)
    tailed = en.upper_bound_rhs(lin, BOX, 0.5, 1.0, gauss)
    assert tailed > compact


def test_upper_bound_model_errors():
    with pytest.raises(ModelError):
        en.upper_bound_rhs(_jump(), BOX, 0.25, 1.0, SHELL)
    samp = SampledField(np.zeros(2), np.ones(2), np.zeros((3, 3, 2)))
    with pytest.raises(ModelError):
        en.upper_bound_rhs(samp, BOX, 0.25, 1.0, SHELL)
