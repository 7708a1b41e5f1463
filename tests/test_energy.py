"""Pairwise energy engine: quadrature, clipping, determinism.

Core claims:
    - request validation rejects out-of-range parameters with typed errors
    - rigid motions produce an exactly zero energy (not merely small)
    - the interior local density of a linear field reproduces its
      directional average norm
    - the energy is monotone in the domain, blind to added spin, and
      invariant under quarter-turn frame rotations
    - totals are bitwise reproducible across reruns and worker counts
    - class calls total their masses on per-axis ranks with the bits of the
      pairwise tree over the per-cell masses
    - the inner weights are positive, so they fold into the node scale, and
      rigid energies stay exactly zero at p = 1, 1.5 and 2
    - a criterion-10 sin tile's traced peak stays within four float64
      blocks of `_BLOCK_PAIRS` pairs, half its (cells x nodes) pair array,
      and a serial criterion-10 call of an oblique jump whose sides'
      matrices differ stays under 8 MiB
    - both inner levels go out in one pool dispatch of min(workers,
      evaluated cells) tasks, each carrying its cells and the per-axis mask
      rows but no per-cell arrays of the grid
    - a pool whose worker died is rebuilt once, then a typed error is raised;
      the default worker count is the CPU affinity of the process
    - the residual variant subtracts the local linearization and accepts
      only p = 1
    - over small requests (Hypothesis): rigid fields give exactly 0, and
      doubling a field multiplies its energy by exactly 2^p
    - the compactness bound combines the gradient mass with a tail term
"""

import importlib
import itertools
import math
import multiprocessing
import os
import pickle
import signal
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nldef import (
    BumpField,
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
fields = importlib.import_module("nldef.fields")

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
        _req(p=math.inf)
    with pytest.raises(ParameterError):
        _req(p=math.nan)
    with pytest.raises(ParameterError):
        _req(trunc_tol=0.0)
    with pytest.raises(ParameterError):
        _req(trunc_tol=0.02)
    with pytest.raises(ParameterError):
        _req(outer_grid=1)
    with pytest.raises(ParameterError):
        _req(inner_level=0)
    with pytest.raises(ParameterError):
        _req(workers=0)
    with pytest.raises(DimensionError):
        _req(domain=DomainBox([0.0] * 3, [1.0] * 3))


def test_request_grid_must_fit_the_int64_cell_index():
    """outer_grid^d < 2^63 is a request rule: the largest grids below it
    pass, the smallest at or above it fail at the key outer_grid."""
    for d, n in ((2, 3_037_000_499), (3, 2_097_151)):
        assert n**d < 2**63 <= (n + 1) ** d
        box = DomainBox([0.0] * d, [1.0] * d)
        req = dict(field=RigidField(np.zeros((d, d)), np.zeros(d)), domain=box,
                   mollifier=MollifierSpec("shell", 0.1, d), p=1.0)
        en.EnergyRequest(**req, outer_grid=n)
        with pytest.raises(ParameterError) as err:
            en.EnergyRequest(**req, outer_grid=n + 1)
        assert err.value.key == "outer_grid"


def test_inner_nodes_keep_the_eps_rule_bound():
    """Every inner node of both levels has |h| >= eps / (2 (level + 2)^2), the
    bound behind the request's eps rule, in every family and dimension. The
    polar rule's smallest radius is the first Gauss node of its first band
    (at least eps/2 wide)."""
    for d, family in itertools.product((1, 2, 3), ("shell", "gaussian", "scaled_bump")):
        for level, tol in itertools.product((1, 2, 3, 5, 16), (1e-2, 1e-10)):
            for k in (level, 2 * level):
                inv_r2 = en._level_nodes(family, 0.1, d, k, tol)[2]
                assert np.all(inv_r2 <= (2 * (level + 2) ** 2 / 0.1) ** 2)


@pytest.mark.parametrize("d, family, tiny", [
    (1, "shell", 1e-300),
    (2, "scaled_bump", 1e-153),
])
def test_request_rejects_an_eps_whose_inner_nodes_overflow(d, family, tiny):
    """A 1-d shell at eps = 1e-300 (|h|^2 underflows to 0) and a 2-d bump at
    eps = 1e-153 (its nodes nearest 0 overflow 1/|h|^2) fail the eps rule at
    the key eps, and pass at eps = 1e-100."""
    req = dict(field=LinearField(np.eye(d), np.zeros(d)), p=1.0, outer_grid=8,
               domain=DomainBox([0.0] * d, [1.0] * d))
    en.EnergyRequest(**req, mollifier=MollifierSpec(family, 1e-100, d))
    with pytest.raises(ParameterError) as err:
        en.EnergyRequest(**req, mollifier=MollifierSpec(family, tiny, d))
    assert err.value.key == "eps"


def test_request_rejects_a_level_without_pairs_in_the_domain():
    """A level, or twice it, none of whose inner nodes keeps x + h in U from
    some outer midpoint would be an empty sum whatever the field: a
    ParameterError at the key inner_level. On [0, 1] the 1-d shell's nodes
    at eps = 1.6 sit at |h| >= 0.969, so every x + h leaves U from the
    midpoints 0.25 and 0.75 of 2 cells, but not from the first midpoint 1/64
    of 32 cells, which gives a positive value."""
    req = dict(field=LinearField(np.eye(1), np.zeros(1)), domain=DomainBox([0.0], [1.0]),
               p=1.0, mollifier=MollifierSpec("shell", 1.6, 1), inner_level=1, outer_grid=2)
    with pytest.raises(ParameterError) as err:
        en.EnergyRequest(**req)
    assert err.value.key == "inner_level"
    assert en.energy(en.EnergyRequest(**{**req, "outer_grid": 32})).value > 0.0


def test_request_fit_rule_makes_one_mask_over_both_levels(monkeypatch):
    """The rule tests both levels in one `_grid_mask` call: over the two end
    midpoints of each axis and the two levels' nodes concatenated."""
    calls, grid_mask = [], en._grid_mask

    def spy(domain, axes, h):
        calls.append((axes.shape, h.shape))
        return grid_mask(domain, axes, h)

    monkeypatch.setattr(en, "_grid_mask", spy)
    req = _req()
    nodes = sum(len(en._inner_nodes(req, level)[0]) for level in (4, 8))
    assert calls == [((2, 2), (nodes, 2))]


@pytest.mark.parametrize("kw", [
    {"p": True},
    {"outer_grid": 8.5},
    {"outer_grid": True},
    {"inner_level": 4.0},
    {"inner_level": True},
    {"workers": True},
    {"workers": 2.5},
    {"workers": "2"},
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


def _pairwise_by_new_arrays(values) -> float:
    """The pairwise tree with each level's sums in a new array."""
    buf = np.array(values, dtype=np.float64).ravel()
    n = buf.size
    while n > 1:
        half = n // 2
        buf[:half] = buf[:half] + buf[half : 2 * half]
        if n & 1:
            buf[half] = buf[2 * half]
            n = half + 1
        else:
            n = half
    return float(buf[0]) if n else 0.0


def test_pairwise_total_in_place_is_bitwise():
    """The in-place halving gives the bits of the tree built from new
    arrays, for every length 0..1025 (odd tails at every level), on values
    spread over 16 decades with both signs, and leaves its input alone."""
    rng = np.random.default_rng(7)
    v = rng.standard_normal(1025) * 10.0 ** rng.uniform(-8, 8, 1025)
    v[::97] = -0.0
    kept = v.copy()
    for n in range(1026):
        got, want = en.pairwise_total(v[:n]), _pairwise_by_new_arrays(v[:n])
        assert got.hex() == want.hex()
    assert np.array_equal(v, kept)



# per-axis cell counts: odd, even, powers of two (the tree halves rows to the
# end) and 1 (a single row or column)
_AXIS_SIZES = st.one_of(st.integers(1, 70), st.sampled_from([1, 2, 4, 8, 16, 32, 64]))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@example(sizes=[320, 5], seed=0)
@example(sizes=[64, 64], seed=1)
@example(sizes=[1, 63, 2], seed=2)
@example(sizes=[24, 24, 24], seed=3)
@given(sizes=st.lists(_AXIS_SIZES, min_size=1, max_size=3), seed=st.integers(0, 2**16))
def test_rank_total_is_the_tree_of_the_expanded_masses(sizes, seed):
    """`_rank_total` of random class masses (values over 16 decades, both
    signs) and random per-axis ranks, d = 1..3 and 1..70 cells per axis, has
    the bits of `pairwise_total` of the per-cell array that `_expand` forms,
    and leaves its masses alone."""
    rng = np.random.default_rng(seed)
    shape = [int(rng.integers(1, min(n, 9) + 1)) for n in sizes]
    ranks = tuple(rng.integers(0, c, n) for c, n in zip(shape, sizes))
    masses = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    kept = masses.copy()
    cells = en._expand(masses, ranks)
    assert np.array_equal(cells, masses[np.ix_(*ranks)].ravel())
    assert en._rank_total(masses, ranks).hex() == en.pairwise_total(cells).hex()
    assert np.array_equal(masses, kept)

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


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_rigid_energy_exact_zero_with_weights_in_the_scale(p, monkeypatch):
    """The weights are folded into the node scale w^(1/p)/|h|^2, which needs
    them positive; rigid rows stay exactly 0 through it, on the class path
    and the per-cell path, for every mollifier family."""
    cases = [(d, fam, eps) for d in (1, 2, 3)
             for fam, eps in (("shell", 0.3), ("scaled_bump", 0.2), ("gaussian", 0.1))]
    reqs = []
    for d, fam, eps in cases:
        req = en.EnergyRequest(field=_rigid(d), domain=DomainBox([0.0] * d, [1.0] * d),
                               p=p, mollifier=MollifierSpec(fam, eps, d), outer_grid=5,
                               inner_level=4, workers=1)
        for level in (4, 8):
            assert np.all(en._inner_nodes(req, level)[1] > 0.0)
        reqs.append(req)
    runs = [en.energy] + ([en.residual_energy] if p == 1.0 else [])
    for per_cell in (False, True):
        if per_cell:
            monkeypatch.setattr(RigidField, "kernel_classes", lambda self, x, h: None)
        for req in reqs:
            for run in runs:
                res = run(req)
                assert res.value == 0.0 and res.est_quadrature_error == 0.0
            assert not np.any(en.density_masses(req)[1])


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



@pytest.mark.parametrize("d, n", [(2, 25), (2, 32), (3, 9), (3, 8)])
def test_class_totals_are_the_trees_of_the_density_masses(d, n):
    """For the fields whose kernel ids vary along at most one axis (rigid,
    linear, and equal-matrix jumps normal to the first and to the last axis),
    the class path totals on per-axis ranks: the value and error bar of
    `energy` and `residual_energy` are, bit for bit, the pairwise totals of
    the per-cell masses of both levels, the fine ones those of
    `density_masses`; samples_outer is N^d. N odd and even, 1 and 2 workers."""
    rng = np.random.default_rng(60 + d)
    a, eye = rng.uniform(-1, 1, (d, d)), np.eye(d)
    sides = LinearField(a, np.zeros(d)), LinearField(a, rng.uniform(-1, 1, d))
    box = DomainBox([0.0] * d, [1.0] * d)
    grid = en._midpoints(box, n)
    for f in (RigidField(a - a.T, rng.uniform(-1, 1, d)), LinearField(a, rng.uniform(-1, 1, d)),
              PlanarJumpField(eye[0], 0.43, *sides), PlanarJumpField(-eye[d - 1], -0.57, *sides)):
        for workers in (1, 2):
            req = en.EnergyRequest(field=f, domain=box, p=1.0, outer_grid=n, inner_level=4,
                                   mollifier=MollifierSpec("shell", 0.2, d), workers=workers)
            assert len(en._class_masses(req, (4, 8), workers, False, grid)[1]) == d
            for residual, run in ((False, en.energy), (True, en.residual_energy)):
                res = run(req)
                (coarse, fine), _ = en._all_masses(req, (4, 8), workers, residual, grid)
                total = en.pairwise_total(fine)
                assert res.value.hex() == total.hex()
                assert res.est_quadrature_error == abs(total - en.pairwise_total(coarse))
                assert res.samples_outer == n**d
                masses = en.density_masses(req, residual)[1]
                assert np.array_equal(masses.view(np.uint64), fine.view(np.uint64))

@pytest.mark.parametrize("p", [1.0, 2.0])
def test_sin_energy_bitwise_across_reruns_and_workers(p):
    # the sin kernel is one matrix product per tile; 4 fine tiles at this size
    sin = SinField(np.array([0.3, 0.2]), np.array([[3.0, 1.0], [1.0, 2.0]]))
    base = dict(field=sin, domain=BOX, p=p, mollifier=SHELL,
                outer_grid=128, inner_level=16)
    first = en.energy(en.EnergyRequest(**base, workers=1))
    rerun = en.energy(en.EnergyRequest(**base, workers=1))
    pooled = en.energy(en.EnergyRequest(**base, workers=2))
    assert first.value > 0.0
    for res in (rerun, pooled):
        assert res.value == first.value
        assert res.est_quadrature_error == first.est_quadrature_error


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


@pytest.mark.parametrize("level", [32, 16])  # fine 2048 x 512, coarse 8192 x 128 tiles
def test_sin_tile_peak_memory_is_bounded_by_the_block(level):
    """A criterion-10 sin tile (1M pairs, 8 MB as one float64 array) peaks
    within four float64 blocks of `_BLOCK_PAIRS` pairs, whether or not it
    holds edge cells, with and without the residual."""
    sin = SinField(np.array([0.3, 0.2]), np.array([[3.0, 1.0], [1.0, 2.0]]))
    req = en.EnergyRequest(field=sin, domain=BOX, p=1.0,
                           mollifier=MollifierSpec("shell", 0.025, 2), outer_grid=320,
                           inner_level=16, workers=1)
    h, w, inv_r2 = en._inner_nodes(req, level)
    axes, cellvol = en._midpoints(BOX, 320)
    ok, edge, _ = en._grid_mask(BOX, axes, h)
    k = h.shape[0]
    t = en._TILE_NODE_BUDGET // k
    middle = (320**2 // t // 2) * t
    # the first tile lies along a face of the box (all cells at the fine level
    # and 35% at the coarse level are edge cells), the middle one 5%
    for start in (0, middle):
        for residual in (False, True):
            tracemalloc.start()
            try:
                en._run_masses(sin, t, (start, start + t), axes, h, w * inv_r2, (0, k),
                               ok, edge, 1.0, residual, cellvol)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * fields._BLOCK_PAIRS * 8 < t * k * 8


def _oblique_jump_request():
    """The criterion-10 request of an oblique jump whose sides' matrices
    differ, so that every band cell is evaluated with its own x.nu."""
    jump = PlanarJumpField(np.array([np.cos(0.3), np.sin(0.3)]), 0.7,
                           LinearField(np.array([[1.0, 0.5], [-0.3, 0.2]]), np.zeros(2)),
                           LinearField(np.array([[-0.4, 0.1], [0.6, 1.2]]), np.ones(2)))
    return en.EnergyRequest(field=jump, domain=BOX, p=1.0,
                            mollifier=MollifierSpec("shell", 0.025, 2), outer_grid=320,
                            inner_level=16, workers=1)


def test_oblique_jump_tile_peak_memory_is_bounded_by_the_tile():
    """A tile of band cells of an oblique jump whose sides' matrices differ
    (one x.nu per cell) peaks within two float64 tables of
    `_TILE_NODE_BUDGET` pairs plus four blocks at the criterion-10 request,
    with and without the residual."""
    req = _oblique_jump_request()
    jump = req.field
    nodes = [en._inner_nodes(req, level) for level in (16, 32)]
    h, w, inv_r2 = (np.concatenate(a) for a in zip(*nodes))
    axes, cellvol = en._midpoints(BOX, 320)
    ok, edge, _ = en._grid_mask(BOX, axes, h)
    t = en._TILE_NODE_BUDGET // len(h)
    band = np.flatnonzero(jump.kernel_classes(axes, h) >= 2)[:t]
    assert len(np.unique(fields._dot(fields._tensor_grid(axes.T)[band], jump.normal))) == t
    for residual in (False, True):
        tracemalloc.start()
        try:
            en._run_masses(jump, t, band, axes, h, w * inv_r2, (0, len(h)),
                           ok, edge, 1.0, residual, cellvol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * en._TILE_NODE_BUDGET * 8 + 4 * fields._BLOCK_PAIRS * 8


def test_oblique_jump_call_peak_memory_is_bounded_by_the_blocks():
    """A serial criterion-10 `energy()` call of that jump peaks under 8 MiB:
    its side tests and signs are made per block of `pair_blocks`, so
    `_BLOCK_PAIRS` bounds them, not its tiles of up to 1,638 band cells."""
    req = _oblique_jump_request()
    en.energy(req)  # the inner nodes are cached, as in a sweep
    tracemalloc.start()
    try:
        en.energy(req)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_class_product_call_peak_memory_is_bounded_by_the_blocks():
    """A serial d = 3 class call whose products of per-axis rows span many
    blocks of `_BLOCK_PAIRS` pairs (the d3-jump-study jump at N = 48, shell
    eps 0.4, inner level 4: 48 x 31 x 21 classes of 320 nodes, 80 MB as one
    array) peaks within three blocks, plain and residual."""
    a = np.array([[0.4, 0.1, 0.0], [0.0, -0.2, 0.1], [0.05, 0.0, 0.3]])
    jump = PlanarJumpField(np.array([1.0, 0.0, 0.0]), 0.5, LinearField(a, np.zeros(3)),
                           LinearField(a, np.array([0.2, 1.0, 0.3])))
    req = en.EnergyRequest(field=jump, domain=DomainBox([0.0] * 3, [1.0] * 3), p=1.0,
                           mollifier=MollifierSpec("shell", 0.4, 3), outer_grid=48,
                           inner_level=4, workers=1)
    grid = en._midpoints(req.domain, 48)
    masses, ranks, _ = en._class_masses(req, (4, 8), 1, False, grid)  # the nodes are cached
    k = sum(en._inner_nodes(req, level)[0].shape[0] for level in (4, 8))
    assert len(ranks) == 3 and masses[0].size * k > 64 * fields._BLOCK_PAIRS
    for run in (en.energy, en.residual_energy):
        tracemalloc.start()
        try:
            run(req)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * fields._BLOCK_PAIRS * 8


class _Sent(Exception):
    pass


def test_level_tasks_are_one_per_worker_and_carry_no_cell_arrays(monkeypatch):
    """A criterion-10 sin call's two levels go out as min(workers, evaluated
    cells) tasks over their K_c + K_f nodes, every cell evaluated, each task
    a (start, stop) cell range pickling to at most d N (K_c + K_f) bytes (the
    per-axis mask rows) plus 64 KiB."""
    sin = SinField(np.array([0.3, 0.2]), np.array([[3.0, 1.0], [1.0, 2.0]]))
    req = en.EnergyRequest(field=sin, domain=BOX, p=1.0,
                           mollifier=MollifierSpec("shell", 0.025, 2), outer_grid=320,
                           inner_level=16, workers=1)
    grid = en._midpoints(BOX, 320)
    sent = []

    def record(tasks):
        sent.append(tasks)
        raise _Sent

    monkeypatch.setattr(en, "_pool_map", lambda workers, fn, tasks: record(tasks))
    monkeypatch.setattr(en, "_run_masses", lambda *task: record([task]))
    k = sum(en._inner_nodes(req, level)[0].shape[0] for level in (16, 32))
    for workers in (1, 2, 3, 1000):
        with pytest.raises(_Sent):
            en._all_masses(req, (16, 32), workers, False, grid)
        tasks = sent.pop()
        assert len(tasks) == min(workers, 320**2)
        for task in tasks:
            assert isinstance(task[2], tuple)
            assert len(pickle.dumps(task)) <= 2 * 320 * k + 64 * 1024


def test_energy_call_is_one_pool_dispatch(monkeypatch):
    """A 2-worker energy() or residual_energy() call of a sin field or a
    jump runs both inner levels through one `_pool_map` call of two tasks,
    with the serial call's bits."""
    sin = SinField(np.array([0.3, 0.2]), np.array([[3.0, 1.0], [1.0, 2.0]]))
    calls = []

    def in_process(workers, fn, tasks):
        calls.append((workers, len(tasks)))
        return [fn(*task) for task in tasks]

    monkeypatch.setattr(en, "_pool_map", in_process)
    for req in (_req(field=sin, outer_grid=128, inner_level=16, workers=2), _pooled_req()):
        for run in (en.energy, en.residual_energy):
            serial = run(replace(req, workers=1))
            assert calls == []
            pooled = run(req)
            assert calls == [(2, 2)]
            calls.clear()
            assert pooled.value == serial.value
            assert pooled.est_quadrature_error == serial.est_quadrature_error


def _pooled_req():
    # a jump on 128^2 cells: workers=2 sends two runs of its evaluated cells
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
    # the executor's manager thread may reap the worker first, and is_alive()
    # reads True until that thread has stored the exit code
    deadline = time.monotonic() + 30
    while workers[0].is_alive() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not workers[0].is_alive()
    again = en.energy(_pooled_req())
    assert again.value == first.value
    assert again.est_quadrature_error == first.est_quadrature_error


def test_two_tile_linear_request_forks_both_workers():
    # perfbench's warm-up request: N = 64 at level 16 has few classes, but
    # workers=2 still cuts them into two runs, so it runs through a pool of 2
    # live processes
    en._shutdown_pools()
    for child in multiprocessing.active_children():
        child.join(timeout=30)
    req = en.EnergyRequest(field=LinearField(np.eye(2), np.zeros(2)), domain=BOX, p=1.0,
                           mollifier=MollifierSpec("shell", 0.025, 2), outer_grid=64,
                           inner_level=16, workers=2)
    serial = en.energy(replace(req, workers=1))
    assert en.energy(req).value == serial.value
    assert len(multiprocessing.active_children()) == 2


_PARENT_PID = os.getpid()
_PRODUCT_MASSES = en._product_masses


def _die_in_worker(*args):
    if os.getpid() != _PARENT_PID:
        os._exit(1)
    return _PRODUCT_MASSES(*args)


def test_pool_that_keeps_dying_raises_worker_error(monkeypatch):
    # the pooled jump's classes are products of per-axis rows (`_product_masses`)
    monkeypatch.setattr(en, "_product_masses", _die_in_worker)
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


# -- paper invariants over small requests ------------------------------------

def _field_pair(kind, rng, d):
    """(u, 2u): a field of `kind` and the same field with its amplitude,
    matrix or jump doubled (both sides of a jump)."""
    m, b = rng.uniform(-1.0, 1.0, (d, d)), rng.uniform(-1.0, 1.0, d)
    if kind == "rigid":
        return (RigidField(m - m.T, b),) * 2
    if kind == "linear":
        return LinearField(m, b), LinearField(2.0 * m, 2.0 * b)
    if kind == "sin":
        amp, waves = rng.uniform(0.1, 1.0, d), rng.uniform(-4.0, 4.0, (d, d))
        return SinField(amp, waves), SinField(2.0 * amp, waves)
    if kind == "bump":
        c = rng.uniform(0.3, 0.7, d)
        return BumpField(b, c, 0.4), BumpField(2.0 * b, c, 0.4)
    nu = rng.standard_normal(d)
    nu /= math.sqrt(float(nu @ nu))
    spin = m - m.T
    sides = (RigidField(spin, b), LinearField(m, -b))
    doubled = (RigidField(2.0 * spin, 2.0 * b), LinearField(2.0 * m, -2.0 * b))
    return (PlanarJumpField(nu, 0.5 * float(nu.sum()), *sides),
            PlanarJumpField(nu, 0.5 * float(nu.sum()), *doubled))


def _no_pair_in_domain(domain, n, moll, level):
    """Whether x + h lies outside U for every cell midpoint x of the n^d grid
    and every inner node h of `level` or of 2 `level`."""
    axes = (domain.lo + (domain.hi - domain.lo) * (np.arange(n)[:, None] + 0.5) / n).T
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, domain.dim)
    return any(not domain.contains(x[:, None, :] + en._level_nodes(
        moll.family, moll.eps, moll.dim, k, 1e-10)[0]).any() for k in (level, 2 * level))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
# the 1-d shell's nodes at eps = 1.6 leave [0, 1] from both midpoints
@example(d=1, n=2, level=1, family="shell", eps=1.6, kind="linear", seed=0)
@given(d=st.integers(1, 3), n=st.integers(2, 16), level=st.integers(1, 4),
       family=st.sampled_from(["shell", "scaled_bump", "gaussian"]),
       eps=st.sampled_from([0.15, 0.3, 0.6]),
       kind=st.sampled_from(["rigid", "linear", "sin", "bump", "jump"]),
       seed=st.integers(0, 2**16))
def test_rigid_is_exactly_zero_and_doubling_scales_by_two_to_the_p(
        d, n, level, family, eps, kind, seed):
    """Over small requests: a rigid field's value, error bar and residual are
    exactly 0, and F(2u) == 2^p F(u) bit for bit at p = 1 and 2, value and
    error bar, and for the residual at p = 1. A request with a level none of
    whose inner nodes keeps some x + h in U is a ParameterError."""
    u, twice = _field_pair(kind, np.random.default_rng(seed), d)
    moll, box = MollifierSpec(family, eps, d), DomainBox([0.0] * d, [1.0] * d)
    req = dict(field=u, domain=box, p=1.0, mollifier=moll, outer_grid=n,
               inner_level=level, workers=1)
    if _no_pair_in_domain(box, n, moll, level):
        with pytest.raises(ParameterError) as err:
            en.EnergyRequest(**req)
        assert err.value.key == "inner_level"
        return
    req = en.EnergyRequest(**req)
    runs = [(en.energy, 1.0), (en.energy, 2.0), (en.residual_energy, 1.0)]
    for run, p in runs:
        res = run(replace(req, p=p))
        if kind == "rigid":
            assert res.value == 0.0 and res.est_quadrature_error == 0.0
            continue
        res2 = run(replace(req, p=p, field=twice))
        assert res.value > 0.0 or run is en.residual_energy
        assert res2.value == 2.0**p * res.value
        assert res2.est_quadrature_error == 2.0**p * res.est_quadrature_error


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
