"""Sphere-averaged matrix norms.

Core claims:
    - SymMatrix symmetrizes exactly, validates shape/finiteness, caps dim at 3
    - eigenvalues come back non-increasing and reconstruct A to 1e-12
    - sphere rules have unit weight mass, unit nodes, and exact +- pairs;
      a rule is built once, read-only, with the bits of an uncached build,
      and bad arguments raise on every call; a Gauss rule's arrays are the
      caller's to write
    - the broadcast d = 3 sphere rule and the engine's flat inner nodes equal,
      bit for bit, the ring-by-ring and band-by-band loops kept here
    - q_norm reproduces the closed-form values: 1/pi, sqrt(1/2), sqrt(1/15), tr/d
    - q_norm and q_norm_eigen agree structurally (same rule, eigen coordinates)
    - q1_trace_psd, q2_closed and the batch qp_pow_eigs match the rule values;
      qp_pow_eigs evaluates each distinct eigenvalue row once, so repeats
      carry the bits of the row alone
    - Q_p is invariant under orthogonal conjugation up to the rule's defect
"""

import importlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from nldef import (
    DimensionError,
    DomainError,
    ParameterError,
    SphereRule,
    SymMatrix,
    make_sphere_rule,
    q1_trace_psd,
    q2_closed,
    q_norm,
    q_norm_eigen,
    qp_pow_eigs,
)
from nldef.mollifiers import SURFACE_AREA, MollifierSpec

en = importlib.import_module("nldef.energy")
sym = importlib.import_module("nldef.symnorm")


def _random_sym(rng, d):
    a = rng.standard_normal((d, d))
    return SymMatrix(0.5 * (a + a.T))


# -- SymMatrix ---------------------------------------------------------------

def test_symmetrization_is_exact():
    a = np.array([[1.0, 2.0], [4.0, 3.0]])
    m = SymMatrix(a)
    assert np.array_equal(m.a, m.a.T)
    assert m.entry(0, 1) == 3.0  # (2 + 4) / 2

def test_shape_and_finiteness_validation():
    with pytest.raises(DimensionError):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        SymMatrix(np.eye(4))
    with pytest.raises(ParameterError):
        SymMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

def test_matrix_is_locked():
    m = SymMatrix(np.eye(2))
    with pytest.raises(ValueError):
        m.a[0, 0] = 5.0

def test_constructors_and_accessors():
    d = SymMatrix.diag([3.0, 1.0])
    assert d.trace() == 4.0
    assert d.frobenius() == math.sqrt(10.0)
    s = SymMatrix.sym_outer([1.0, 0.0], [0.0, 1.0])
    assert s.entry(0, 1) == 0.5 and s.entry(0, 0) == 0.0

def test_eigenvalues_sorted_and_reconstruct():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        for _ in range(20):
            m = _random_sym(rng, d)
            lam = m.eigenvalues()
            assert np.all(np.diff(lam) <= 0)
            lam2, vecs = m.eigensystem()
            # eigvalsh and eigh can pick different LAPACK drivers, so the
            # agreement is to rounding, not bitwise
            assert np.max(np.abs(lam - lam2)) <= 1e-12 * max(np.max(np.abs(lam)), 1.0)
            recon = (vecs * lam2) @ vecs.T
            assert np.max(np.abs(recon - m.a)) < 1e-12

def test_arithmetic():
    a = SymMatrix.diag([1.0, 2.0])
    b = SymMatrix.diag([3.0, -1.0])
    assert np.array_equal((a + b).a, np.diag([4.0, 1.0]))
    assert np.array_equal((a - b).a, np.diag([-2.0, 3.0]))
    assert np.array_equal((a * 2.0).a, np.diag([2.0, 4.0]))
    assert np.array_equal((-a).a, np.diag([-1.0, -2.0]))


# -- sphere rules ------------------------------------------------------------

@pytest.mark.parametrize("dim,level", [(1, 1), (2, 16), (2, 17), (3, 8), (3, 9)])
def test_rule_mass_and_unit_nodes(dim, level):
    rule = make_sphere_rule(dim, level)
    assert abs(rule.weights.sum() - 1.0) < 1e-13
    norms = np.sqrt((rule.nodes**2).sum(axis=1))
    assert np.max(np.abs(norms - 1.0)) < 1e-14

@pytest.mark.parametrize("dim,level", [(2, 12), (3, 6)])
def test_rule_has_exact_antipodes(dim, level):
    rule = make_sphere_rule(dim, level)
    n = len(rule) // 2
    assert np.array_equal(rule.nodes[n:], -rule.nodes[:n])

def test_rule_json_roundtrip():
    rule = make_sphere_rule(3, 5)
    back = SphereRule.from_json(json.loads(json.dumps(rule.to_json())))
    assert back.dim == rule.dim and back.level == rule.level
    assert np.array_equal(back.nodes, rule.nodes)
    assert np.array_equal(back.weights, rule.weights)

def test_rule_validation():
    # the arguments are checked on every call, before the rule cache
    for _ in range(2):
        for dim in (0, 4, 3.5):
            with pytest.raises(DimensionError):
                make_sphere_rule(dim, 8)
        for level in (0, -3):
            with pytest.raises(ParameterError):
                make_sphere_rule(2, level)


@pytest.mark.parametrize("dim,level", [(1, 3), (2, 17), (3, 9), (3, 64)])
def test_repeated_sphere_rule_is_one_read_only_build(dim, level):
    """make_sphere_rule builds a rule once and then returns that object; its
    arrays are read-only and have the bits of an uncached build."""
    rule = make_sphere_rule(dim, level)
    assert make_sphere_rule(dim, level) is rule
    assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
    fresh = sym._sphere_rule.__wrapped__(dim, level)
    assert fresh is not rule and (fresh.dim, fresh.level) == (rule.dim, rule.level)
    assert _bits_equal(fresh.nodes, rule.nodes) and _bits_equal(fresh.weights, rule.weights)


def test_writing_a_gauss_result_changes_no_later_call():
    """_gauss returns fresh, writable arrays over a cached read-only [-1, 1]
    rule, with the bits of the uncached formula."""
    a, b = np.array([0.0, 1.0]), np.array([1.0, 3.0])
    for lo, hi in ((-1.0, 1.0), (a, b)):
        first = sym._gauss(lo, hi, 7)
        want = [x.copy() for x in first]
        for x in first:
            x[...] = np.nan
        again = sym._gauss(lo, hi, 7)
        assert all(_bits_equal(x, y) for x, y in zip(again, want))
        z, w = np.polynomial.legendre.leggauss(7)
        half, mid = 0.5 * np.subtract(hi, lo), 0.5 * np.add(lo, hi)
        uncached = np.multiply.outer(half, z) + mid[..., None], np.multiply.outer(half, w)
        assert all(_bits_equal(x, y) for x, y in zip(again, uncached))
    assert not any(x.flags.writeable for x in sym._legendre(7))


def _loop_sphere_rule_3d(level):
    """The d = 3 rule ring by ring: Gauss-Legendre polar nodes sorted from the
    top, a ring of 2 level azimuths per node z > 0, half the equator."""
    z, wz = np.polynomial.legendre.leggauss(level)
    order = np.argsort(-z)
    z, wz = z[order], wz[order]
    m_az = 2 * level
    theta = 2.0 * np.pi * (np.arange(m_az) + 0.5) / m_az
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    reps, repw = [], []
    for zi, wi in zip(z, wz):
        if zi > 1e-14:
            r = np.sqrt(1.0 - zi * zi)
            reps.append(np.stack([r * cos_t, r * sin_t, np.full(m_az, zi)], axis=1))
            repw.append(np.full(m_az, wi / (2.0 * m_az)))
        elif abs(zi) <= 1e-14:
            half = m_az // 2
            reps.append(np.stack([cos_t[:half], sin_t[:half], np.zeros(half)], axis=1))
            repw.append(np.full(half, wi / (2.0 * m_az)))
    reps, repw = np.vstack(reps), np.concatenate(repw)
    return np.vstack([reps, -reps]), np.concatenate([repw, repw])


def _loop_level_nodes(family, eps, dim, level, trunc_tol):
    """One inner level band by band: Gauss radii per radial band crossed with
    the sphere rule, then flattened, radius slowest."""
    mollifier = MollifierSpec(family, eps, dim)
    sphere = make_sphere_rule(dim, level)
    z, gw = np.polynomial.legendre.leggauss(max(2, level // 4))
    radii, rweights = [], []
    for a, b in mollifier.radial_bands(trunc_tol):
        r = 0.5 * (b - a) * z + 0.5 * (a + b)
        w = 0.5 * (b - a) * gw
        radii.append(r)
        rweights.append(SURFACE_AREA[dim] * w * r ** (dim - 1) * mollifier.radial_profile(r))
    r, w = np.concatenate(radii), np.concatenate(rweights)
    h = (r[:, None, None] * sphere.nodes[None, :, :]).reshape(-1, dim)
    w = (w[:, None] * sphere.weights[None, :]).reshape(-1)
    return h, w, np.repeat(1.0 / (r * r), len(sphere))


def _bits_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_sphere_rule_equals_the_ring_loop_bitwise():
    for level in range(1, 80):
        rule = make_sphere_rule(3, level)
        nodes, weights = _loop_sphere_rule_3d(level)
        assert _bits_equal(rule.nodes, nodes) and _bits_equal(rule.weights, weights), level


@pytest.mark.parametrize("family", ["shell", "scaled_bump", "gaussian"])
def test_level_nodes_equal_the_band_loop_bitwise(family):
    for dim in (1, 2, 3):
        for level in (1, 2, 3, 4, 7, 8, 16, 32):
            got = en._level_nodes(family, 0.1, dim, level, 1e-10)
            want = _loop_level_nodes(family, 0.1, dim, level, 1e-10)
            assert all(_bits_equal(a, b) for a, b in zip(got, want)), (dim, level)


# -- q_norm oracles ----------------------------------------------------------

def test_q1_shear_is_one_over_pi():
    m = SymMatrix.sym_outer([1.0, 0.0], [0.0, 1.0])
    rule = make_sphere_rule(2, 4096)
    assert abs(q_norm(m, 1.0, rule) - 1.0 / math.pi) < 1e-6

def test_q2_indefinite_closed_value():
    m = SymMatrix.diag([1.0, -1.0])
    rule = make_sphere_rule(2, 64)
    v = math.sqrt(0.5)
    assert abs(q_norm(m, 2.0, rule) - v) < 1e-14
    assert abs(q2_closed(m) - v) < 1e-15

def test_q2_shear_3d():
    m = SymMatrix.sym_outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    rule = make_sphere_rule(3, 24)
    assert abs(q_norm(m, 2.0, rule) - math.sqrt(1.0 / 15.0)) < 1e-13

def test_q1_psd_is_normalized_trace():
    m = SymMatrix.diag([3.0, 1.0])
    rule = make_sphere_rule(2, 64)
    assert q1_trace_psd(m) == 2.0
    assert abs(q_norm(m, 1.0, rule) - 2.0) < 1e-13
    with pytest.raises(DomainError):
        q1_trace_psd(SymMatrix.diag([1.0, -1.0]))

def test_q_norm_parameter_errors():
    m = SymMatrix.diag([1.0, 1.0])
    rule = make_sphere_rule(2, 8)
    with pytest.raises(ParameterError):
        q_norm(m, 0.5, rule)
    with pytest.raises(DimensionError):
        q_norm(m, 1.0, make_sphere_rule(3, 8))


# -- eigen path and batch dispatch -------------------------------------------

def test_q_norm_eigen_structural_agreement():
    rng = np.random.default_rng(7)
    rules = {2: make_sphere_rule(2, 64), 3: make_sphere_rule(3, 24)}
    for d in (2, 3):
        for _ in range(40):
            m = _random_sym(rng, d)
            for p in (1.0, 2.0, 3.0):
                a = q_norm(m, p, rules[d])
                b = q_norm_eigen(m, p, rules[d])
                assert abs(a - b) <= 1e-12 * max(abs(a), 1e-30)

def test_qp_pow_eigs_matches_q_norm():
    rng = np.random.default_rng(13)
    # the eigenvalue path integrates in the eigenbasis, so for kinked
    # integrands (p = 1) the two paths differ by the rule's rotation
    # defect; the d = 3 rule at level 64 carries a larger one
    for d, level, tol in ((2, 4096, 2e-6), (3, 64, 1e-4)):
        rule = make_sphere_rule(d, level)
        mats = [_random_sym(rng, d) for _ in range(15)]
        eigs = np.stack([m.eigenvalues() for m in mats])
        for p in (1.0, 2.0, 3.0):
            batch = qp_pow_eigs(eigs, p, rule)
            for k, m in enumerate(mats):
                ref = q_norm(m, p, rule) ** p
                assert abs(batch[k] - ref) <= tol * max(ref, 1e-12)

def test_qp_pow_eigs_closed_paths_are_tight():
    rng = np.random.default_rng(29)
    rule = make_sphere_rule(2, 65536)
    # d=2 p=1 uses the arcsin closed form; the fine rule should approach it
    for _ in range(10):
        m = _random_sym(rng, 2)
        val = qp_pow_eigs(m.eigenvalues()[None], 1.0, rule)[0]
        ref = q_norm(m, 1.0, rule)
        assert abs(val - ref) <= 1e-8 * max(ref, 1e-12)

def test_qp_pow_eigs_needs_rule_for_open_cases():
    eigs = np.array([[1.0, -0.5, 0.2]])
    with pytest.raises(DimensionError):
        qp_pow_eigs(eigs, 3.0, None)
    with pytest.raises(ParameterError):
        qp_pow_eigs(eigs, 0.5, make_sphere_rule(3, 8))

def test_qp_pow_eigs_sphere_rows_bounded_memory():
    # 50k indefinite 3-d rows against 512 nodes: one (rows x nodes) array
    # would be ~200 MB, the row blocks keep the peak far below it
    rng = np.random.default_rng(31)
    mags = rng.uniform(0.1, 1.0, (50_000, 3))
    eigs = np.stack([mags[:, 0], 0.5 * (mags[:, 1] - 0.5), -mags[:, 2]], axis=1)
    rule = make_sphere_rule(3, 16)
    tracemalloc.start()
    try:
        out = qp_pow_eigs(eigs, 1.0, rule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    w2 = rule.nodes * rule.nodes
    ref = np.abs(eigs[:1000] @ w2.T) @ rule.weights
    np.testing.assert_allclose(out[:1000], ref, rtol=1e-13, atol=0.0)


def _indefinite_rows(rng, n):
    mags = rng.uniform(0.1, 1.0, (n, 3))
    return np.stack([mags[:, 0], 0.5 * (mags[:, 1] - 0.5), -mags[:, 2]], axis=1)


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_qp_pow_eigs_repeated_row_takes_its_own_bits(p):
    # 4096 copies of one indefinite row against the 8192-node level-64 rule:
    # the row is evaluated once, so every copy has the bits of the row alone
    rule = make_sphere_rule(3, 64)
    row = np.array([[0.7, -0.2, -0.4]])
    alone = qp_pow_eigs(row, p, rule)
    many = qp_pow_eigs(np.repeat(row, 4096, axis=0), p, rule)
    assert many.shape == (4096,)
    assert np.array_equal(many.view(np.uint64), np.repeat(alone, 4096).view(np.uint64))


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_qp_pow_eigs_shuffled_repeats_match_single_rows(p):
    rng = np.random.default_rng(33)
    rule = make_sphere_rule(3, 16)
    distinct = _indefinite_rows(rng, 40)
    pick = rng.integers(0, 40, 3000)  # every row repeated, in shuffled order
    got = qp_pow_eigs(distinct[pick], p, rule)
    single = np.array([qp_pow_eigs(r[None], p, rule)[0] for r in distinct])
    assert np.all(np.abs(got - single[pick]) <= 1e-14 * np.abs(single[pick]))
    # the copies of a row share its bits
    _, first, inv = np.unique(pick, return_index=True, return_inverse=True)
    assert np.array_equal(got.view(np.uint64), got[first][inv].view(np.uint64))



@pytest.mark.parametrize("level, p", [(16, 1.0), (64, 1.0), (16, 3.0)])
def test_qp_pow_eigs_row_alone_has_its_bits_in_a_batch(level, p):
    """Each of 1,000 distinct indefinite 3-d rows, evaluated alone, has the
    bits of its row in the batch of all of them: the sphere sum's order does
    not depend on the row's place in the batch."""
    rng = np.random.default_rng(41)
    rule = make_sphere_rule(3, level)
    rows = _indefinite_rows(rng, 1000)
    batch = qp_pow_eigs(rows, p, rule)
    alone = np.array([qp_pow_eigs(r[None], p, rule)[0] for r in rows])
    assert np.array_equal(alone.view(np.uint64), batch.view(np.uint64))

# -- invariance --------------------------------------------------------------

def _rotation_2d(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])

def _rotation_3d(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q

def test_orthogonal_invariance_2d():
    rng = np.random.default_rng(3)
    rule = make_sphere_rule(2, 65536)
    for _ in range(5):
        m = _random_sym(rng, 2)
        r = _rotation_2d(rng.uniform(0.0, 2.0 * math.pi))
        mr = SymMatrix(r @ m.a @ r.T)
        for p in (1.0, 2.0, 3.0):
            a, b = q_norm(m, p, rule), q_norm(mr, p, rule)
            assert abs(a - b) <= 1e-8 * max(a, 1e-12)

def test_orthogonal_invariance_3d_smooth_exponents():
    rng = np.random.default_rng(5)
    rule = make_sphere_rule(3, 320)
    for _ in range(4):
        m = _random_sym(rng, 3)
        r = _rotation_3d(rng)
        mr = SymMatrix(r @ m.a @ r.T)
        for p in (2.0, 3.0):
            a, b = q_norm(m, p, rule), q_norm(mr, p, rule)
            assert abs(a - b) <= 1e-8 * max(a, 1e-12)

def test_orthogonal_invariance_3d_p1():
    # the |.| kink slows the rule here; the defect at level 640 sits near 1e-8
    rng = np.random.default_rng(17)
    rule = make_sphere_rule(3, 640)
    m = _random_sym(rng, 3)
    r = _rotation_3d(rng)
    mr = SymMatrix(r @ m.a @ r.T)
    a, b = q_norm(m, 1.0, rule), q_norm(mr, 1.0, rule)
    assert abs(a - b) <= 1e-6 * max(a, 1e-12)

def test_scaling_homogeneity():
    rng = np.random.default_rng(23)
    rule = make_sphere_rule(2, 64)
    m = _random_sym(rng, 2)
    for p in (1.0, 2.0):
        assert abs(q_norm(m * 3.0, p, rule) - 3.0 * q_norm(m, p, rule)) < 1e-13
