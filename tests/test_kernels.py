"""Pair-kernel and mask contracts of the tile engine.

Core claims:
    - the closed-form sin and planar-jump kernels agree with the generic
      difference <u(x+h) - u(x), h> to roundoff, for pairs on either side
      of the interface, crossing it in both directions, and with x or x + h
      exactly on it
    - the planar jump's engine rows (one signed product plus x's side row)
      agree with delta_dot_h / |h|^2 to roundoff, and pairs that stay on x's
      side keep its bits; a rigid-sided jump's residual equals its energy
    - only the sin field has pair factors, and their product agrees with
      the generic kernel to roundoff
    - every family's pair rows, plain and residual (the sin field's folded
      into one product), agree with an unfolded reference to roundoff
    - a level's masses do not depend on how its evaluated cells split into
      runs (pool tasks) of equal shares, and equal those of each tile of
      the serial run alone
    - `local_density` is the one-cell grid: at a grid midpoint it is the
      cell's mass over the cell volume, bitwise for every closed-form
      family but sin
    - the tile masses do not depend on the block size of `pair_blocks`:
      bitwise for every family but sin, whose product may round a lone row
      apart, within 1e-15 of the largest mass
    - the per-axis grid mask equals DomainBox.contains(x + h) bit for bit
      on every cell, including sums that land exactly on lo or hi, on grids
      of interior, edge and mixed cells and for any block size
    - a jump between two equal rigid fields has an exactly zero kernel and
      an exactly zero energy
    - a power-of-two scale of the field scales the energy exactly:
      F(2^k u) == 2^(kp) F(u), value and error bar
    - a jump's x.nu is one value per point: alone, in a batch and as a
      grid cell built from the axes by `kernel_classes`
    - cells in one kernel class have bitwise-equal kernel and sym_gradient
      rows, cells in one mask class bitwise-equal mask rows, and the class
      path of the engine gives the same bits as computing every cell while
      evaluating one class per distinct pair of kernel id and mask row
    - a class call hands `pair_blocks` one row per distinct kernel id when
      those rows fit one block (1 for the criterion-10 linear call, 18 for
      its jump and for the d3-jump-study request at eps 0.4), else one per
      class (an axis-normal jump whose sides' matrices differ)
    - a jump whose sides share one matrix has a constant jump vector, and
      its band cells evaluate one class per distinct pair of x.nu and mask
      row: at most 600 per criterion-10 jump call
"""

import importlib
import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from nldef import (
    BumpField,
    DomainBox,
    FieldSpec,
    LinearField,
    MollifierSpec,
    PlanarJumpField,
    RigidField,
    SampledField,
    SinField,
)

en = importlib.import_module("nldef.energy")
fields_mod = importlib.import_module("nldef.fields")

# normwise: |closed form - generic| <= KERNEL_RTOL * max |generic| over a batch
KERNEL_RTOL = 1e-13


def _generic(f, x, h):
    return FieldSpec.delta_dot_h(f, x, h)


def _assert_kernel_agrees(f, x, h):
    got = np.asarray(f.delta_dot_h(x, h))
    ref = np.asarray(_generic(f, x, h))
    assert got.shape == ref.shape
    scale = np.max(np.abs(ref))
    assert scale > 0.0
    assert np.max(np.abs(got - ref)) <= KERNEL_RTOL * scale


def _sin_field(rng, d):
    return SinField(rng.uniform(0.1, 0.5, d), rng.uniform(-4.0, 4.0, (d, d)))


def _linear(rng, d, shift=None):
    shift = rng.uniform(-1.0, 1.0, d) if shift is None else shift
    return LinearField(rng.uniform(-1.0, 1.0, (d, d)), shift)


def _rigid(rng, d):
    return RigidField.from_general(rng.uniform(-1.0, 1.0, (d, d)), rng.uniform(-1.0, 1.0, d))


def _axis_normals(d):
    return [s * np.eye(d)[j] for j in range(d) for s in (1.0, -1.0)]


def _rows(f, x, h, scale, residual=False):
    """The (n, K) rows of `pair_blocks`: copies of its blocks, concatenated
    after checking that their row slices cover the cells in order."""
    blocks, stop = [], 0
    for rows, q in f.pair_blocks(x, h, scale, residual):
        assert rows.start == stop and q.shape == (rows.stop - rows.start, h.shape[0])
        stop = rows.stop
        blocks.append(q.copy())
    assert stop == x.shape[0]
    return np.concatenate(blocks) if blocks else np.zeros((0, h.shape[0]))


# -- sin ---------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
def test_sin_kernel_matches_generic(d):
    rng = np.random.default_rng(10 + d)
    for _ in range(4):
        f = _sin_field(rng, d)
        x = rng.uniform(-1.0, 2.0, (40, d))
        h = rng.uniform(-0.3, 0.3, (60, d))
        _assert_kernel_agrees(f, x[:, None, :], h[None, :, :])  # the engine's shapes
        _assert_kernel_agrees(f, x, h[:40])  # elementwise pairs


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sin_engine_product_matches_broadcast_loop(d):
    """The engine's sin blocks are one (m, 2d) x (2d, K) product of the
    `pair_factors`; `delta_dot_h` sums the same factors elementwise.

    Dyadic waves, x and h make every phase k.x and k.h exact, so both see
    bitwise-equal factors and only the summation differs. (With arbitrary
    phases the two call shapes round k.x differently as well, which moves the
    loop itself by up to ~1.3e-15 of max |q|.)
    """
    rng = np.random.default_rng(15 + d)
    for _ in range(8):
        f = SinField(rng.uniform(0.1, 0.5, d), rng.integers(-64, 65, (d, d)) / 16)
        x = rng.integers(-64, 129, (40, d)) / 64
        h = rng.integers(-77, 78, (60, d)) / 256
        ref = f.delta_dot_h(x[:, None, :], h[None, :, :])
        a, b = f.pair_factors(x, h)
        got = _rows(f, x, h, np.ones(60))
        assert got.shape == ref.shape == (40, 60)
        assert np.array_equal(got, a @ b.T)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_factors_match_generic_and_only_sin_has_them(d):
    rng = np.random.default_rng(160 + d)
    x = rng.uniform(-1.0, 2.0, (40, d))
    h = rng.uniform(-0.3, 0.3, (60, d))
    for _ in range(4):
        f = _sin_field(rng, d)
        a, b = f.pair_factors(x, h)
        assert a.shape == (40, 2 * d) and b.shape == (60, 2 * d)
        ref = _generic(f, x[:, None, :], h[None, :, :])
        assert np.max(np.abs(a @ b.T - ref)) <= KERNEL_RTOL * np.max(np.abs(ref))
    others = [_rigid(rng, d), _linear(rng, d),
              BumpField(rng.uniform(-1, 1, d), np.full(d, 0.5), 0.3),
              SampledField(np.zeros(d), np.full(d, 0.5), rng.uniform(-1, 1, (3,) * d + (d,))),
              *_jump_fields(rng, d)]
    for f in others:
        assert not hasattr(f, "pair_factors")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_folded_sin_rows_match_unfolded_reference(d):
    """Each family's `pair_blocks`, plain and residual, against the unfolded
    reference delta_dot_h / |h|^2 - <Eu(x) h, h>/|h|^2 built here.

    The sin rows are one product with 1/|h|^2 scaled into B; for the
    residual, B's cos factor sin(k.h) h is (sin(k.h) - k.h) h. The default
    hook (bump, linear) subtracts the first-order product from its rows.
    Linear-sided jumps (axis and oblique normals) subtract it after the
    signed band product, and also in a call in which no pair crosses the
    plane, which skips that product.

    The residual cancels most of its two terms (by a factor of up to ~80
    here), so its roundoff is bounded against the larger term, not the
    difference."""
    rng = np.random.default_rng(170 + d)
    cases = []
    for _ in range(4):
        f = _sin_field(rng, d)
        cases.append((f, rng.uniform(0.0, 1.0, (50, d)), rng.uniform(-0.3, 0.3, (70, d))))
    x = rng.uniform(0.0, 1.0, (50, d))
    h = rng.uniform(-0.3, 0.3, (70, d))
    cases += [(BumpField(rng.uniform(-1, 1, d), np.full(d, 0.5), 0.3), x, h),
              (_linear(rng, d), x, h)]
    for f in _jump_fields(rng, d):
        if not isinstance(f.plus, LinearField):
            continue
        x = rng.uniform(-0.5, 1.5, (50, d))  # some cells farther than any |h| from the plane
        xn = fields_mod._dot(x, f.normal)
        yn = xn[:, None] + fields_mod._dot(h, f.normal)
        one_sided = ((xn > f.offset)[:, None] == (yn > f.offset)).all(axis=1)
        assert one_sided.any() and not one_sided.all()
        cases += [(f, x, h), (f, x[one_sided], h)]
    for f, x, h in cases:
        n = x.shape[0]
        inv_r2 = 1.0 / (h * h).sum(axis=1)
        q = f.delta_dot_h(x[:, None, :], h[None, :, :]) * inv_r2
        e = f.sym_gradient(x).reshape(n, d * d)
        hh = (h[:, :, None] * h[:, None, :]).reshape(70, d * d) * inv_r2[:, None]
        first_order = e @ hh.T
        assert np.max(np.abs(first_order)) > 0.0
        scale = max(np.max(np.abs(q)), np.max(np.abs(first_order)))
        for residual, ref in ((False, q), (True, q - first_order)):
            got = _rows(f, x, h, inv_r2, residual)
            assert got.shape == (n, 70)
            assert np.max(np.abs(got - ref)) <= 1e-15 * scale


def _sin_minus_identity(t):
    """sin(t) - t by its alternating series (|t| < 1), smallest terms first."""
    terms = [(-1) ** k * t ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(1, 11)]
    return sum(reversed(terms))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sin_residual_rows_at_small_phases(d):
    """The residual's rows at |h| from 1e-1 down to 1e-12 (phases |k.h| down
    to ~1e-12) against sum_i a_i [sin(k_i.x) (cos(k_i.h) - 1) + cos(k_i.x)
    (sin(k_i.h) - k_i.h)] h_i / |h|^2 with sin - identity by its series:
    within a few ulps of the terms and of k.h h / |h|^2 (one rounding of sin),
    although the residual is of order |k.h|^2 / |h| and the kernel of order
    |k.h| / |h|. Where sin(k.h) rounds to k.h, the cos factor is exactly 0."""
    rng = np.random.default_rng(250 + d)
    f = _sin_field(rng, d)
    x = rng.uniform(0.0, 1.0, (20, d))
    u = rng.standard_normal((6, d))
    u /= np.linalg.norm(u, axis=1)[:, None]
    h = np.vstack([10.0 ** -e * u for e in range(1, 13)])
    scale = 1.0 / (h * h).sum(axis=1)
    got = _rows(f, x, h, scale, residual=True)
    kx, t = fields_mod._matvec(f.waves, x), h @ f.waves.T
    assert 0.0 < np.abs(t).min() < 1e-10 and np.abs(t).max() < 1.0
    parts = [f.amplitude * np.sin(kx), f.amplitude * np.cos(kx)]
    nodes = [-2.0 * np.sin(0.5 * t) ** 2 * h, _sin_minus_identity(t) * h]
    terms = [a[:, None, :] * (b * scale[:, None])[None] for a, b in zip(parts, nodes)]
    ref = sum(terms).sum(axis=2)
    size = sum(np.abs(terms)).sum(axis=2) + np.abs(parts[1]) @ (np.abs(t * h) * scale[:, None]).T
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - ref) <= 4 * d * eps * size)
    tiny = np.all(np.abs(t) < 1e-9, axis=1)
    assert tiny.sum() >= 18
    assert np.all(f.pair_factors(x, h[tiny], residual=True)[1][:, d:] == 0.0)


# -- planar jump -------------------------------------------------------------

def _jump_fields(rng, d):
    """Jumps with rigid and linear sides across +-e_j and oblique normals."""
    out = []
    normals = _axis_normals(d)
    if d > 1:
        for _ in range(2):
            nu = rng.standard_normal(d)
            normals.append(nu / np.linalg.norm(nu))
    for nu in normals:
        offset = 0.5 * float(nu.sum())  # the plane through the cube center
        for sides in ((_rigid, _rigid), (_linear, _linear), (_rigid, _linear)):
            minus, plus = (make(rng, d) for make in sides)
            out.append(PlanarJumpField(nu, offset, minus, plus))
    return out


def _constant_sides(rng, d):
    """Side pairs with one nonzero matrix and unequal shifts, rigid and
    linear: their jump is constant."""
    rigid, linear = _rigid(rng, d), _linear(rng, d)
    return [(rigid, RigidField(rigid.spin, rng.uniform(-1.0, 1.0, d))),
            (linear, LinearField(linear.a, rng.uniform(-1.0, 1.0, d)))]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_jump_kernel_matches_generic(d):
    rng = np.random.default_rng(20 + d)
    for f in _jump_fields(rng, d):
        x = rng.uniform(0.0, 1.0, (50, d))
        h = rng.uniform(-0.4, 0.4, (70, d))
        xn = x @ f.normal - f.offset
        yn = (x[:, None, :] + h[None, :, :]) @ f.normal - f.offset
        # the sample has pairs crossing the plane both ways
        assert np.any((xn[:, None] <= 0.0) & (yn > 0.0))
        assert np.any((xn[:, None] > 0.0) & (yn <= 0.0))
        _assert_kernel_agrees(f, x[:, None, :], h[None, :, :])
        _assert_kernel_agrees(f, x, h[:50])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_jump_kernel_on_the_interface(d):
    """x or x + h exactly on the plane <x, nu> = offset (axis normals)."""
    rng = np.random.default_rng(30 + d)
    for nu in _axis_normals(d):
        j = int(np.argmax(np.abs(nu)))
        sign = nu[j]
        f = PlanarJumpField(nu, sign * 0.5, _linear(rng, d), _linear(rng, d))
        x = rng.uniform(0.0, 1.0, (6, d))
        h = rng.uniform(-0.3, 0.3, (8, d))
        # x on the plane; x + h on the plane (0.25 + 0.25 and 0.75 - 0.25
        # are exact); x near it with h crossing in both directions
        x[0, j], x[1, j], x[2, j] = 0.5, 0.25, 0.75
        x[3, j], x[4, j] = 0.4, 0.6
        h[0, j], h[1, j], h[2, j], h[3, j] = 0.25, -0.25, 0.2, -0.2
        yj = x[:, None, j] + h[None, :, j]
        assert np.any(yj == 0.5) and np.any(x[:, j] == 0.5)
        # a side picked differently would be off by |<a(x), h>|, far above
        # the tolerance
        _assert_kernel_agrees(f, x[:, None, :], h[None, :, :])


def test_jump_kernel_matches_known_cross_values():
    # minus side 0, plus side the constant e_2: the kernel is +-h_2 on
    # crossing pairs and exactly 0 elsewhere
    zero = RigidField(np.zeros((2, 2)), np.zeros(2))
    f = PlanarJumpField(np.array([1.0, 0.0]), 0.5, zero,
                        RigidField(np.zeros((2, 2)), np.array([0.0, 1.0])))
    x = np.array([[0.45, 0.2], [0.55, 0.2], [0.5, 0.2]])
    h = np.array([[0.2, 0.3], [-0.2, 0.7], [0.0, 0.1]])
    q = f.delta_dot_h(x[:, None, :], h[None, :, :])
    want = np.array([[0.3, 0.0, 0.0], [0.0, -0.7, 0.0], [0.3, 0.0, 0.0]])
    assert np.array_equal(q, want)


def _jump_on_plane_cases(rng, f, d):
    """Cells and offsets for `f`, plus copies of `f` whose plane holds a cell,
    or a cell plus an offset, exactly (by the field's own x.nu, `_dot`)."""
    x = rng.uniform(-0.5, 1.5, (50, d))  # some cells farther than any |h| from the plane
    h = rng.uniform(-0.4, 0.4, (70, d))
    xn = fields_mod._dot(x, f.normal)
    hn = fields_mod._dot(h, f.normal)
    # the cell, and the cell plus offset, nearest the plane through the center
    i = np.argmin(np.abs(xn - f.offset))
    y = xn[:, None] + hn[None, :]
    y[i] = np.inf
    planes = [f.offset, xn[i], y.flat[np.argmin(np.abs(y - f.offset))]]
    return x, h, [replace(f, offset=float(s)) for s in planes]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_jump_rows_match_kernel_over_h2(d):
    """The engine's jump rows (`PlanarJumpField.pair_blocks`: one signed product
    plus x's side row) agree with delta_dot_h / |h|^2 within 1e-15 of the
    largest entry. Pairs that stay on x's side (sigma = 0), which includes
    every pair of a cell whose stencil stays on one side, carry the bits of
    delta_dot_h(...) * inv_r2 (as |q|: the engine takes |q|^p), and so does a
    call in which no pair crosses, which skips the product."""
    rng = np.random.default_rng(200 + d)
    for f in _jump_fields(rng, d):
        x, h, cases = _jump_on_plane_cases(rng, f, d)
        inv_r2 = 1.0 / (h * h).sum(axis=1)
        for g in cases:
            ref = g.delta_dot_h(x[:, None, :], h[None, :, :]) * inv_r2
            got = _rows(g, x, h, inv_r2)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
            xn = fields_mod._dot(x, g.normal)
            yn = xn[:, None] + fields_mod._dot(h, g.normal)
            px, py = xn > g.offset, yn > g.offset
            assert np.any(~px[:, None] & py) and np.any(px[:, None] & ~py)
            stay = py == px[:, None]
            assert np.array_equal(_bits(np.abs(got[stay])), _bits(np.abs(ref[stay])))
            one_sided = stay.all(axis=1)
            assert one_sided.any() and not one_sided.all()
            rows = _rows(g, x[one_sided], h, inv_r2)
            assert np.array_equal(_bits(np.abs(rows)), _bits(np.abs(ref[one_sided])))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rigid_sided_jump_residual_equals_energy(d):
    """Rigid sides have Eu = 0, so the residual subtracts exact zeros."""
    rng = np.random.default_rng(210 + d)
    normals = _axis_normals(d)[:1] + ([np.full(d, d ** -0.5)] if d > 1 else [])
    for nu in normals:
        f = PlanarJumpField(nu, 0.45 * float(nu.sum()), _rigid(rng, d), _rigid(rng, d))
        req = en.EnergyRequest(
            field=f, domain=DomainBox([0.0] * d, [1.0] * d), p=1.0,
            mollifier=MollifierSpec("shell", 0.3, d), outer_grid=6,
            inner_level=4, workers=1)
        plain, res = en.energy(req), en.residual_energy(req)
        assert plain.value > 0.0
        assert res.value == plain.value
        assert res.est_quadrature_error == plain.est_quadrature_error


# -- mask --------------------------------------------------------------------

class _OnesField(FieldSpec):
    """Blocks of ones that record what the engine leaves of them: a block is
    copied when the engine asks for the next one, after its mask."""

    def __init__(self, n, k):
        self.dim, self.seen = 0, np.zeros((n, k), dtype=bool)

    def pair_blocks(self, x, h, scale, residual=False):
        for rows, q in fields_mod._row_blocks(x.shape[0], h.shape[0]):
            q[...] = 1.0
            yield rows, q
            self.seen[rows] = q == 1.0


def _check_compact_mask(box, axes, h):
    """`_grid_mask` against the brute-force per-axis rows lo_k <= x_k + h_k
    <= hi_k: ok[k] holds the all-true row, then one row per edge row (a row
    that fails somewhere) in axis order, edge[k] maps every row to its ok[k]
    row (0 for the others), and the keys are the rows' (pass lo, pass hi)
    counts."""
    ok, edge, keys = en._grid_mask(box, axes, h)
    k_nodes = h.shape[0]
    for k in range(box.dim):
        y = np.add.outer(axes[:, k], h[:, k])
        above, below = y >= box.lo[k], y <= box.hi[k]
        rows = above & below
        at_edge = ~rows.all(axis=1)
        m = int(at_edge.sum())
        assert ok[k].dtype == bool and ok[k].shape == (1 + m, k_nodes) and ok[k][0].all()
        assert edge[k].shape == (len(axes),)
        assert np.array_equal(edge[k][at_edge], np.arange(1, 1 + m))
        assert not edge[k][~at_edge].any()
        assert np.array_equal(ok[k][edge[k]], rows)
        want = above.sum(axis=1) * (k_nodes + 1) + below.sum(axis=1)
        assert keys[k].dtype == np.int64 and np.array_equal(keys[k], want)
    return ok


def _mask_rows(box, axes, h):
    """The engine's mask as a bool (m^d, K) array over the tensor grid over
    axes (m, d): blocks of ones that `energy._run_masses`, given the grid's
    `_grid_mask` and the grid as one tile, zeroed outside the box. The
    compact mask is checked first (`_check_compact_mask`)."""
    _check_compact_mask(box, axes, h)
    cells = axes.shape[0] ** axes.shape[1]
    ones = _OnesField(cells, h.shape[0])
    ok, edge, _ = en._grid_mask(box, axes, h)
    en._run_masses(ones, max(1, cells), (0, cells), axes, h, np.ones(h.shape[0]),
                   (0, h.shape[0]), ok, edge, 1.0, False, 1.0)
    return ones.seen


def _grid_contains(box, axes, h):
    """`contains(x + h)` for the cells x of the tensor grid over axes (m, d)."""
    x = fields_mod._tensor_grid(axes.T)
    return box.contains(x[:, None, :] + h[None, :, :])


def _diagonal(axes):
    """Index step between the grid cells (i, .., i) and (i + 1, .., i + 1)."""
    return sum(axes.shape[0] ** k for k in range(axes.shape[1]))


def _grid_mask_classes(box, axes, h):
    """Mask classes (`energy._grid_classes`) and mask rows of the tensor grid
    over axes (m, d), after checking the class contract: per-axis ranks
    dense in [0, C_k), `first` (C_0, .., C_{d-1}) the first cell of each
    class, and bitwise-equal mask rows within a class. The classes come back
    as one id per cell, the mixed radix of its ranks."""
    ranks, first = en._grid_classes(en._grid_mask(box, axes, h)[2])
    rows = _mask_rows(box, axes, h)
    assert len(ranks) == first.ndim == axes.shape[1]
    for rank, size in zip(ranks, first.shape):
        assert rank.shape == (axes.shape[0],) and np.array_equal(np.unique(rank), np.arange(size))
    ids = en._radix(ranks, first.shape)
    assert ids.shape == (axes.shape[0] ** axes.shape[1],) and ids.dtype == np.int64
    classes, start = np.unique(ids, return_index=True)
    assert np.array_equal(classes, np.arange(first.size))
    assert np.array_equal(start, first.ravel())
    _assert_rows_equal_per_class(ids, rows)
    return ids, rows


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mask_bitwise_equals_contains(d):
    """The mask of the grid over 30 random coordinates per axis, cell by cell."""
    rng = np.random.default_rng(40 + d)
    unit = DomainBox([0.0] * d, [1.0] * d)
    for box in (unit, DomainBox(rng.uniform(-1, 0, d), rng.uniform(0.1, 2, d))):
        x = rng.uniform(box.lo - 0.1, box.hi + 0.1, (30, d))
        h = rng.uniform(-0.5, 0.5, (40, d))
        # sums landing exactly on lo and on hi, and one ulp beside them
        x[0], h[0] = box.lo + 0.25, np.full(d, -0.25)
        x[1], h[1] = box.hi - 0.25, np.full(d, 0.25)
        x[2], h[2] = box.lo, np.zeros(d)
        x[3], h[3] = box.hi, np.nextafter(np.zeros(d), 1.0)
        h[4] = box.hi - x[5]
        h[5] = box.lo - x[6]
        got = _mask_rows(box, x, h)
        want = _grid_contains(box, x, h)
        assert got.dtype == bool and got.shape == (30**d, 40)
        assert np.array_equal(got, want)
        if box is unit:  # 0.25 - 0.25 and 0.75 + 0.25 are exact
            step = _diagonal(x)
            assert got[0, 0] and got[step, 1] and got[2 * step, 2]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mask_over_repeated_and_single_valued_axes(d):
    """Grid axes with repeated and unsorted coordinates, -0.0 beside 0.0, an
    axis with one value, one cell and no cells."""
    rng = np.random.default_rng(140 + d)
    m = {1: 60, 2: 24, 3: 12}[d]  # coordinates per axis
    unit = DomainBox([0.0] * d, [1.0] * d)
    for box in (unit, DomainBox(rng.uniform(-1, 0, d), rng.uniform(0.1, 2, d))):
        # five values per axis, two of them 0.25 inside lo and hi, drawn unsorted
        vals = np.stack([box.lo + 0.25, box.hi - 0.25, box.lo, box.hi,
                         rng.uniform(box.lo, box.hi)])
        x = vals[rng.integers(0, 5, (60, d)), np.arange(d)]
        x[0], x[1], x[2] = vals[0], vals[1], vals[2]
        x[3::7, 0], x[4::7, 0] = 0.0, -0.0
        h = rng.uniform(-0.5, 0.5, (40, d))
        # sums landing exactly on lo and on hi, and one ulp beside them
        h[0], h[1], h[2] = np.full(d, -0.25), np.full(d, 0.25), np.zeros(d)
        h[3], h[4] = -np.nextafter(np.zeros(d), 1.0), box.hi - vals[4]
        h[5] = box.lo - vals[4]
        one_valued = x.copy()
        one_valued[:, -1] = vals[4, -1]
        for axes in (x[:m], one_valued[:m], x[:1], x[:0]):
            got = _mask_rows(box, axes, h)
            want = _grid_contains(box, axes, h)
            assert got.dtype == bool and got.shape == (len(axes) ** d, 40)
            assert np.array_equal(got, want)
            _grid_mask_classes(box, axes[:12], h)  # the grid over the first 12
        if box is unit:  # 0.25 - 0.25 and 0.75 + 0.25 are exact
            got, step = _mask_rows(box, x[:m], h), _diagonal(x[:m])
            assert got[0, 0] and got[step, 1] and got[2 * step, 2] and not got[2 * step, 3]


@pytest.mark.parametrize("chunk", [1, 50, 120, None])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_edge_row_mask_on_interior_edge_and_mixed_tiles(d, chunk, monkeypatch):
    """On grids whose axes hold interior, edge and mixed coordinates, cells
    whose rows pass on every axis are left alone and the runs of the other
    cells are masked within blocks of `_BLOCK_PAIRS` pairs (1 and 50 give
    one-row blocks and 120 three-row blocks of the 40 nodes, many ending
    mid-run). Dyadic cells and offsets make the sums exact, so many land
    exactly on lo or hi."""
    if chunk is not None:
        monkeypatch.setattr(fields_mod, "_BLOCK_PAIRS", chunk)
    rng = np.random.default_rng(180 + d)
    box = DomainBox([-0.5] * d, [0.75] * d)
    h = rng.integers(-16, 17, (40, d)) / 64
    h[0], h[1], h[2] = 0.25, -0.25, 0.0
    h[3], h[4] = np.nextafter(0.25, 1.0), -np.nextafter(0.25, 1.0)
    # interior: every x + h stays in the box, some exactly on lo or hi
    interior = rng.integers(-4, 9, (30, d)) / 16
    interior[0], interior[1] = -0.25, 0.5
    # edge: on every axis within 1/4 of a face, so some x + h leave the box
    near = np.array([-0.5, -0.4375, -0.3125, 0.5625, 0.6875, 0.75])
    edge = near[rng.integers(0, 6, (30, d))]
    mixed = np.vstack([interior, edge])[rng.permutation(60)]
    m = {1: 60, 2: 24, 3: 10}[d]  # coordinates per axis
    for axes in (interior[:m], edge[:m], mixed[:m], interior[:1], edge[:1], edge[:0]):
        got = _mask_rows(box, axes, h)
        want = _grid_contains(box, axes, h)
        assert got.shape == (len(axes) ** d, 40)
        assert np.array_equal(got, want)
    assert _mask_rows(box, interior[:m], h[:3]).all()
    assert not _mask_rows(box, edge[:m], h).all(axis=1).any()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_compact_mask_on_no_nodes_all_interior_all_edge_and_extremes_on_the_faces(d):
    """The compact mask and the masked rows on no offsets (K = 0: every row
    is interior, and the all-true row has no columns), on grids whose rows
    are all interior (x + min h_k exactly on lo, x + max h_k exactly on hi on
    some rows) or all edge, and with x one ulp beyond those interior rows."""
    rng = np.random.default_rng(230 + d)
    box = DomainBox([-0.5] * d, [0.75] * d)
    h = rng.integers(-16, 17, (30, d)) / 64
    h[0], h[1] = 0.25, -0.25  # min and max of every h_k
    interior = rng.integers(-4, 9, (12, d)) / 16
    interior[0], interior[1] = -0.25, 0.5  # min lands on lo, max on hi
    edge = np.array([-0.5, -0.4375, 0.625, 0.75])[rng.integers(0, 4, (12, d))]
    beyond = np.vstack([np.nextafter(interior[:2], [[-1.0], [1.0]]), interior[2:]])
    m = {1: 12, 2: 8, 3: 5}[d]
    for axes in (interior[:m], edge[:m], beyond[:m], interior[:0]):
        for offsets in (h, h[:0]):
            got = _mask_rows(box, axes, offsets)
            assert np.array_equal(got, _grid_contains(box, axes, offsets))
    ok = _check_compact_mask(box, interior[:m], h)
    assert all(o.shape == (1, 30) for o in ok)  # all interior
    ok = _check_compact_mask(box, edge[:m], h)
    assert all(o.shape == (1 + m, 30) for o in ok)  # all edge
    ok, edge_map, keys = en._grid_mask(box, edge[:m], h[:0])
    assert all(o.shape == (1, 0) for o in ok)  # no nodes: nothing fails
    assert not any(e.any() for e in edge_map) and not any(k.any() for k in keys)


# -- blocks ------------------------------------------------------------------

# outer grid, inner level and shell eps per dimension: at the default block
# size the fine level takes 2 blocks in d = 1, 3 in d = 2 and 4 in d = 3
_BLOCK_GRIDS = {1: (1500, 128, 0.1), 2: (24, 16, 0.1), 3: (6, 8, 0.2)}


def _block_fields(d):
    """One field of every family, and jumps with rigid and linear sides."""
    rng = np.random.default_rng(220 + d)
    eye = np.eye(d)
    out = [("rigid", _rigid(rng, d)), ("linear", _linear(rng, d)),
           ("sin", _sin_field(rng, d)),
           ("bump", BumpField(rng.uniform(-1, 1, d), np.full(d, 0.5), 0.3)),
           ("sampled", SampledField(np.full(d, -0.5), np.full(d, 0.5),
                                    rng.uniform(-1, 1, (5,) * d + (d,)))),
           ("jump-rigid", PlanarJumpField(eye[0], 0.45, _rigid(rng, d), _rigid(rng, d))),
           ("jump-linear", PlanarJumpField(-eye[d - 1], -0.4, _linear(rng, d),
                                           _linear(rng, d)))]
    if d > 1:
        nu = np.full(d, d ** -0.5)
        out.append(("jump-oblique", PlanarJumpField(nu, 0.6, _rigid(rng, d), _linear(rng, d))))
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_block_size_leaves_masses_unchanged(d, monkeypatch):
    """Per-cell masses with `_BLOCK_PAIRS` at one row, three rows (of the
    fine level), the default and a whole tile, plain (p = 1.5) and residual
    (p = 1): bitwise equal for every family but sin, whose product rounds
    apart by block within 1e-15 of the largest mass."""
    n, level, eps = _BLOCK_GRIDS[d]
    box = DomainBox([0.0] * d, [1.0] * d)
    k_fine = None
    for name, f in _block_fields(d):
        req = en.EnergyRequest(field=f, domain=box, p=1.5,
                               mollifier=MollifierSpec("shell", eps, d), outer_grid=n,
                               inner_level=level, workers=1)
        k_fine = k_fine or en._inner_nodes(req, 2 * level)[0].shape[0]
        sizes = (1, 3 * k_fine, fields_mod._BLOCK_PAIRS, en._TILE_NODE_BUDGET)
        cases = [(req, False)] + ([] if name == "sampled" else [(replace(req, p=1.0), True)])
        for r, residual in cases:
            got = []
            for size in sizes:
                monkeypatch.setattr(fields_mod, "_BLOCK_PAIRS", size)
                _, masses, est = en.density_masses(r, residual)
                got.append((masses, est))
            monkeypatch.undo()
            ref, ref_est = got[2]
            assert np.max(ref) > 0.0 if name != "rigid" else not np.any(ref)
            for masses, est in got:
                if name == "sin":
                    assert np.max(np.abs(masses - ref)) <= 1e-15 * np.max(ref)
                else:
                    assert np.array_equal(_bits(masses), _bits(ref)) and est == ref_est


# outer grid, inner level, shell eps and tile size per dimension: the last
# tile of a run is partial, in d = 2, 3 per-cell tiles end in the middle of a
# row, and every class path fills at least two tiles
_RUN_GRIDS = {1: (300, 16, 0.1, 13), 2: (24, 8, 0.2, 83), 3: (6, 4, 0.3, 29)}
_RUN_MASSES = en._run_masses


def _cell_count(task):
    """The number of cells in a `_run_masses` task."""
    cells = task[2]
    return cells[1] - cells[0] if isinstance(cells, tuple) else len(cells)


def _tiles_alone(task):
    """`_run_masses` on each tile of a task's cells alone, concatenated; a
    class task's per-class table rows are sliced with its cells."""
    f, t, cells, *rest, table, row = task
    idx = np.arange(*cells) if isinstance(cells, tuple) else cells
    return np.concatenate([_RUN_MASSES(f, t, idx[a : a + t], *rest, table,
                                       None if row is None else row[a : a + t])
                           for a in range(0, len(idx), t)], axis=1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_runs_of_tiles_leave_masses_unchanged(d, monkeypatch):
    """The fine level's evaluated cells in 1, 2 and 3 runs and in one run per
    tile of the serial run, run in-process: bitwise-equal masses for every
    family, plain (p = 1.5) and residual (p = 1), in min(runs, cells) tasks
    whose cell counts differ by at most 1. The serial run's masses are those
    of `_run_masses` on each of its tiles alone; per-cell runs hold every
    cell, and class-path runs fill several tiles."""
    n, level, eps, t = _RUN_GRIDS[d]
    box = DomainBox([0.0] * d, [1.0] * d)
    grid = en._midpoints(box, n)
    runs = []

    def record(*task):
        runs.append((task, _RUN_MASSES(*task)))
        return runs[-1][1]

    monkeypatch.setattr(en, "_run_masses", record)
    monkeypatch.setattr(en, "_pool_map", lambda workers, fn, tasks: [fn(*a) for a in tasks])
    spread = []
    for name, f in _block_fields(d):
        req = en.EnergyRequest(field=f, domain=box, p=1.5,
                               mollifier=MollifierSpec("shell", eps, d), outer_grid=n,
                               inner_level=level)
        h = en._inner_nodes(req, 2 * level)[0]
        monkeypatch.setattr(en, "_TILE_NODE_BUDGET", t * h.shape[0])
        cases = [(req, False)] + ([] if name == "sampled" else [(replace(req, p=1.0), True)])
        for r, residual in cases:
            serial = en._all_masses(r, (2 * level,), 1, residual, grid)[0][0]
            (task, masses), = runs
            runs.clear()
            assert task[1] == t
            assert np.array_equal(_bits(masses), _bits(_tiles_alone(task)))
            count = _cell_count(task)
            tiles = -(-count // t)
            for workers in (2, 3, tiles):
                got = en._all_masses(r, (2 * level,), workers, residual, grid)[0][0]
                sizes = [_cell_count(task) for task, _ in runs]
                runs.clear()
                assert len(sizes) == min(workers, count) and sum(sizes) == count
                assert max(sizes) - min(sizes) <= 1
                assert np.array_equal(_bits(got), _bits(serial))
            if f.kernel_classes(grid[0], h) is None:
                assert count == n**d
            else:
                spread.append(tiles)
    assert min(spread) >= 2 and max(spread) >= 3


@pytest.mark.parametrize("d", [1, 2, 3])
def test_two_level_pass_gives_each_level_its_own_bits(d, monkeypatch):
    """Each level's masses from the two-level pass of `energy` are bitwise
    those of the level run alone, for every family, plain (p = 1.5) and
    residual (p = 1), serial and in two runs: the pass tiles the grid
    differently (K_c + K_f nodes a cell) and refines the classes by both
    levels' mask rows."""
    n, level, eps, t = _RUN_GRIDS[d]
    box = DomainBox([0.0] * d, [1.0] * d)
    grid = en._midpoints(box, n)
    monkeypatch.setattr(en, "_pool_map", lambda workers, fn, tasks: [fn(*a) for a in tasks])
    for name, f in _block_fields(d):
        req = en.EnergyRequest(field=f, domain=box, p=1.5,
                               mollifier=MollifierSpec("shell", eps, d), outer_grid=n,
                               inner_level=level)
        k_fine = en._inner_nodes(req, 2 * level)[0].shape[0]
        monkeypatch.setattr(en, "_TILE_NODE_BUDGET", t * k_fine)
        cases = [(req, False)] + ([] if name == "sampled" else [(replace(req, p=1.0), True)])
        for r, residual in cases:
            for workers in (1, 2):
                both, k = en._all_masses(r, (level, 2 * level), workers, residual, grid)
                assert k == k_fine and len(both) == 2
                for lv, masses in zip((level, 2 * level), both):
                    alone = en._all_masses(r, (lv,), workers, residual, grid)[0][0]
                    assert np.max(alone) > 0.0 if name != "rigid" else not np.any(alone)
                    assert np.array_equal(_bits(masses), _bits(alone))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_local_density_is_the_one_cell_grid_of_density_masses(d):
    """Points and grids share one mask path: at p = 1 and a power-of-two cell
    volume, `local_density` at every midpoint of a small grid, edge cells and
    interior cells, is that cell's `density_masses` mass over the cell volume.
    Bitwise for every closed-form family but sin, whose product rounds apart
    by block within 1e-15 of the largest mass."""
    n = {1: 16, 2: 8, 3: 4}[d]
    box = DomainBox([0.0] * d, [1.0] * d)
    cellvol = box.volume() / n**d
    assert np.frexp(cellvol)[0] == 0.5  # a power of two
    for name, f in _block_fields(d):
        if name == "sampled":
            continue
        req = en.EnergyRequest(field=f, domain=box, p=1.0,
                               mollifier=MollifierSpec("shell", 0.2, d), outer_grid=n,
                               inner_level=4, workers=1)
        pts, masses, _ = en.density_masses(req)
        h = en._inner_nodes(req, 8)[0]
        interior = box.contains(pts[:, None, :] + h[None, :, :]).all(axis=1)
        assert interior.any() and not interior.all()
        want = masses / cellvol
        got = np.array([en.local_density(req, x) for x in pts])
        assert np.max(want) > 0.0 if name != "rigid" else not np.any(want)
        if name == "sin":
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want)
        else:
            assert np.array_equal(_bits(got), _bits(want))


# -- zero cases --------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
def test_jump_with_equal_rigid_sides_is_exactly_zero(d):
    rng = np.random.default_rng(50 + d)
    side = _rigid(rng, d)
    same = RigidField(side.spin, side.shift)
    for nu in _axis_normals(d):
        f = PlanarJumpField(nu, 0.5 * float(nu.sum()), side, same)
        x = rng.uniform(0.0, 1.0, (20, 1, d))
        h = rng.uniform(-0.4, 0.4, (1, 30, d))
        assert np.all(f.delta_dot_h(x, h) == 0.0)
        req = en.EnergyRequest(
            field=f, domain=DomainBox([0.0] * d, [1.0] * d), p=1.0,
            mollifier=MollifierSpec("shell", 0.3, d), outer_grid=6,
            inner_level=4, workers=1)
        for run in (en.energy, en.residual_energy):
            res = run(req)
            assert res.value == 0.0
            assert res.est_quadrature_error == 0.0


# -- homogeneity -------------------------------------------------------------

def _scaled(f, s):
    if isinstance(f, SinField):
        return SinField(s * f.amplitude, f.waves)
    if isinstance(f, LinearField):
        return LinearField(s * f.a, s * f.shift)
    return PlanarJumpField(f.normal, f.offset, _scaled(f.minus, s), _scaled(f.plus, s))


def _homogeneity_fields():
    rng = np.random.default_rng(60)
    out = [_sin_field(rng, d) for d in (1, 2, 3)]
    for d in (2, 3):
        nu = np.eye(d)[0]
        out.append(PlanarJumpField(nu, 0.45, _linear(rng, d), _linear(rng, d)))
    return out


@pytest.mark.parametrize("f", _homogeneity_fields(), ids=lambda f: f"{type(f).__name__}-{f.dim}d")
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_power_of_two_scale_is_exact(f, p):
    d = f.dim
    runs = [en.energy] + ([en.residual_energy] if p == 1.0 else [])
    for k in (-3, 2):
        s = 2.0**k
        for run in runs:
            base = dict(domain=DomainBox([0.0] * d, [1.0] * d), p=p,
                        mollifier=MollifierSpec("shell", 0.3, d), outer_grid=6,
                        inner_level=4, workers=1)
            ref = run(en.EnergyRequest(field=f, **base))
            got = run(en.EnergyRequest(field=_scaled(f, s), **base))
            assert ref.value > 0.0
            assert got.value == s**p * ref.value
            assert got.est_quadrature_error == s**p * ref.est_quadrature_error


# -- stencil classes -----------------------------------------------------------

def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _assert_rows_equal_per_class(ids, rows):
    """Every row equals, bit for bit, the first row of its class."""
    _, first, inv = np.unique(ids, return_index=True, return_inverse=True)
    assert np.array_equal(rows, rows[first][inv])


def _class_grid(rng, d):
    """Per-axis coordinates (10, d), a coarse grid (so classes repeat) plus
    random ones, and offsets with duplicates whose h.nu extremes are exactly
    +-0.25 for axis normals."""
    axes = np.vstack([np.tile(np.arange(0.125, 1.0, 0.125)[:, None], d),
                      rng.uniform(0.0, 1.0, (3, d))])
    h = rng.uniform(-0.25, 0.25, (30, d))
    h[0], h[1] = 0.25, -0.25
    return axes, np.vstack([h, h[:6]])


def _grid_ids(f, axes, h):
    """`kernel_classes` ids of the tensor grid over axes (n, d), checked to
    be int64 of ndim d with extent 1 or n per axis, broadcast to the grid
    and flattened, first axis slowest."""
    ids = f.kernel_classes(axes, h)
    n, d = axes.shape
    assert ids.dtype == np.int64 and ids.ndim == d and set(ids.shape) <= {1, n}
    return np.broadcast_to(ids, (n,) * d).ravel()


def _check_kernel_classes(f, axes, h):
    """Contract of kernel_classes on the cells of the tensor grid over axes;
    kernel rows compared as |q| (the engine takes |q|^p), so a zero may
    differ in sign."""
    ids = _grid_ids(f, axes, h)
    x = fields_mod._tensor_grid(axes.T)
    q = f.delta_dot_h(x[:, None, :], h[None, :, :])
    _assert_rows_equal_per_class(ids, _bits(np.abs(q)))
    e = f.sym_gradient(x).reshape(x.shape[0], -1)
    _assert_rows_equal_per_class(ids, _bits(e))
    return ids


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_classes_contract(d):
    rng = np.random.default_rng(70 + d)
    axes, h = _class_grid(rng, d)
    for f in (_sin_field(rng, d),
              BumpField(rng.uniform(-1, 1, d), np.full(d, 0.5), 0.3),
              SampledField(np.zeros(d), np.full(d, 0.5), rng.uniform(-1, 1, (3,) * d + (d,)))):
        assert f.kernel_classes(axes, h) is None  # x-dependent kernels opt out
    for f in (_rigid(rng, d), _linear(rng, d)):
        assert np.all(_check_kernel_classes(f, axes, h) == 0)
    for f in _jump_fields(rng, d) + [f for n, f in _engine_fields(d) if n.startswith("jump-equal")]:
        _check_kernel_classes(f, axes, h)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_ids_vary_only_along_the_axes_the_kernel_does(d):
    """Ids come at the resolution they vary on: one id for rigid and linear
    fields; an axis-normal constant jump's along its axis alone, a 3-d
    constant jump across (0.6, 0, 0.8) along axes 0 and 2 alone; a jump
    whose sides' matrices differ along every axis."""
    rng = np.random.default_rng(230 + d)
    axes, h = _class_grid(rng, d)
    n = len(axes)
    for f in (_rigid(rng, d), _linear(rng, d)):
        assert f.kernel_classes(axes, h).shape == (1,) * d
    constant, unequal = _constant_sides(rng, d), (_linear(rng, d), _linear(rng, d))
    for j, nu in enumerate(np.eye(d)):
        for sign, sides in ((1.0, constant[0]), (-1.0, constant[1])):
            f = PlanarJumpField(sign * nu, sign * 0.5, *sides)
            ids = _check_kernel_classes(f, axes, h)
            assert f.kernel_classes(axes, h).shape == (1,) * j + (n,) + (1,) * (d - 1 - j)
            assert np.any(ids < 2) and np.any(ids >= 2)
        f = PlanarJumpField(nu, 0.5, *unequal)
        assert f.kernel_classes(axes, h).shape == (n,) * d
    if d == 3:
        for sides, shape in ((constant[1], (n, 1, n)), (unequal, (n, n, n))):
            f = PlanarJumpField(np.array([0.6, 0.0, 0.8]), 0.7, *sides)
            ids = _check_kernel_classes(f, axes, h)
            assert f.kernel_classes(axes, h).shape == shape
            assert np.any(ids < 2) and np.any(ids >= 2)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_jump_kernel_classes_on_the_plane(d):
    """A diagonal grid cell x on the plane, or x + h with the largest or
    smallest h.nu exactly on it, for +-e_j and oblique normals (the plane
    counts as the minus side); the planes are placed by the field's x.nu."""
    rng = np.random.default_rng(80 + d)
    axes, h = _class_grid(rng, d)
    x = fields_mod._tensor_grid(axes.T)
    normals = _axis_normals(d)
    if d > 1:
        nu = rng.standard_normal(d)
        normals.append(nu / np.linalg.norm(nu))
    i3, i5, i2 = (k * _diagonal(axes) for k in (3, 5, 2))  # cells (k, .., k)
    for nu in normals:
        xn, hn = fields_mod._dot(x, nu), fields_mod._dot(h, nu)
        cases = (
            (xn[i3], i3, "band"),  # x on the plane, some x + h above it
            (xn[i5] + hn.max(), i5, 0),  # x below, the highest x + h on the plane
            (xn[i2] + hn.min(), i2, "band"),  # x above, the lowest x + h on the plane
        )
        for s, i, want in cases:
            f = PlanarJumpField(nu, s, _linear(rng, d), _linear(rng, d))
            ids = _check_kernel_classes(f, axes, h)
            assert ids[i] >= 2 if want == "band" else ids[i] == want
            assert np.any(ids < 2) and np.any(ids >= 2)


def _grid_jump_ids(f, axes, h):
    """A jump's kernel ids as the whole grid forms them: x.nu of each of the
    n^d cells, its side tests, and for a constant jump one np.unique over
    the cells' x.nu (else 2 + the cell index)."""
    xn = reduce(np.add.outer, (axes * f.normal).T).ravel()
    hn = fields_mod._dot(h, f.normal)
    low = (xn + hn.min(initial=0.0)) - f.offset > 0.0
    high = (xn + hn.max(initial=0.0)) - f.offset > 0.0
    constant = not f._jump[0].any()
    band = np.unique(xn, return_inverse=True)[1] if constant else np.arange(len(xn))
    return np.where(low == high, low, 2 + band)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_axis_jump_ids_equal_the_grid_ids(d):
    """For nu = +-e_j and a constant jump, `kernel_classes` ranks the n
    values of axis j alone: broadcast to the grid, the ids equal those
    ranked over every cell's full x.nu, with the plane on a cell boundary,
    on a midpoint, on 0 (where the axes hold 0.0 and -0.0) and outside the
    box, on midpoint axes and on shuffled ones with repeats. Oblique normals
    and unequal matrices, whose ids vary along more axes, give those ids
    too."""
    rng = np.random.default_rng(240 + d)
    box = DomainBox([-0.5] * d, [0.5] * d)
    n = {1: 40, 2: 16, 3: 8}[d]
    axes = en._midpoints(box, n)[0]
    shuffled = axes[rng.permutation(n)]
    shuffled[1], shuffled[2], shuffled[3] = shuffled[0], 0.0, -0.0
    h = rng.uniform(-0.1, 0.1, (30, d))
    constant = _constant_sides(rng, d)
    unequal = (_linear(rng, d), _linear(rng, d))
    normals = _axis_normals(d)
    if d > 1:
        nu = rng.standard_normal(d)
        normals.append(nu / np.linalg.norm(nu))
    for nu in normals:
        j = int(np.argmax(np.abs(nu)))
        s = float(nu[j])
        offsets = (s * (-0.5 + 3 / n), s * float(axes[5, j]), 0.0, 0.7, -0.7)
        for offset in offsets:
            for sides in (*constant, unequal):
                f = PlanarJumpField(nu, offset, *sides)
                for grid in (axes, shuffled):
                    assert f.kernel_classes(grid, h).flags.writeable
                    got = _grid_ids(f, grid, h)
                    assert np.array_equal(got, _grid_jump_ids(f, grid, h))
                if offset in (0.7, -0.7):
                    assert np.all(got < 2)  # no x + h crosses the plane
                elif sides is unequal:
                    assert len(np.unique(got[got >= 2])) == np.count_nonzero(got >= 2)
        _check_kernel_classes(PlanarJumpField(nu, 0.0, *constant[1]), shuffled, h)


@pytest.mark.parametrize("d", [2, 3])
def test_jump_side_coordinate_is_one_value_per_point(d):
    """For oblique normals, x.nu of a point alone, of the same point in a
    batch (and in the (t, 1, d) cell shape of `delta_dot_h`), and of the
    same grid cell as `kernel_classes` builds it from the axes are bitwise
    equal: a plane through the point's x.nu, or just below it, puts the
    cell in the side class that the point's own side test gives."""
    rng = np.random.default_rng(100 + d)
    axes = rng.uniform(0.0, 1.0, (7, d))
    x = fields_mod._tensor_grid(axes.T)
    h = rng.uniform(-0.3, 0.3, (40, d))
    for _ in range(2):
        nu = rng.standard_normal(d)
        nu /= np.linalg.norm(nu)
        batch = fields_mod._dot(x, nu)
        assert np.array_equal(_bits(fields_mod._dot(x[:, None, :], nu)[:, 0]), _bits(batch))
        hn = fields_mod._dot(h, nu)
        below, above = h[hn < 0.0], h[hn > 0.0]  # every x + h below x, or above it
        for i in rng.choice(len(x), 25, replace=False):
            alone = fields_mod._dot(x[i], nu)
            assert _bits(alone) == _bits(batch[i])
            # on the plane with every x + h below: all on the minus side;
            # just above it with every x + h above: all on the plus side
            for s, offsets, side in ((alone, below, 0), (np.nextafter(alone, -np.inf), above, 1)):
                f = PlanarJumpField(nu, float(s), _linear(rng, d), _linear(rng, d))
                assert _grid_ids(f, axes, offsets)[i] == side
                assert f._plus_side(x[i]) == side == f._plus_side(x)[i]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_offset_classes_contract(d):
    rng = np.random.default_rng(90 + d)
    unit = DomainBox([0.0] * d, [1.0] * d)
    for box in (unit, DomainBox(rng.uniform(-1, 0, d), rng.uniform(0.1, 2, d))):
        _, h = _class_grid(rng, d)
        # per axis a coarse grid (so classes repeat) plus random coordinates
        axes = np.vstack([np.tile(np.arange(0.125, 1.0, 0.125)[:, None], d),
                          rng.uniform(0.0, 1.0, (3, d))])
        axes = box.lo + axes * (box.hi - box.lo)
        # sums landing exactly on lo and hi, and duplicated offsets
        axes[0], h[2] = box.lo + 0.25, np.full(d, -0.25)
        axes[1], h[3] = box.hi - 0.25, np.full(d, 0.25)
        axes[2], h[4] = box.lo, np.zeros(d)
        h[5] = box.hi - axes[6]
        h[6] = box.lo - axes[7]
        h = np.vstack([h, h[2:7]])
        ids, rows = _grid_mask_classes(box, axes, h)
        assert len(np.unique(ids)) < len(ids)  # grid cells share classes
        if box is unit:
            diagonal = sum(len(axes) ** k for k in range(d))  # cell (i, .., i) = i * diagonal
            assert rows[0, 2] and rows[diagonal, 3] and rows[2 * diagonal, 4]


def test_offset_class_ids_stay_below_cells_cubed():
    # per-axis keys reach (K + 1)^2; dense ranks keep the 3-d mixed radix small
    rng = np.random.default_rng(99)
    box = DomainBox([0.0] * 3, [1.0] * 3)
    axes = rng.uniform(0.0, 1.0, (4, 3))
    h = rng.uniform(-0.5, 0.5, (60_000, 3))
    ids, _ = _grid_mask_classes(box, axes, h)
    assert ids.min() >= 0 and ids.max() < 4**3


def test_rigid_energy_stays_zero_on_the_per_cell_path(monkeypatch):
    """Without kernel classes every rigid cell reaches the pair blocks, whose
    kernel is a read-only broadcast view of 0.0: the hook scales it into its
    block buffer."""
    monkeypatch.setattr(RigidField, "kernel_classes", lambda self, x, h: None)
    rng = np.random.default_rng(190)
    for d in (1, 2, 3):
        req = en.EnergyRequest(
            field=_rigid(rng, d), domain=DomainBox([0.0] * d, [1.0] * d), p=1.0,
            mollifier=MollifierSpec("shell", 0.3, d), outer_grid=6, inner_level=4,
            workers=1)
        for run in (en.energy, en.residual_energy):
            res = run(req)
            assert res.value == 0.0 and res.est_quadrature_error == 0.0
        assert en.energy(replace(req, p=2.0)).value == 0.0


def _engine_fields(d):
    rng = np.random.default_rng(108 + d)
    eye = np.eye(d)
    zero = RigidField(np.zeros((d, d)), np.zeros(d))
    out = [
        ("rigid", _rigid(rng, d)),
        ("linear", _linear(rng, d)),
        ("jump-rigid", PlanarJumpField(eye[0], 0.5, zero,
                                       RigidField(np.zeros((d, d)), eye[d - 1]))),
        ("jump-linear", PlanarJumpField(-eye[d - 1], -0.4, _linear(rng, d), _linear(rng, d))),
    ]
    oblique = {2: [0.6, 0.8], 3: [0.48, 0.6, 0.64]}  # unit normals
    if d in oblique:
        out.append(("jump-oblique", PlanarJumpField(np.array(oblique[d]), 0.7,
                                                    _linear(rng, d), _linear(rng, d))))
    # constant jumps: equal nonzero spins, equal nonzero matrices
    spins, mats = _constant_sides(rng, d)
    out += [("jump-equal-spin", PlanarJumpField(eye[d - 1], 0.45, *spins)),
            ("jump-equal-linear", PlanarJumpField(-eye[0], -0.55, *mats))]
    if d in oblique:
        out.append(("jump-equal-oblique", PlanarJumpField(np.array(oblique[d]), 0.7, *mats)))
    return out


# outer grid, inner level and shell eps per dimension: several fine tiles,
# classes whose first cell lies in a later tile, and (d = 3) tiles holding none
_CLASS_GRIDS = {1: (140_000, 16, 0.1), 2: (128, 16, 0.1), 3: (16, 8, 0.2)}


@pytest.mark.parametrize("name", [n for n, _ in _engine_fields(2)])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_class_path_equals_every_cell(name, p, monkeypatch):
    """The engine with kernel classes gives the bits of the per-cell path,
    in d = 1..3, serial and through the pool."""
    reqs = {}
    for d, (n, level, eps) in _CLASS_GRIDS.items():
        f = dict(_engine_fields(d)).get(name)
        if f is None:
            continue  # no oblique plane in d = 1
        box = DomainBox([0.0] * d, [1.0] * d)
        reqs[d] = en.EnergyRequest(field=f, domain=box, p=p,
                                   mollifier=MollifierSpec("shell", eps, d), outer_grid=n,
                                   inner_level=level)
        h = en._inner_nodes(reqs[d], 2 * level)[0]
        keys = en._grid_mask(box, en._midpoints(box, n)[0], h)[2]
        _, first = en._grid_classes(keys)
        assert first.max() >= en._TILE_NODE_BUDGET // h.shape[0]  # past the first tile
    runs = [en.energy] + ([en.residual_energy] if p == 1.0 else [])

    def outputs(req, workers):
        req = replace(req, workers=workers)
        out = [(r.value, r.est_quadrature_error) for r in (run(req) for run in runs)]
        _, masses, est = en.density_masses(req)
        return out, _bits(masses), est

    classed = {d: [outputs(req, 1), outputs(req, 2)] for d, req in reqs.items()}
    for cls in (RigidField, LinearField, PlanarJumpField):
        monkeypatch.setattr(cls, "kernel_classes", lambda self, x, h: None)
    for d, req in reqs.items():
        every_cell = outputs(req, 1)
        for got in classed[d]:
            assert got[0] == every_cell[0]
            assert np.array_equal(got[1], every_cell[1])
            assert got[2] == every_cell[2]


def _pair_block_rows(monkeypatch, run, f, *args):
    """The number of cell rows in each call that run(*args) makes to f's
    `pair_blocks`, one call per tile."""
    rows = []
    real = type(f).pair_blocks

    def spy(self, x, *more):
        rows.append(len(x))
        return real(self, x, *more)

    monkeypatch.setattr(type(f), "pair_blocks", spy)
    run(*args)
    monkeypatch.undo()
    return rows


def _rows_evaluated(monkeypatch, run, f, *args):
    """The number of cell rows that run(*args) passes to f's `pair_blocks`."""
    return sum(_pair_block_rows(monkeypatch, run, f, *args))


def _cells_evaluated(monkeypatch, run, *args):
    """The number of cells in the `_run_masses` tasks of run(*args): a class
    call's evaluated classes."""
    tasks = []

    def record(*task):
        tasks.append(task)
        return _RUN_MASSES(*task)

    with monkeypatch.context() as m:
        m.setattr(en, "_run_masses", record)
        run(*args)
    return sum(_cell_count(task) for task in tasks)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_classes_evaluate_one_row_per_distinct_kernel_and_mask(d, monkeypatch):
    """The evaluated classes are one per distinct pair of kernel id and mask
    row, the mask taken by brute force from `contains(x + h)`, and the rows
    that reach `pair_blocks` one per distinct kernel id."""
    box = DomainBox([0.0] * d, [1.0] * d)
    for _, f in _engine_fields(d):
        req = en.EnergyRequest(field=f, domain=box, p=1.0,
                               mollifier=MollifierSpec("shell", 0.2, d), outer_grid=12,
                               inner_level=4, workers=1)
        grid = en._midpoints(box, 12)
        args = (req, (4,), 1, False, grid)
        classes = _cells_evaluated(monkeypatch, en._all_masses, *args)
        rows = _rows_evaluated(monkeypatch, en._all_masses, f, *args)
        h = en._inner_nodes(req, 4)[0]
        ids = _grid_ids(f, grid[0], h)
        pairs = np.column_stack([ids, _grid_contains(box, grid[0], h)])
        assert classes == len(np.unique(pairs, axis=0))
        assert len(np.unique(ids)) * len(h) <= fields_mod._BLOCK_PAIRS
        assert rows == len(np.unique(ids))


def _engine_classes(monkeypatch, req, grid):
    """Each cell's class representative as `_all_masses` gathers it (one
    level, serial), with `_run_masses` replaced by a stand-in whose mass of
    a cell is the cell's index."""
    with monkeypatch.context() as m:
        m.setattr(en, "_run_masses", lambda field, tile, cells, *rest: np.array([cells], float))
        return en._all_masses(req, (4,), 1, False, grid)[0][0].astype(np.int64)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_class_partition_equals_the_brute_force_one(d, monkeypatch):
    """The engine's classes, and each class's first cell, are those of one
    np.unique over the (kernel id, mask row) pairs of every grid cell, the
    mask by brute force from `contains(x + h)`: for ids along no axis, one
    axis and more, on midpoint axes and on shuffled ones with a repeat."""
    rng = np.random.default_rng(250 + d)
    box = DomainBox([0.0] * d, [1.0] * d)
    fields = [f for _, f in _engine_fields(d)]
    if d == 3:
        fields += [PlanarJumpField(np.array([0.6, 0.0, 0.8]), 0.7, *sides)
                   for sides in (_constant_sides(rng, 3)[1], (_linear(rng, 3), _linear(rng, 3)))]
    axes = en._midpoints(box, 12)[0]
    shuffled = axes[rng.permutation(12)]
    shuffled[1] = shuffled[0]
    for f in fields:
        req = en.EnergyRequest(field=f, domain=box, p=1.0,
                               mollifier=MollifierSpec("shell", 0.2, d), outer_grid=12,
                               inner_level=4, workers=1)
        h = en._inner_nodes(req, 4)[0]
        for grid in (axes, shuffled):
            pairs = np.column_stack([_grid_ids(f, grid, h), _grid_contains(box, grid, h)])
            _, first, inv = np.unique(pairs, axis=0, return_index=True, return_inverse=True)
            assert np.array_equal(_engine_classes(monkeypatch, req, (grid, 1.0)),
                                  first[inv.ravel()])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_constant_jump_band_evaluates_one_row_per_plane_distance(d, monkeypatch):
    """A jump whose sides share one matrix evaluates one row per distinct pair
    of (side, or x.nu in the band) and mask row, counted by brute force from
    the side tests of `delta_dot_h` and `contains(x + h)`; for d > 1 fewer
    band rows than band cells."""
    box = DomainBox([0.0] * d, [1.0] * d)
    for name, f in _engine_fields(d):
        if not name.startswith("jump-equal"):
            continue
        assert np.all(np.diff(f.jump_at(np.random.default_rng(d).uniform(0, 1, (50, d))),
                              axis=0) == 0.0)
        req = en.EnergyRequest(field=f, domain=box, p=1.0,
                               mollifier=MollifierSpec("shell", 0.2, d), outer_grid=12,
                               inner_level=4, workers=1)
        grid = en._midpoints(box, 12)
        args = (req, (4,), 1, False, grid)
        classes = _cells_evaluated(monkeypatch, en._all_masses, *args)
        rows = _rows_evaluated(monkeypatch, en._all_masses, f, *args)
        h = en._inner_nodes(req, 4)[0]
        x = fields_mod._tensor_grid(grid[0].T)
        xn, hn = fields_mod._dot(x, f.normal), fields_mod._dot(h, f.normal)
        side = xn - f.offset > 0.0
        band = np.any(((xn[:, None] + hn) - f.offset > 0.0) != side[:, None], axis=1)
        keys = np.column_stack([band, np.where(band, xn, side), _grid_contains(box, grid[0], h)])
        assert classes == len(np.unique(keys, axis=0))
        assert d == 1 or len(np.unique(keys[band], axis=0)) < band.sum()
        assert rows == len(np.unique(keys[:, :2], axis=0))


def _c10_fields():
    """The criterion-10 linear, jump (zero spins, a constant jump) and sin fields."""
    zero = RigidField(np.zeros((2, 2)), np.zeros(2))
    return [("linear", LinearField(np.eye(2), np.zeros(2))),
            ("jump", PlanarJumpField(np.array([1.0, 0.0]), 0.5, zero,
                                     RigidField(np.zeros((2, 2)), np.array([0.0, 1.0])))),
            ("sin", SinField(np.array([0.3, 0.2]), np.array([[3.0, 1.0], [1.0, 2.0]])))]


def _c10_request(f, workers=1):
    return en.EnergyRequest(field=f, domain=DomainBox([0.0] * 2, [1.0] * 2), p=1.0,
                            mollifier=MollifierSpec("shell", 0.025, 2), outer_grid=320,
                            inner_level=16, workers=workers)


def test_criterion_10_jump_evaluates_at_most_600_rows(monkeypatch):
    """The criterion-10 jump at N = 320: its band's 5,120 cells share one
    class per distinct x.nu and mask row."""
    c10 = dict(_c10_fields())["jump"]
    assert _rows_evaluated(monkeypatch, en.energy, c10, _c10_request(c10)) <= 600


def _d3_study_request(eps=0.4, workers=1):
    """The request of the benchmark's d3-jump-study at seed 0 and one of its
    eps: a 3-d jump across x_1 = 1/2 between linear sides that share one
    matrix, N = 24, inner level 4."""
    a = np.array([[0.4, 0.1, 0.0], [0.0, -0.2, 0.1], [0.05, 0.0, 0.3]])
    jump = PlanarJumpField(np.array([1.0, 0.0, 0.0]), 0.5, LinearField(a, np.zeros(3)),
                           LinearField(a, np.array([0.2, 1.0, 0.3])))
    return en.EnergyRequest(field=jump, domain=DomainBox([0.0] * 3, [1.0] * 3), p=1.0,
                            mollifier=MollifierSpec("shell", eps, 3), outer_grid=24,
                            inner_level=4, workers=workers)


def test_class_calls_evaluate_each_distinct_kernel_row_once(monkeypatch):
    """A class call hands `pair_blocks` one row per distinct kernel id, not
    one per evaluated class: the criterion-10 linear call 1 row for its 289
    classes, the jump 18 (its two sides and 16 columns of x.nu) for 578, and
    the d3-jump-study request at eps 0.4 18 for 6,120."""
    c10 = dict(_c10_fields())
    for req, want, classes in ((_c10_request(c10["linear"]), 1, 289),
                               (_c10_request(c10["jump"]), 18, 578),
                               (_d3_study_request(), 18, 6120)):
        levels = (req.inner_level, 2 * req.inner_level)
        h = np.concatenate([en._inner_nodes(req, level)[0] for level in levels])
        axes = en._midpoints(req.domain, req.outer_grid)[0]
        assert len(np.unique(req.field.kernel_classes(axes, h))) == want
        assert _cells_evaluated(monkeypatch, en.energy, req) == classes
        assert _rows_evaluated(monkeypatch, en.energy, req.field, req) == want


def test_d3_jump_study_class_call_has_the_bits_of_every_cell(monkeypatch):
    """The d3-jump-study request at eps 0.4, through its table of distinct
    kernel rows at 1 and 2 workers, gives the bits of the per-cell path:
    value, error bar, density masses and the residual's value, error bar and
    density masses."""
    def outputs(workers):
        req = _d3_study_request(workers=workers)
        plain, res = en.energy(req), en.residual_energy(req)
        masses = [en.density_masses(req, residual)[1] for residual in (False, True)]
        return ((plain.value, plain.est_quadrature_error, res.value, res.est_quadrature_error),
                [_bits(m) for m in masses])

    classed = [outputs(1), outputs(2)]
    monkeypatch.setattr(PlanarJumpField, "kernel_classes", lambda self, x, h: None)
    every_cell = outputs(1)
    for values, masses in classed:
        assert values == every_cell[0]
        assert all(np.array_equal(a, b) for a, b in zip(masses, every_cell[1]))


def test_unequal_matrix_axis_jump_evaluates_its_classes_one_by_one(monkeypatch):
    """An axis-normal jump whose sides' matrices differ has one kernel id per
    band cell. At N = 64 on the criterion-10 request its distinct rows do not
    fit one block of `_BLOCK_PAIRS` pairs, so each evaluated class reaches
    `pair_blocks`: one row per distinct pair of kernel id and mask row, the
    mask by brute force from `contains(x + h)`."""
    jump = PlanarJumpField(np.array([0.0, -1.0]), -0.5,
                           LinearField(np.array([[1.0, 0.5], [-0.3, 0.2]]), np.zeros(2)),
                           LinearField(np.array([[-0.4, 0.1], [0.6, 1.2]]), np.ones(2)))
    req = replace(_c10_request(jump), outer_grid=64)
    axes = en._midpoints(req.domain, 64)[0]
    h = np.concatenate([en._inner_nodes(req, level)[0] for level in (16, 32)])
    ids = _grid_ids(jump, axes, h)
    assert len(np.unique(ids)) * len(h) > fields_mod._BLOCK_PAIRS
    pairs = np.column_stack([ids, _grid_contains(req.domain, axes, h)])
    classes = len(np.unique(pairs, axis=0))
    assert _cells_evaluated(monkeypatch, en.energy, req) == classes
    assert _rows_evaluated(monkeypatch, en.energy, jump, req) == classes


def test_serial_criterion_10_class_call_runs_one_tile(monkeypatch):
    """A serial criterion-10 linear or jump call evaluates its class
    representatives (under 1,638 cells, one tile of the two levels' 640
    nodes) in one `pair_blocks` call."""
    for _, f in _c10_fields()[:2]:
        assert len(_pair_block_rows(monkeypatch, en.energy, f, _c10_request(f))) == 1


def test_axis_normal_jump_call_ranks_no_more_than_n_values(monkeypatch):
    """An N = 64 criterion-10 jump call (nu = e_1) hands np.unique no array
    longer than N: its kernel ids are ranked over axis 0's N values, not
    over the N^2 cells."""
    c10 = dict(_c10_fields())["jump"]
    req = replace(_c10_request(c10), outer_grid=64)
    sizes, unique = [], np.unique

    def spy(a, *args, **kwargs):
        sizes.append(np.size(a))
        return unique(a, *args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    en.energy(req)
    assert sizes and max(sizes) <= 64


class _Sent(Exception):
    pass


def test_criterion_10_runs_are_equal_shares_of_the_evaluated_cells(monkeypatch):
    """At 2, 3 and 8 workers the criterion-10 linear, jump and sin calls send
    min(workers, evaluated cells) tasks, counted by the cells of the serial
    call's task, whose cell counts differ by at most 1."""
    sent = []

    def record(workers, fn, tasks):
        sent.append([_cell_count(task) for task in tasks])
        raise _Sent

    for _, f in _c10_fields():
        evaluated = _cells_evaluated(monkeypatch, en.energy, _c10_request(f))
        monkeypatch.setattr(en, "_pool_map", record)
        for workers in (2, 3, 8):
            with pytest.raises(_Sent):
                en.energy(_c10_request(f, workers))
            sizes = sent.pop()
            assert len(sizes) == min(workers, evaluated) and sum(sizes) == evaluated
            assert max(sizes) - min(sizes) <= 1
        monkeypatch.undo()


@pytest.mark.parametrize("d", [1, 2])
def test_class_path_on_merged_midpoints(d, monkeypatch):
    """At lo = 1e16 and width 4 several of an axis's 8 midpoints round to the
    same float, so their cells share mask rows and key ranks: the grid
    classes still give the bits of the per-cell path."""
    box = DomainBox([1e16] * d, [1e16 + 4.0] * d)
    assert len(np.unique(en._midpoints(box, 8)[0][:, 0])) < 8
    req = en.EnergyRequest(field=LinearField(np.eye(d), np.zeros(d)), domain=box, p=1.0,
                           mollifier=MollifierSpec("shell", 0.5, d), outer_grid=8,
                           inner_level=4, workers=1)

    def outputs():
        res = en.energy(req)
        return res.value, res.est_quadrature_error, _bits(en.density_masses(req)[1])

    classed = outputs()
    monkeypatch.setattr(LinearField, "kernel_classes", lambda self, x, h: None)
    every_cell = outputs()
    assert classed[:2] == every_cell[:2]
    assert np.array_equal(classed[2], every_cell[2])
    if d == 1:
        assert classed[0] == 4.0
