"""Discrete gradient measures and weak-star comparison.

Core claims:
    - the density measure redistributes exactly the energy total onto the
      outer nodes (bitwise, shared accumulation)
    - mass concentrates on the interface strip for a pure jump field
    - the reference measure reproduces frozen totals: 1 for the identity
      field, 1/pi for a unit tangential jump, 0 for rigid motions
    - smooth cell masses are computed in bounded memory and match a
      whole-grid evaluation
    - the reference measure's cell atoms are the density measure's points
    - pairings are linear, bounded by the total, and match closed forms
      against kinked test functions on the interface; a cosine test function
      gives a point the same bits alone and in a batch, and so does a tent,
      whose values have the bits of numpy's last-axis sum of squares; both
      reject points of another dimension
    - weak-star gaps shrink with epsilon and vanish identically for rigid
      fields
    - CSV export round-trips points and masses at full precision
    - the per-axis side volumes of a cut grid, and the limit measure's
      volume masses, equal the per-cell formula on the cells' corners bit
      for bit; a constant jump's interface atoms, whose density is taken
      once, equal the per-node formula bit for bit
"""

import importlib
import math
import tracemalloc

import numpy as np
import pytest

from nldef import (
    DimensionError,
    DomainBox,
    LinearField,
    ModelError,
    MollifierSpec,
    ParameterError,
    PlanarJumpField,
    RigidField,
    SampledField,
    SinField,
    TestFunction,
    ground_truth,
    make_sphere_rule,
)

en = importlib.import_module("nldef.energy")
me = importlib.import_module("nldef.measures")
fl = importlib.import_module("nldef.fields")

BOX = DomainBox([0.0, 0.0], [1.0, 1.0])


def _jump(a=(0.0, 1.0)):
    zero = RigidField(np.zeros((2, 2)), np.zeros(2))
    shift = RigidField(np.zeros((2, 2)), np.asarray(a, dtype=float))
    return PlanarJumpField(np.array([1.0, 0.0]), 0.5, zero, shift)


def _req(field, **kw):
    base = dict(field=field, domain=BOX, p=1.0,
                mollifier=MollifierSpec("shell", 0.1, 2),
                outer_grid=32, inner_level=16, workers=1)
    base.update(kw)
    return en.EnergyRequest(**base)


def _gap_reqs(field, eps_list, outer_n=None):
    """One request per eps on the grid N = max(64, ceil(8 / eps)) or outer_n."""
    return [_req(field, mollifier=MollifierSpec("shell", eps, 2),
                 outer_grid=outer_n or max(64, math.ceil(8.0 / eps)))
            for eps in eps_list]


# -- density measure ---------------------------------------------------------

def test_density_requires_p1():
    with pytest.raises(ParameterError):
        me.density_measure(_req(_jump(), p=2.0))


def test_density_total_matches_energy_bitwise():
    req = _req(_jump())
    m = me.density_measure(req)
    res = en.energy(req)
    assert m.total() == res.value
    assert m.points.shape == (32 * 32, 2)
    assert np.all(m.masses >= 0.0)


def test_density_rigid_all_zero():
    m = me.density_measure(_req(RigidField(np.array([[0.0, 0.4], [-0.4, 0.0]]),
                                           np.array([0.2, 0.1]))))
    assert np.all(m.masses == 0.0)
    assert m.total() == 0.0


def test_density_concentrates_on_interface_strip():
    eps = 0.1
    m = me.density_measure(_req(_jump(), mollifier=MollifierSpec("shell", eps, 2)))
    dist = np.abs(m.points[:, 0] - 0.5)
    near = dist <= eps + 0.5 * math.sqrt(2.0) / 32 + 1e-12
    assert m.masses[near].sum() >= 0.9 * m.total()
    # outer nodes farther than the kernel reach see no crossing pairs at all
    far = dist > eps + 1e-12
    assert np.all(m.masses[far] == 0.0)


# -- reference measure -------------------------------------------------------

def test_reference_measure_identity_total():
    m = me.ground_truth_measure(LinearField(np.eye(2), np.zeros(2)), BOX)
    assert abs(m.total() - 1.0) < 1e-8


def test_reference_measure_jump_total():
    m = me.ground_truth_measure(_jump(), BOX)
    assert abs(m.total() - 1.0 / math.pi) < 1e-9
    assert np.all(m.masses >= 0.0)


def test_reference_measure_rigid_zero():
    m = me.ground_truth_measure(RigidField(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                           np.zeros(2)), BOX)
    assert m.total() == 0.0


def test_reference_measure_smooth_matches_ground_truth():
    f = SinField(np.array([0.3, 0.2]), np.array([[3.0, 1.0], [1.0, 2.0]]))
    m = me.ground_truth_measure(f, BOX)
    gt = ground_truth(f, BOX, 1.0, make_sphere_rule(2, 256))
    assert abs(m.total() - gt.total) < 1e-8


@pytest.mark.parametrize("normal, offset, box, n_cells, ac", [
    # {x_1 > -0.37} holds 0.87 of the centred unit cube; the plane cuts
    # the cells over [-0.375, -0.25]
    ([-1.0, 0.0, 0.0], 0.37, DomainBox([-0.5] * 3, [0.5] * 3), 8, 0.87 + 0.13 * 2.0),
    # the chord from (0, 0.875) to (1, 0.125) halves the unit square
    ([0.6, 0.8], 0.7, BOX, 64, 0.5 + 0.5 * 2.0),
])
def test_reference_measure_jump_cells_sum_to_ground_truth(normal, offset, box, n_cells, ac):
    # linear sides with Q_1 = 1 (minus) and Q_1 = 2 (plus)
    d = box.dim
    f = PlanarJumpField(np.array(normal), offset, LinearField(np.eye(d), np.zeros(d)),
                        LinearField(2.0 * np.eye(d), np.full(d, 0.1)))
    rule = make_sphere_rule(d, 64)
    gt = ground_truth(f, box, 1.0, rule)
    m = me.ground_truth_measure(f, box, rule, n_cells=n_cells)
    assert abs(m.masses[: n_cells**d].sum() - gt.ac_value) <= 1e-12 * gt.ac_value
    assert abs(gt.ac_value - ac) <= 1e-12 * ac


def test_reference_cell_atoms_are_the_density_points():
    # the d3-jump-study grid: both measures put their cell atoms at the
    # engine's midpoints, so a weak-* pairing compares them at equal points
    n, box = 24, DomainBox([0.0] * 3, [1.0] * 3)
    mat = np.array([[0.4, 0.1, 0.0], [0.0, -0.2, 0.1], [0.05, 0.0, 0.3]])
    f = PlanarJumpField(np.eye(3)[0], 0.5, LinearField(mat, np.zeros(3)),
                        LinearField(mat, np.array([0.2, 1.0, 0.3])))
    ref = me.ground_truth_measure(f, box, make_sphere_rule(3, 64), n_cells=n)
    req = en.EnergyRequest(field=f, domain=box, p=1.0, mollifier=MollifierSpec("shell", 0.4, 3),
                           outer_grid=n, inner_level=4, workers=1)
    pts = en.density_masses(req)[0]
    assert np.array_equal(ref.points[: n**3].view(np.uint64), pts.view(np.uint64))


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _per_cell_side_volumes(lo, hi, normal, offset):
    """Reference: the volumes of each cell [lo_k, hi_k] (corners (m, d)) below
    and above the plane <x, +-e_j> = offset, one product of widths per cell."""
    widths = hi - lo
    total = np.prod(widths, axis=1)
    j = int(np.argmax(np.abs(normal)))
    below = np.clip(offset / normal[j], lo[:, j], hi[:, j]) - lo[:, j]
    rest = np.prod(np.delete(widths, j, axis=1), axis=1)
    if normal[j] > 0:
        return below * rest, total - below * rest
    return total - below * rest, below * rest


@pytest.mark.parametrize("d", [1, 2, 3])
def test_side_volumes_equal_the_per_cell_formula(d):
    """`_side_volumes` on per-axis edges (uneven cell counts and widths) gives
    the bits of the per-cell formula, for +-e_j and planes inside a cell, on
    a cell face and outside the box on either side."""
    rng = np.random.default_rng(150 + d)
    step = rng.uniform(0.1, 0.3, d)
    lo = [rng.uniform(-1.0, 0.0) + step[k] * np.arange(n) for k, n in enumerate((5, 7, 3)[:d])]
    hi = [a + s for a, s in zip(lo, step)]
    corners = fl._tensor_grid(lo), fl._tensor_grid(hi)
    for j in range(d):
        for cut in (lo[j][1] + 0.3 * step[j], lo[j][2], hi[j][1], lo[j][0] - 1.0, hi[j][-1] + 1.0):
            for nu in (np.eye(d)[j], -np.eye(d)[j]):
                got = fl._side_volumes(lo, hi, nu, cut * nu[j])
                want = _per_cell_side_volumes(*corners, nu, cut * nu[j])
                assert all(np.array_equal(_bits(g), _bits(w)) for g, w in zip(got, want))
                assert np.all(got[0] >= 0.0) and np.all(got[1] >= 0.0)


@pytest.mark.parametrize("n", [24, 64])
def test_jump_volume_masses_equal_the_per_cell_formula(n):
    """The limit measure's volume atoms are Q_1 of each side times the per-cell
    side volumes on the grid's corners, bit for bit: the d3-jump-study field,
    and a 2-d jump across -e_2 whose plane cuts a row of cells."""
    mat = np.array([[0.4, 0.1, 0.0], [0.0, -0.2, 0.1], [0.05, 0.0, 0.3]])
    cases = [
        (PlanarJumpField(np.eye(3)[0], 0.5, LinearField(mat, np.zeros(3)),
                         LinearField(mat, np.array([0.2, 1.0, 0.3]))),
         DomainBox([0.0] * 3, [1.0] * 3)),
        (PlanarJumpField(np.array([0.0, -1.0]), -0.3, LinearField(np.eye(2), np.zeros(2)),
                         LinearField(np.diag([2.0, -1.0]), np.ones(2))),
         DomainBox([-0.2, 0.1], [0.9, 0.75])),
    ]
    for f, box in cases:
        d = box.dim
        rule = make_sphere_rule(d, 64)
        step = (box.hi - box.lo) / n
        lo = box.lo + step * fl._tensor_grid([np.arange(n)] * d)
        vol_minus, vol_plus = _per_cell_side_volumes(lo, lo + step, f.normal, f.offset)
        q_minus, q_plus = (fl._qp_pow_of_sym(side.sym_gradient(box.center())[None], 1.0, rule)[0]
                           for side in (f.minus, f.plus))
        want = q_minus * vol_minus + q_plus * vol_plus
        got = me.ground_truth_measure(f, box, rule, n_cells=n).masses[: n**d]
        assert np.array_equal(_bits(got), _bits(want))


def _per_node_interface_atoms(f, box, rule, n):
    """Reference: the jump a(x) at every interface node, one Q_1(a ⊙ normal)
    per node."""
    pts, wts = fl._interface_nodes(box, f.normal, f.offset, n)
    a = f.jump_at(pts)
    m = 0.5 * (a[:, :, None] * f.normal[None, None, :] + f.normal[None, :, None] * a[:, None, :])
    return pts, wts * fl._qp_pow_of_sym(m, 1.0, rule)


def test_interface_atoms_of_a_constant_jump_equal_the_per_node_formula(monkeypatch):
    """Sides with one matrix give a constant jump, whose interface density is
    taken once and has the bits of the per-node formula: a 2-d axis normal
    (rigid sides, one spin), a 2-d oblique normal and the d3-jump-study
    field (its density goes through the sphere rule). Unequal matrices still
    evaluate a(x) at every node."""
    mat = np.array([[0.4, 0.1, 0.0], [0.0, -0.2, 0.1], [0.05, 0.0, 0.3]])
    spin = np.array([[0.0, 0.7], [-0.7, 0.0]])
    lin2 = np.array([[1.0, 0.5], [-0.3, 0.2]])
    nu = np.array([np.cos(0.3), np.sin(0.3)])
    box2, box3 = DomainBox([0.0, 0.0], [1.0, 1.0]), DomainBox([0.0] * 3, [1.0] * 3)
    constant = [
        (PlanarJumpField(np.array([0.0, -1.0]), -0.45, RigidField(spin, np.array([0.1, -0.2])),
                         RigidField(spin, np.array([0.8, 0.3]))), box2, 256),
        (PlanarJumpField(nu, 0.7, LinearField(lin2, np.zeros(2)),
                         LinearField(lin2, np.ones(2))), box2, 256),
        (PlanarJumpField(np.eye(3)[0], 0.5, LinearField(mat, np.zeros(3)),
                         LinearField(mat, np.array([0.2, 1.0, 0.3]))), box3, 64),
    ]
    unequal = [(PlanarJumpField(nu, 0.7, LinearField(lin2, np.zeros(2)),
                                LinearField(lin2.T, np.ones(2))), box2, 256)]
    calls = []
    jump_at = PlanarJumpField.jump_at
    monkeypatch.setattr(PlanarJumpField, "jump_at",
                        lambda self, x: calls.append(len(x)) or jump_at(self, x))
    for f, box, n in constant + unequal:
        rule = make_sphere_rule(box.dim, 64)
        calls.clear()
        pts, masses = fl._interface_atoms(f, box, rule, n)
        per_node = sum(calls)  # points handed to jump_at
        want_pts, want = _per_node_interface_atoms(f, box, rule, n)
        assert len(masses) == n ** (box.dim - 1) and masses.min() > 0.0
        assert np.array_equal(_bits(pts), _bits(want_pts))
        assert np.array_equal(_bits(masses), _bits(want))
        assert per_node == (len(pts) if f._jump[0].any() else 0)


def _whole_grid_cell_masses(f, box, n, g, rule):
    """Reference: every (n g)^d Gauss point at once, summed per cell."""
    d = box.dim
    step = (box.hi - box.lo) / n
    z, w = np.polynomial.legendre.leggauss(g)
    nodes = [(box.lo[i] + step[i] * (np.arange(n)[:, None] + 0.5 * (z + 1.0))).ravel()
             for i in range(d)]
    grids = np.meshgrid(*nodes, indexing="ij")
    pts = np.stack([a.ravel() for a in grids], axis=1)
    wts = np.tile(0.5 * step[0] * w, n)
    for i in range(1, d):
        wts = np.multiply.outer(wts, np.tile(0.5 * step[i] * w, n))
    vals = fl._qp_pow_of_sym(f.sym_gradient(pts), 1.0, rule) * wts.ravel()
    return vals.reshape((n, g) * d).sum(axis=tuple(range(1, 2 * d, 2))).ravel()


@pytest.mark.parametrize("d,n,g", [(1, 40, 8), (2, 9, 16), (3, 5, 4), (3, 3, 16)])
def test_smooth_cell_masses_match_whole_grid(d, n, g):
    rng = np.random.default_rng(130 + d)
    f = SinField(rng.uniform(0.1, 0.5, d), rng.uniform(-4.0, 4.0, (d, d)))
    box = DomainBox(rng.uniform(-1.0, 0.0, d), rng.uniform(0.5, 1.5, d))
    rule = make_sphere_rule(d, 16)
    got = fl._cell_integrals(lambda x: fl._qp_pow_of_sym(f.sym_gradient(x), 1.0, rule),
                             box, n, g)
    want = _whole_grid_cell_masses(f, box, n, g, rule)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_smooth_3d_reference_measure_bounded_memory():
    # the whole-grid evaluation peaked at 422 MB here (128^3 Gauss points at g = 16)
    f = SinField(np.array([0.3, 0.2, 0.4]),
                 np.array([[3.0, 1.0, 0.5], [1.0, 2.0, 0.0], [0.5, 0.0, 1.5]]))
    box = DomainBox([0.0] * 3, [1.0] * 3)
    tracemalloc.start()
    try:
        m = me.ground_truth_measure(f, box, make_sphere_rule(3, 16), n_cells=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 80e6
    assert len(m) == 512 and m.total() > 0.0


def test_reference_measure_rejects_sampled():
    samp = SampledField(np.zeros(2), np.ones(2), np.zeros((3, 3, 2)))
    with pytest.raises(ModelError):
        me.ground_truth_measure(samp, BOX)


# -- csv round trip ----------------------------------------------------------

def test_measure_csv_roundtrip(tmp_path):
    """A header of the d coordinates and the mass, one row per atom, and the
    points and masses parse back bit for bit: a 2-d jump measure (cell and
    interface atoms) and a smooth 3-d one."""
    lin3 = LinearField(np.array([[0.4, 0.1, 0.0], [0.0, -0.2, 0.1], [0.05, 0.0, 0.3]]),
                       np.zeros(3))
    cases = [(me.ground_truth_measure(_jump(), BOX), "x_1,x_2,mass"),
             (me.ground_truth_measure(lin3, DomainBox([0.0] * 3, [1.0] * 3),
                                      make_sphere_rule(3, 16), n_cells=4),
              "x_1,x_2,x_3,mass")]
    for k, (m, header) in enumerate(cases):
        d = m.domain.dim
        path = tmp_path / f"measure{k}.csv"
        m.to_csv(path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == header
        assert text.endswith("\n")
        assert len(lines) == len(m) + 1 and len(m) > 0
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert rows.shape == (len(m), d + 1)
        assert np.array_equal(rows[:, :d], m.points)
        assert np.array_equal(rows[:, d], m.masses)
        assert m.masses.max() > 0.0


# -- test functions and pairing ----------------------------------------------

def test_function_labels():
    assert TestFunction.const_one().label() == "const_one"
    assert "," not in TestFunction.tent([0.5, 0.5], 0.25).label()
    assert "," not in TestFunction.cosine([1.0, 0.0]).label()


def test_function_eval_shapes():
    tent = TestFunction.tent([0.5, 0.5], 0.25)
    vals = tent.eval(np.array([[0.5, 0.5], [0.75, 0.5], [0.9, 0.5]]))
    assert np.allclose(vals, [1.0, 0.0, 0.0])
    assert tent.sup_norm == 1.0
    cos = TestFunction.cosine([1.0, 0.0])
    assert abs(cos.eval(np.array([0.5, 0.3])) - math.cos(math.pi)) < 1e-15


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tent_equals_the_last_axis_sum_and_a_point_its_batch_row(d):
    """The tent's |x - c|^2, summed as column terms in axis order, has the
    bits of numpy's last-axis sum of the squared differences, and a point
    alone gets the bits of its batch row."""
    rng = np.random.default_rng(40 + d)
    tent = TestFunction.tent(rng.uniform(0.0, 1.0, d), 0.3)
    x = rng.uniform(-0.5, 1.5, (5000, d))
    x[:20] = tent.center + rng.uniform(-0.3, 0.3, (20, d))  # inside the support
    old = np.maximum(0.0, 1.0 - np.sqrt(((x - tent.center) ** 2).sum(axis=-1)) / tent.radius)
    got = tent.eval(x)
    assert (got[:20] > 0.0).any() and np.array_equal(_bits(got), _bits(old))
    assert all(_bits(tent.eval(p)) == _bits(v) for p, v in zip(x[:50], got[:50]))
    for wrong in (1, 2, 3, 4):  # points of another dimension than the center's
        if wrong != d:
            with pytest.raises(DimensionError):
                tent.eval(x[:, :1].repeat(wrong, axis=1))


def test_cosine_rejects_points_of_another_dimension():
    """A cosine evaluated on points whose dimension is not its wave's raises
    DimensionError, as the tent does, instead of dropping wave components."""
    assert TestFunction.cosine([1.0, 0.0, 0.5]).eval(np.full((2, 3), 0.25)).shape == (2,)
    for wave, x in (([1.0, 0.0, 0.5], np.full((2, 2), 0.25)),
                    ([1.0, 2.0], np.full((4, 3), 0.25)),
                    ([1.0, 2.0], np.array([0.25]))):
        with pytest.raises(DimensionError):
            TestFunction.cosine(wave).eval(x)


@pytest.mark.parametrize("d", [2, 3])
def test_cosine_point_alone_equals_its_batch_row(d):
    # k.x is a fixed-order sum, so a point's value does not depend on its batch
    rng = np.random.default_rng(40 + d)
    x = rng.uniform(0.0, 1.0, (4000, d))
    phi = TestFunction.cosine(rng.uniform(-3.0, 3.0, d))
    batch = phi.eval(x)
    assert np.array_equal([phi.eval(pt) for pt in x], batch)


def test_pair_const_one_is_total():
    m = me.ground_truth_measure(_jump(), BOX)
    assert me.pair(m, TestFunction.const_one()) == m.total()


def test_pair_linearity():
    req = _req(_jump())
    m = me.density_measure(req)
    t1 = TestFunction.tent([0.5, 0.5], 0.25)
    t2 = TestFunction.cosine([1.0, 0.0])
    v1, v2 = me.pair(m, t1), me.pair(m, t2)
    assert abs(v1) <= m.total() * t1.sup_norm + 1e-15
    assert abs(v2) <= m.total() * t2.sup_norm + 1e-15


def test_pair_tent_on_interface_closed_form():
    # the tent is centered on the interface, so pairing against the jump
    # measure integrates (1 - 4|y - 1/2|) over the chord: 0.25 / pi
    m = me.ground_truth_measure(_jump(), BOX)
    got = me.pair(m, TestFunction.tent([0.5, 0.5], 0.25))
    assert abs(got - 0.25 / math.pi) < 1e-4


def test_pair_zero_measure():
    m = me.ground_truth_measure(RigidField(np.zeros((2, 2)), np.zeros(2)), BOX)
    assert me.pair(m, TestFunction.tent([0.5, 0.5], 0.25)) == 0.0


# -- weak-star gaps ----------------------------------------------------------

def test_weakstar_rows_shape_and_shrink():
    phis = [TestFunction.const_one(), TestFunction.tent([0.5, 0.5], 0.25)]
    rows = me.weakstar_gap(_gap_reqs(_jump(), [0.2, 0.1, 0.05]), phis)
    assert len(rows) == 6
    for r in rows:
        assert set(r) == {"eps", "phi", "gap", "pair_value", "ref_value", "est_quad_err"}
        assert r["gap"] >= 0.0
    by_phi = {}
    for r in rows:
        by_phi.setdefault(r["phi"], []).append(r["gap"])
    for gaps in by_phi.values():
        assert gaps[-1] < gaps[0]


def test_weakstar_rigid_all_zero():
    f = RigidField(np.array([[0.0, 0.5], [-0.5, 0.0]]), np.array([1.0, 0.0]))
    rows = me.weakstar_gap(_gap_reqs(f, [0.2, 0.1]), [TestFunction.const_one()])
    for r in rows:
        assert r["gap"] == 0.0
        assert r["pair_value"] == 0.0
        assert r["ref_value"] == 0.0


def test_weakstar_rejects_bad_request_lists():
    f, one = _jump(), [TestFunction.const_one()]
    with pytest.raises(ParameterError):
        me.weakstar_gap([], one)
    with pytest.raises(ParameterError):
        me.weakstar_gap([_req(f), _req(f, p=2.0)], one)
    with pytest.raises(ParameterError):
        me.weakstar_gap([_req(f), _req(_jump())], one)
    with pytest.raises(ParameterError):
        me.weakstar_gap([_req(f), _req(f, domain=DomainBox([0.0, 0.0], [1.0, 1.0]))], one)


def test_weakstar_const_one_gap_is_total_error():
    rows = me.weakstar_gap(_gap_reqs(LinearField(np.eye(2), np.zeros(2)), [0.2], outer_n=32),
                           [TestFunction.const_one()])
    r = rows[0]
    assert abs(r["gap"] - abs(r["pair_value"] - r["ref_value"])) < 1e-15
    assert abs(r["ref_value"] - 1.0) < 1e-6
