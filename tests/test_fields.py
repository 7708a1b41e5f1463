"""Field catalog, ground truth, mollification, config factory.

Core claims:
    - DomainBox geometry (volume, contains, dilate, erode-to-empty) is exact
    - RigidField reports an exactly zero pair kernel and zero gradient
    - Linear/Sin/Bump fields match their closed-form values and gradients
    - a point's values, gradient, jump and sin pair factors have the same
      bits alone and in a batch
    - PlanarJumpField picks sides correctly (interface -> minus) and its
      kernel switches between sidewise and cross formulas
    - SampledField interpolates affine fields exactly and range-checks eval
    - ground_truth reproduces the frozen oracle values, is additive over
      box splits, and refuses the cases outside its model
    - mollify preserves affine fields and smooths jumps plausibly; it and
      the limit measure reject bad sizes, scales and spacings by argument
    - field_from_config builds every catalog id and reports paths on errors
    - the tensor-grid points have the bits and dtype of meshgrid-and-stack
"""

import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nldef
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
    exact_sym_gradient,
    field_from_config,
    ground_truth,
    make_sphere_rule,
    mollify,
    q_norm,
    SymMatrix,
)

RULE2 = make_sphere_rule(2, 64)


def _skew2(w):
    return np.array([[0.0, w], [-w, 0.0]])


def _zero_rigid(d=2):
    return RigidField(np.zeros((d, d)), np.zeros(d))


def _shift_rigid(vec):
    vec = np.asarray(vec, dtype=float)
    return RigidField(np.zeros((len(vec), len(vec))), vec)


def _tangential_jump():
    return PlanarJumpField(
        np.array([1.0, 0.0]), 0.5, _zero_rigid(), _shift_rigid([0.0, 1.0])
    )


# -- DomainBox ---------------------------------------------------------------

def test_box_basics():
    box = DomainBox([0.0, -1.0], [2.0, 1.0])
    assert box.dim == 2
    assert box.volume() == 4.0
    assert not box.is_empty
    assert bool(box.contains(np.array([1.0, 0.0])))
    assert bool(box.contains(np.array([0.0, -1.0])))  # boundary included
    assert not bool(box.contains(np.array([2.1, 0.0])))

def test_box_contains_vectorized():
    box = DomainBox([0.0, 0.0], [1.0, 1.0])
    pts = np.array([[0.5, 0.5], [1.5, 0.5], [0.5, -0.1]])
    assert np.array_equal(box.contains(pts), [True, False, False])

def test_box_dilate_erode():
    box = DomainBox([0.0, 0.0], [1.0, 1.0])
    big = box.dilate(0.25)
    assert np.array_equal(big.lo, [-0.25, -0.25]) and np.array_equal(big.hi, [1.25, 1.25])
    small = box.erode(0.25)
    assert small.volume() == 0.25
    dead = box.erode(0.75)
    assert dead.is_empty and dead.volume() == 0.0
    with pytest.raises(ParameterError):
        box.dilate(-0.1)
    with pytest.raises(ParameterError):
        box.erode(-0.1)

def test_box_validation():
    with pytest.raises(ParameterError):
        DomainBox([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(DimensionError):
        DomainBox([0.0] * 4, [1.0] * 4)
    with pytest.raises(DimensionError):
        DomainBox([0.0, 0.0], [1.0, 1.0, 1.0])


# -- rigid -------------------------------------------------------------------

def test_rigid_requires_exact_skew():
    RigidField(_skew2(0.3), np.zeros(2))
    with pytest.raises(ParameterError):
        RigidField(np.array([[0.0, 0.3], [-0.3 + 1e-16, 0.0]]), np.zeros(2))
    m = np.array([[1.0, 2.0], [0.5, -1.0]])
    r = RigidField.from_general(m, np.zeros(2))
    assert np.array_equal(r.spin, -r.spin.T)

def test_rigid_kernel_exact_zero():
    rng = np.random.default_rng(2)
    r = RigidField(_skew2(0.7), np.array([0.1, -0.4]))
    x = rng.standard_normal((5, 1, 2))
    h = rng.standard_normal((1, 40, 2))
    q = r.delta_dot_h(x, h)
    assert q.shape == (5, 40)
    assert np.all(q == 0.0)
    assert np.all(r.sym_gradient(x) == 0.0)

def test_rigid_eval():
    r = RigidField(_skew2(1.0), np.array([1.0, 2.0]))
    v = r.eval(np.array([3.0, 4.0]))
    assert np.allclose(v, [3.0 * 0.0 + 4.0 * 1.0 + 1.0, -3.0 + 2.0])


# -- linear ------------------------------------------------------------------

def test_linear_eval_and_kernel():
    a = np.array([[1.0, 2.0], [0.0, -1.0]])
    f = LinearField(a, np.array([0.5, 0.5]))
    x = np.array([1.0, 1.0])
    assert np.allclose(f.eval(x), a @ x + [0.5, 0.5])
    h = np.array([[0.3, -0.2], [1.0, 0.0]])
    q = f.delta_dot_h(np.zeros((1, 2)), h)
    expect = ((h @ a.T) * h).sum(axis=1)
    assert np.allclose(q, expect, rtol=0, atol=1e-15)

def test_linear_sym_gradient():
    a = np.array([[1.0, 2.0], [0.0, -1.0]])
    f = LinearField(a, np.zeros(2))
    e = f.sym_gradient(np.zeros((3, 2)))
    assert e.shape == (3, 2, 2)
    assert np.array_equal(e[0], 0.5 * (a + a.T))


# -- sin and bump ------------------------------------------------------------

def _fd_sym_gradient(f, x, step=1e-6):
    d = x.shape[0]
    du = np.zeros((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        du[:, j] = (f.eval(x + e) - f.eval(x - e)) / (2.0 * step)
    return 0.5 * (du + du.T)

def test_sin_matches_finite_differences():
    f = SinField(np.array([0.3, 0.2]), np.array([[3.0, 1.0], [1.0, 2.0]]))
    x = np.array([0.3, 0.7])
    assert np.allclose(f.eval(x), [0.3 * math.sin(3 * 0.3 + 0.7), 0.2 * math.sin(0.3 + 2 * 0.7)])
    assert np.max(np.abs(f.sym_gradient(x) - _fd_sym_gradient(f, x))) < 1e-9

def test_bump_support_and_gradient():
    f = BumpField(np.array([1.0, -0.5]), np.array([0.5, 0.5]), 0.3)
    assert np.all(f.eval(np.array([0.95, 0.5])) == 0.0)
    assert np.all(f.eval(np.array([0.8, 0.5])) == 0.0)  # boundary
    inner = np.array([0.55, 0.45])
    assert np.max(np.abs(f.sym_gradient(inner) - _fd_sym_gradient(f, inner))) < 1e-8
    # gradient vanishes outside
    assert np.all(f.sym_gradient(np.array([0.9, 0.9])) == 0.0)

def test_field_validation():
    with pytest.raises(DimensionError):
        SinField(np.array([1.0, 2.0]), np.eye(3))
    with pytest.raises(ParameterError):
        BumpField(np.array([1.0, 0.0]), np.array([0.0, 0.0]), -1.0)
    with pytest.raises(DimensionError):
        LinearField(np.eye(2), np.zeros(3))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_point_alone_has_its_bits_in_a_batch(d):
    """eval, sym_gradient, jump_at and the sin pair factors of one point
    (shape (d,) or (1, d)) equal its row of the same call on the midpoints
    of a 16, 8 x 8 or 4 x 4 x 4 grid bit for bit: products with x are one
    fixed-order sum, never a BLAS product whose rounding depends on the
    batch."""
    rng = np.random.default_rng(40 + d)
    n = {1: 16, 2: 8, 3: 4}[d]
    x = np.stack(np.meshgrid(*[(np.arange(n) + 0.5) / n] * d, indexing="ij"), -1).reshape(-1, d)
    h = rng.uniform(-0.3, 0.3, (5, d))
    nu = rng.standard_normal(d)
    nu /= np.linalg.norm(nu)
    lin = [LinearField(rng.uniform(-1, 1, (d, d)), rng.uniform(-1, 1, d)) for _ in range(2)]
    fields = [RigidField.from_general(rng.uniform(-1, 1, (d, d)), rng.uniform(-1, 1, d)),
              *lin, SinField(rng.uniform(0.1, 0.5, d), rng.uniform(-4, 4, (d, d))),
              PlanarJumpField(nu, 0.5 * float(nu.sum()), *lin)]

    def bits(a):
        return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)

    for f in fields:
        calls = [f.eval, f.sym_gradient]
        if isinstance(f, PlanarJumpField):
            calls.append(f.jump_at)
        if isinstance(f, SinField):
            calls.append(lambda y: f.pair_factors(y[..., None, :], h)[0])
        for call in calls:
            batch = bits(call(x))
            for i in range(len(x)):
                assert np.array_equal(bits(call(x[i])), batch[i])
                assert np.array_equal(bits(call(x[i : i + 1])), batch[i : i + 1])


# -- planar jump -------------------------------------------------------------

def test_jump_side_selection():
    f = _tangential_jump()
    # interface belongs to the minus side
    on = np.array([0.5, 0.3])
    assert np.array_equal(f.eval(on), [0.0, 0.0])
    assert np.array_equal(f.eval(np.array([0.51, 0.3])), [0.0, 1.0])
    assert np.array_equal(f.eval(np.array([0.49, 0.3])), [0.0, 0.0])

def test_jump_kernel_cases():
    f = _tangential_jump()
    # same side: rigid kernel, exactly zero
    q = f.delta_dot_h(np.array([[0.2, 0.2]]), np.array([[0.1, 0.1]]))
    assert q[0] == 0.0
    # cross pair: <a, h> for the constant jump a = e2
    x = np.array([[0.45, 0.2]])
    h = np.array([[0.2, 0.3]])
    q = f.delta_dot_h(x, h)
    assert abs(q[0] - 0.3) < 1e-15

def test_jump_gradient_and_jump_at():
    f = _tangential_jump()
    pts = np.array([[0.5, 0.1], [0.7, 0.1]])
    e = f.sym_gradient(pts)
    assert np.all(e == 0.0)
    assert np.array_equal(f.jump_at(pts), [[0.0, 1.0], [0.0, 1.0]])

def test_jump_validation():
    with pytest.raises(ParameterError):
        PlanarJumpField(np.array([1.0, 1.0]), 0.0, _zero_rigid(), _zero_rigid())
    with pytest.raises(ParameterError):
        PlanarJumpField(
            np.array([1.0, 0.0]),
            0.5,
            _zero_rigid(),
            SinField(np.ones(2), np.eye(2)),
        )

def test_exact_sym_gradient_contract():
    f = _tangential_jump()
    m = exact_sym_gradient(f, np.array([0.7, 0.2]))
    assert isinstance(m, SymMatrix)
    with pytest.raises(DomainError):
        exact_sym_gradient(f, np.array([0.5, 0.2]))
    lin = LinearField(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))
    m = exact_sym_gradient(lin, np.zeros(2))
    assert np.array_equal(m.a, [[1.0, 1.0], [1.0, 1.0]])


# -- sampled -----------------------------------------------------------------

def test_sampled_reproduces_affine():
    a = np.array([[1.0, 2.0], [-0.5, 0.25]])
    lin = LinearField(a, np.array([0.1, 0.2]))
    xs = np.linspace(0.0, 1.0, 11)
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    f = SampledField(np.zeros(2), np.array([0.1, 0.1]), lin.eval(grid))
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.0, 1.0, size=(50, 2))
    assert np.max(np.abs(f.eval(pts) - lin.eval(pts))) < 1e-13

def test_sampled_range_check():
    vals = np.zeros((3, 3, 2))
    f = SampledField(np.zeros(2), np.array([0.5, 0.5]), vals)
    with pytest.raises(DomainError):
        f.eval(np.array([1.2, 0.0]))
    # the pair kernel clamps instead (the engine masks those nodes)
    q = f.delta_dot_h(np.array([[0.9, 0.9]]), np.array([[1.0, 0.0]]))
    assert q.shape == (1,)

def test_sampled_validation():
    with pytest.raises(DimensionError):
        SampledField(np.zeros(2), np.ones(2), np.zeros((3, 3, 3)))
    with pytest.raises(ParameterError):
        SampledField(np.zeros(2), np.ones(2), np.zeros((1, 3, 2)))
    with pytest.raises(ParameterError):
        SampledField(np.zeros(2), np.array([0.5, -0.5]), np.zeros((3, 3, 2)))


# -- ground truth ------------------------------------------------------------

def test_ground_truth_identity_field():
    gt = ground_truth(LinearField(np.eye(2), np.zeros(2)), DomainBox([0, 0], [1, 1]), 1.0, RULE2)
    assert abs(gt.total - 1.0) < 1e-10
    assert gt.singular_value == 0.0

def test_ground_truth_p2_oracle():
    f = LinearField(np.diag([1.0, -1.0]), np.zeros(2))
    gt = ground_truth(f, DomainBox([0, 0], [1, 1]), 2.0, RULE2)
    assert abs(gt.total - 0.5) < 1e-12

def test_ground_truth_jumps():
    box = DomainBox([0, 0], [1, 1])
    tang = ground_truth(_tangential_jump(), box, 1.0, RULE2)
    assert tang.ac_value == 0.0
    assert abs(tang.singular_value - 1.0 / math.pi) < 1e-10
    norm = PlanarJumpField(np.array([1.0, 0.0]), 0.5, _zero_rigid(), _shift_rigid([1.0, 0.0]))
    gt = ground_truth(norm, box, 1.0, RULE2)
    assert abs(gt.total - 0.5) < 1e-10

def test_ground_truth_oblique_normal_2d():
    nu = np.array([0.6, 0.8])
    jump = PlanarJumpField(nu, 0.7, _zero_rigid(), _shift_rigid([0.0, 1.0]))
    box = DomainBox([0, 0], [1, 1])
    gt = ground_truth(jump, box, 1.0, RULE2)
    # chord of <x, nu> = 0.7 across the unit square has length 1.25
    a_dot = SymMatrix.sym_outer([0.0, 1.0], nu)
    expect = q_norm(a_dot, 1.0, make_sphere_rule(2, 65536)) * 1.25
    assert abs(gt.singular_value - expect) < 1e-6

def test_ground_truth_additive_over_splits():
    f = SinField(np.array([0.3, 0.2]), np.array([[3.0, 1.0], [1.0, 2.0]]))
    left = ground_truth(f, DomainBox([0, 0], [0.5, 1]), 1.0, RULE2)
    right = ground_truth(f, DomainBox([0.5, 0], [1, 1]), 1.0, RULE2)
    full = ground_truth(f, DomainBox([0, 0], [1, 1]), 1.0, RULE2)
    assert abs(left.total + right.total - full.total) < 1e-7

def test_ground_truth_jump_split_through_interface():
    box = DomainBox([0, 0], [1, 1])
    lower = DomainBox([0, 0], [1, 0.3])
    upper = DomainBox([0, 0.3], [1, 1])
    f = _tangential_jump()
    parts = [ground_truth(f, b, 1.0, RULE2).total for b in (lower, upper)]
    assert abs(sum(parts) - 1.0 / math.pi) < 1e-9

def test_ground_truth_model_errors():
    box = DomainBox([0, 0], [1, 1])
    with pytest.raises(ModelError):
        ground_truth(_tangential_jump(), box, 2.0, RULE2)
    samp = SampledField(np.zeros(2), np.ones(2), np.zeros((3, 3, 2)))
    with pytest.raises(ModelError):
        ground_truth(samp, box, 1.0, RULE2)
    nu3 = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    jump3 = PlanarJumpField(
        nu3, 0.5, _zero_rigid(3), RigidField(np.zeros((3, 3)), np.array([0.0, 0.0, 1.0]))
    )
    with pytest.raises(ModelError):
        ground_truth(jump3, DomainBox([0, 0, 0], [1, 1, 1]), 1.0, make_sphere_rule(3, 16))

@pytest.mark.parametrize("d", [1, 2, 3])
def test_tensor_grid_equals_the_meshgrid_stack(d):
    """`_tensor_grid` writes each axis into its column of one (n, d) array:
    the bits and dtype of the meshgrid-and-stack points, first axis slowest,
    for float axes (of unequal lengths, and as the rows of one array), int
    axes, and with the product weights."""
    rng = np.random.default_rng(60 + d)
    fl = importlib.import_module("nldef.fields")

    def meshgrid_stack(axes):
        return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)

    ragged = [rng.uniform(-1.0, 1.0, n) for n in (7, 5, 3)[:d]]
    for axes in (ragged, rng.uniform(-1.0, 1.0, (d, 6)), [np.arange(4)] * d):
        got, want = fl._tensor_grid(axes), meshgrid_stack(axes)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
    pts, w = fl._tensor_grid(ragged, [np.ones(len(a)) for a in ragged])
    assert np.array_equal(pts, meshgrid_stack(ragged)) and np.array_equal(w, np.ones(len(pts)))


def test_ground_truth_rigid_zero():
    gt = ground_truth(RigidField(_skew2(0.4), np.ones(2)), DomainBox([0, 0], [1, 1]), 1.0, RULE2)
    assert gt.total == 0.0

_BLAS_PROBE = """
import importlib
import numpy as np
import nldef
en = importlib.import_module("nldef.energy")
box, rule = nldef.DomainBox([0.0, 0.0], [1.0, 1.0]), nldef.make_sphere_rule(2, 64)
sin = nldef.SinField(np.array([0.3, 0.2]), np.array([[3.0, 1.0], [1.0, 2.0]]))
bump = nldef.BumpField(np.array([0.5, -0.3]), np.array([0.45, 0.45]), 0.35)
box3 = nldef.DomainBox([0.0] * 3, [1.0] * 3)
lin3 = nldef.LinearField(np.array([[0.4, 0.1, 0.0], [0.0, -0.2, 0.1], [0.05, 0.0, 0.3]]),
                         np.zeros(3))
# sorted eigenvalue rows of both signs: 3,074 of them, a batch that a BLAS
# matrix product would split across threads and round apart
rows = np.sort(np.random.default_rng(5).uniform(-1.0, 1.0, (4099, 3)), axis=1)
rows = rows[(rows[:, 0] < 0.0) & (rows[:, 2] > 0.0)]
# the engine's sin path (one BLAS product per block) on the criterion-10
# request at N = 64: value, error bar, residual value and density masses
c10 = en.EnergyRequest(field=sin, domain=box, p=1.0,
                       mollifier=nldef.MollifierSpec("shell", 0.025, 2), outer_grid=64,
                       inner_level=16, workers=1)
plain, res = en.energy(c10), en.residual_energy(c10)
vals = [nldef.ground_truth(sin, box, 1.0, rule).total,
        nldef.ground_truth(bump, box, 2.0, rule).total,
        en.upper_bound_rhs(sin, box, 0.1, 1.0, nldef.MollifierSpec("gaussian", 0.1, 2)),
        nldef.ground_truth(lin3, box3, 1.0, nldef.make_sphere_rule(3, 64)).total,
        plain.value, plain.est_quadrature_error, res.value, *en.density_masses(c10)[1],
        *nldef.qp_pow_eigs(rows, 1.0, nldef.make_sphere_rule(3, 16))]
print(" ".join(float(v).hex() for v in vals))
"""


def test_ground_truth_bits_do_not_depend_on_blas_threads():
    """ground_truth of a 2-d sin field at p = 1, of a bump at p = 2 and of
    a 3-d linear field with an indefinite gradient at p = 1 (through the
    sphere rule), upper_bound_rhs with a gaussian tail, and Q_1^1 of 3,074
    indefinite 3-d eigenvalue rows in one batch give the same bits under 1
    and 2 OpenBLAS threads: their sums are fixed-order numpy sums. So do the
    engine's sin value, error bar, residual value and 4,096 density masses
    on the criterion-10 request at N = 64, whose blocks are BLAS products.
    Each thread count runs in its own interpreter, since BLAS reads it at
    load time."""
    src = str(Path(nldef.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(proc.stdout.split())
    assert len(outs[0]) == 4 + 3 + 64**2 + 3074 and outs[0] == outs[1]


# -- mollify -----------------------------------------------------------------

def test_mollify_preserves_affine():
    lin = LinearField(np.array([[1.0, 0.5], [0.0, -1.0]]), np.array([0.2, 0.0]))
    box = DomainBox([0.0, 0.0], [1.0, 1.0])
    kern = MollifierSpec("scaled_bump", 0.05, 2)
    sm = mollify(lin, 0.05, kern, 0.1, box, angular_level=32, radial_nodes=16)
    pts = np.array([[0.25, 0.5], [0.7, 0.3]])
    assert np.max(np.abs(sm.eval(pts) - lin.eval(pts))) < 1e-7

def test_mollify_jump_ramps():
    f = _tangential_jump()
    box = DomainBox([0.3, 0.3], [0.7, 0.7])
    eta = 0.05
    sm = mollify(f, eta, MollifierSpec("scaled_bump", eta, 2), 0.01, box,
                 angular_level=32, radial_nodes=16)
    # far from the interface the sides are reproduced
    assert np.max(np.abs(sm.eval(np.array([0.35, 0.5])) - [0.0, 0.0])) < 1e-7
    assert np.max(np.abs(sm.eval(np.array([0.65, 0.5])) - [0.0, 1.0])) < 1e-7
    # on the interface, symmetry puts the ramp at its midpoint
    mid = sm.eval(np.array([0.5, 0.5]))
    assert abs(mid[1] - 0.5) < 1e-6

def test_mollify_validation():
    lin = LinearField(np.eye(2), np.zeros(2))
    box = DomainBox([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ParameterError):
        mollify(lin, 0.05, MollifierSpec("scaled_bump", 0.06, 2), 0.1, box)
    samp = SampledField(np.zeros(2), np.array([0.1, 0.1]), np.zeros((11, 11, 2)))
    with pytest.raises(DomainError):
        # sampled on [0,1]^2 only: eroding by eta cannot cover [0,1]^2
        mollify(samp, 0.05, MollifierSpec("scaled_bump", 0.05, 2), 0.1, box)


@pytest.mark.parametrize("key, value", [
    ("spacing", -0.1), ("spacing", 0.0), ("spacing", float("nan")), ("spacing", float("inf")),
    ("spacing", True), ("eta", -0.05), ("eta", float("inf")), ("radial_nodes", 0),
    ("radial_nodes", 2.0), ("angular_level", 0), ("angular_level", 1.5), ("n_cells", 0),
    ("n_cells", -2), ("n_cells", 1.5), ("n_cells", True),
])
def test_mollify_and_limit_measure_value_rules(key, value):
    """Each bad size, scale or spacing is a ParameterError keyed by its argument."""
    lin = LinearField(np.eye(2), np.zeros(2))
    box = DomainBox([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ParameterError) as info:
        if key == "n_cells":
            nldef.measures.ground_truth_measure(lin, box, n_cells=value)
        else:
            args = {"eta": 0.05, "spacing": 0.5, "angular_level": 8, "radial_nodes": 4,
                    key: value}
            mollify(lin, kernel=MollifierSpec("scaled_bump", 0.05, 2), box=box, **args)
    assert info.value.key == key


# -- config factory ----------------------------------------------------------

def test_config_roundtrip_all_ids():
    specs = [
        {"id": "rigid", "params": {"spin": [[0.0, 1.0], [-1.0, 0.0]], "shift": [1.0, 2.0]}},
        {"id": "linear", "params": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}},
        {"id": "sin", "params": {"amplitude": [0.3, 0.2], "waves": [[3.0, 1.0], [1.0, 2.0]]}},
        {"id": "bump", "params": {"amplitude": [1.0, 0.0], "center": [0.5, 0.5], "radius": 0.25}},
        {
            "id": "planar_jump",
            "params": {
                "normal": [2.0, 0.0],
                "offset": 0.5,
                "minus": {"id": "rigid", "params": {"spin": [[0.0, 0.0], [0.0, 0.0]]}},
                "plus": {"id": "rigid", "params": {"spin": [[0.0, 0.0], [0.0, 0.0]], "shift": [0.0, 1.0]}},
            },
        },
    ]
    kinds = [RigidField, LinearField, SinField, BumpField, PlanarJumpField]
    for cfg, kind in zip(specs, kinds):
        f = field_from_config(cfg, 2)
        assert isinstance(f, kind)
    # the factory normalizes the jump normal
    j = field_from_config(specs[-1], 2)
    assert np.array_equal(j.normal, [1.0, 0.0])

def test_config_rigid_takes_general_matrix():
    f = field_from_config({"id": "rigid", "params": {"spin": [[0.0, 1.0], [0.5, 0.0]]}}, 2)
    assert np.array_equal(f.spin, -f.spin.T)

def test_config_errors_carry_paths():
    with pytest.raises(ConfigError, match="field.id"):
        field_from_config({"id": "wobble", "params": {}}, 2)
    with pytest.raises(ConfigError, match="field.params.matrix"):
        field_from_config({"id": "linear", "params": {}}, 2)
    with pytest.raises(ConfigError, match="field.params.minus"):
        field_from_config(
            {"id": "planar_jump", "params": {"normal": [1.0, 0.0], "offset": 0.5,
                                             "minus": 3, "plus": 4}},
            2,
        )
    with pytest.raises(ConfigError, match="radius"):
        field_from_config({"id": "bump", "params": {"amplitude": [1.0, 0.0],
                                                    "center": [0.0, 0.0]}}, 2)
    with pytest.raises(ConfigError):
        field_from_config("not a dict", 2)
