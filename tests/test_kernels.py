"""Pair-kernel and mask contracts of the tile engine.

Core claims:
    - the closed-form sin and planar-jump kernels agree with the generic
      difference <u(x+h) - u(x), h> to roundoff, for pairs on either side
      of the interface, crossing it in both directions, and with x or x + h
      exactly on it
    - the per-axis mask equals DomainBox.contains(x + h) bit for bit,
      including sums that land exactly on lo or hi
    - a jump between two equal rigid fields has an exactly zero kernel and
      an exactly zero energy
    - a power-of-two scale of the field scales the energy exactly:
      F(2^k u) == 2^(kp) F(u), value and error bar
"""

import importlib

import numpy as np
import pytest

from nldef import (
    DomainBox,
    FieldSpec,
    LinearField,
    MollifierSpec,
    PlanarJumpField,
    RigidField,
    SinField,
)

en = importlib.import_module("nldef.energy")

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


# -- mask --------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
def test_mask_bitwise_equals_contains(d):
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
        got = box.contains_offsets(x, h)
        want = box.contains(x[:, None, :] + h[None, :, :])
        assert got.dtype == bool and got.shape == (30, 40)
        assert np.array_equal(got, want)
        if box is unit:  # 0.25 - 0.25 and 0.75 + 0.25 are exact
            assert got[0, 0] and got[1, 1] and got[2, 2]


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
