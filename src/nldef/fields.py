"""Vector-field catalog with exact symmetric-gradient ground truth.

Fields are immutable dataclasses sharing a small interface:

  eval(x)            values at points, vectorized over leading axes
  delta_dot_h(x, h)  <u(x+h) - u(x), h>, the engine's pair kernel
  sym_gradient(x)    the symmetric part of the Jacobian, where defined

The closed-form variants (rigid, linear, sin, planar jump with affine sides)
hand-code `delta_dot_h` so no field is evaluated at x + h and algebraic
identities hold exactly in floating point; in particular a rigid field
reports an exactly zero kernel, which is what makes the zero-energy test
bitwise. Bump and sampled fields use the generic difference.

`ground_truth` returns the limit value the energy sweep converges to: the
volume integral of Q_p of the symmetric gradient plus, for jump fields at
p = 1, the interface integral of Q_1 of the symmetric tensor product of the
jump with the interface normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    ModelError,
    ParameterError,
)
from .mollifiers import SURFACE_AREA, MollifierSpec
from .symnorm import SphereRule, SymMatrix, make_sphere_rule, qp_pow_eigs

__all__ = [
    "DomainBox",
    "FieldSpec",
    "RigidField",
    "LinearField",
    "SinField",
    "BumpField",
    "PlanarJumpField",
    "SampledField",
    "GroundTruth",
    "exact_sym_gradient",
    "ground_truth",
    "mollify",
    "field_from_config",
]


def _vec(x, dim=None, name="vector") -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ParameterError(f"{name} must be one-dimensional, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise DimensionError(f"{name} has length {a.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(a)):
        raise ParameterError(f"{name} must be finite")
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class DomainBox:
    """Axis-aligned box, dimensions 1..3.

    Positive volume where a box is actually integrated over; `erode` may
    return a degenerate (empty) box, which callers must check via
    `is_empty`.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _vec(self.lo, name="lo")
        hi = _vec(self.hi, dim=lo.shape[0], name="hi")
        if not 1 <= lo.shape[0] <= 3:
            raise DimensionError(f"dimension {lo.shape[0]} unsupported, need 1..3")
        if np.any(hi < lo):
            raise ParameterError("box needs lo_i <= hi_i on every axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def is_empty(self) -> bool:
        return bool(np.any(self.hi <= self.lo))

    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.all((x >= self.lo) & (x <= self.hi), axis=-1)

    def contains_offsets(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Mask (n, K): whether x_i + h_j lies in the box, for x (n, d) and h (K, d).

        One axis at a time on (n, K) slices, with the same add and compares
        as `contains(x[:, None] + h[None])`, so the mask is bitwise equal to
        it without building the (n, K, d) sum.
        """
        inside = np.ones((x.shape[0], h.shape[0]), dtype=bool)
        for k in range(self.dim):
            y = np.add.outer(x[:, k], h[:, k])
            inside &= y >= self.lo[k]
            inside &= y <= self.hi[k]
        return inside

    def dilate(self, r: float) -> "DomainBox":
        if r < 0:
            raise ParameterError("dilate radius must be >= 0")
        return DomainBox(self.lo - r, self.hi + r)

    def erode(self, delta: float) -> "DomainBox":
        if delta < 0:
            raise ParameterError("erode margin must be >= 0")
        lo = self.lo + delta
        hi = self.hi - delta
        mid = 0.5 * (lo + hi)
        dead = hi < lo
        return DomainBox(np.where(dead, mid, lo), np.where(dead, mid, hi))

    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)


class FieldSpec:
    """Base class; subclasses fill in dim, eval, sym_gradient."""

    dim: int

    def eval(self, x) -> np.ndarray:
        raise NotImplementedError

    def sym_gradient(self, x) -> np.ndarray:
        raise ModelError(f"{type(self).__name__} has no closed-form gradient")

    def delta_dot_h(self, x, h) -> np.ndarray:
        """<u(x+h) - u(x), h>, broadcast over leading axes.

        This generic form evaluates the field at x + h. A subclass may
        override it with a closed form in (x, h); the override must agree
        with this difference to roundoff and must be exactly zero for a
        rigid field, so that rigid energies stay bitwise zero.
        """
        x = np.asarray(x, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        du = self.eval(x + h) - self.eval(x)
        return (du * h).sum(axis=-1)

    def _check_points(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise DimensionError(
                f"points have dimension {x.shape[-1]}, field has {self.dim}"
            )
        return x


@dataclass(frozen=True, eq=False)
class RigidField(FieldSpec):
    """u(x) = R x + c with R exactly skew; the kernel of the symmetric gradient."""

    spin: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.spin, dtype=np.float64)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise DimensionError(f"spin must be square, got shape {r.shape}")
        if not np.array_equal(r, -r.T):
            raise ParameterError("spin matrix must be exactly skew-symmetric")
        r = r.copy()
        r.setflags(write=False)
        object.__setattr__(self, "spin", r)
        object.__setattr__(self, "shift", _vec(self.shift, r.shape[0], "shift"))

    @classmethod
    def from_general(cls, m, shift) -> "RigidField":
        """Skew part (M - M^T)/2 (exactly skew in floating point) plus shift."""
        m = np.asarray(m, dtype=np.float64)
        return cls(0.5 * (m - m.T), shift)

    @property
    def dim(self) -> int:
        return self.spin.shape[0]

    def eval(self, x) -> np.ndarray:
        x = self._check_points(x)
        return x @ self.spin.T + self.shift

    def sym_gradient(self, x) -> np.ndarray:
        x = self._check_points(x)
        return np.zeros(x.shape[:-1] + (self.dim, self.dim))

    def delta_dot_h(self, x, h) -> np.ndarray:
        # <R h, h> = 0 identically for skew R
        x = np.asarray(x, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        shape = np.broadcast_shapes(x.shape[:-1], h.shape[:-1])
        return np.broadcast_to(0.0, shape)


@dataclass(frozen=True, eq=False)
class LinearField(FieldSpec):
    """u(x) = A x + c for a general square matrix A."""

    a: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"matrix must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ParameterError("matrix entries must be finite")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "shift", _vec(self.shift, a.shape[0], "shift"))

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def eval(self, x) -> np.ndarray:
        x = self._check_points(x)
        return x @ self.a.T + self.shift

    def sym_gradient(self, x) -> np.ndarray:
        x = self._check_points(x)
        e = 0.5 * (self.a + self.a.T)
        return np.broadcast_to(e, x.shape[:-1] + (self.dim, self.dim))

    def delta_dot_h(self, x, h) -> np.ndarray:
        # u(x+h) - u(x) = A h, so the kernel is the quadratic form <A h, h>
        x = np.asarray(x, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        q = ((h @ self.a.T) * h).sum(axis=-1)
        shape = np.broadcast_shapes(x.shape[:-1], h.shape[:-1])
        return np.broadcast_to(q, shape)


@dataclass(frozen=True, eq=False)
class SinField(FieldSpec):
    """u_i(x) = a_i sin(k_i . x), one wave vector per component (rows of `waves`)."""

    amplitude: np.ndarray
    waves: np.ndarray

    def __post_init__(self):
        a = _vec(self.amplitude, name="amplitude")
        k = np.asarray(self.waves, dtype=np.float64)
        if k.shape != (a.shape[0], a.shape[0]):
            raise DimensionError(
                f"waves must be d x d with d={a.shape[0]}, got shape {k.shape}"
            )
        if not np.all(np.isfinite(k)):
            raise ParameterError("wave entries must be finite")
        k = k.copy()
        k.setflags(write=False)
        object.__setattr__(self, "amplitude", a)
        object.__setattr__(self, "waves", k)

    @property
    def dim(self) -> int:
        return self.amplitude.shape[0]

    def eval(self, x) -> np.ndarray:
        x = self._check_points(x)
        return self.amplitude * np.sin(x @ self.waves.T)

    def sym_gradient(self, x) -> np.ndarray:
        x = self._check_points(x)
        cos = np.cos(x @ self.waves.T)  # (..., d), column i is cos(k_i . x)
        du = cos[..., :, None] * (self.amplitude[:, None] * self.waves)
        return 0.5 * (du + np.swapaxes(du, -1, -2))

    def delta_dot_h(self, x, h) -> np.ndarray:
        # sin(k.x + k.h) - sin(k.x) = sin(k.x) (cos(k.h) - 1) + cos(k.x) sin(k.h),
        # with cos(k.h) - 1 = -2 sin^2(k.h / 2) to avoid the cancellation
        x = np.asarray(x, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        kx = x @ self.waves.T
        kh = h @ self.waves.T
        sin_x = self.amplitude * np.sin(kx)
        cos_x = self.amplitude * np.cos(kx)
        half = np.sin(0.5 * kh)
        h_cos = -2.0 * half * half * h
        h_sin = np.sin(kh) * h
        q = sin_x[..., 0] * h_cos[..., 0] + cos_x[..., 0] * h_sin[..., 0]
        for i in range(1, self.dim):
            q += sin_x[..., i] * h_cos[..., i]
            q += cos_x[..., i] * h_sin[..., i]
        return q


@dataclass(frozen=True, eq=False)
class BumpField(FieldSpec):
    """u(x) = a exp(-1/(1 - |x-c|^2/r^2)) inside the ball of radius r, else 0."""

    amplitude: np.ndarray
    center: np.ndarray
    radius: float

    def __post_init__(self):
        a = _vec(self.amplitude, name="amplitude")
        c = _vec(self.center, a.shape[0], "center")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ParameterError(f"radius must be positive, got {self.radius}")
        object.__setattr__(self, "amplitude", a)
        object.__setattr__(self, "center", c)

    @property
    def dim(self) -> int:
        return self.amplitude.shape[0]

    def _profile(self, x):
        y = (np.asarray(x, dtype=np.float64) - self.center) / self.radius
        s = (y * y).sum(axis=-1)
        phi = np.zeros_like(s)
        inside = s < 1.0 - 1e-12
        phi[inside] = np.exp(-1.0 / (1.0 - s[inside]))
        return y, s, phi, inside

    def eval(self, x) -> np.ndarray:
        x = self._check_points(x)
        _, _, phi, _ = self._profile(x)
        return phi[..., None] * self.amplitude

    def sym_gradient(self, x) -> np.ndarray:
        x = self._check_points(x)
        y, s, phi, inside = self._profile(x)
        # d phi / dx_j = phi * (-(1-s)^-2) * 2 y_j / r
        fac = np.zeros_like(s)
        fac[inside] = phi[inside] / (1.0 - s[inside]) ** 2
        g = fac[..., None] * (-2.0 / self.radius) * y  # (..., d)
        du = self.amplitude[:, None] * g[..., None, :]  # (..., i, j)
        return 0.5 * (du + np.swapaxes(du, -1, -2))


@dataclass(frozen=True, eq=False)
class PlanarJumpField(FieldSpec):
    """Two affine fields glued across the hyperplane <x, normal> = offset.

    The minus side is <x, normal> - offset <= 0 (points on the interface
    evaluate to the minus side). Both sides must be rigid or linear so the
    jump a(x) = u_plus(x) - u_minus(x) stays affine.
    """

    normal: np.ndarray
    offset: float
    minus: FieldSpec
    plus: FieldSpec

    def __post_init__(self):
        nu = _vec(self.normal, name="normal")
        if abs(float(nu @ nu) - 1.0) > 1e-12:
            raise ParameterError("normal must be a unit vector")
        for side, name in ((self.minus, "minus"), (self.plus, "plus")):
            if not isinstance(side, (RigidField, LinearField)):
                raise ParameterError(f"{name} side must be rigid or linear")
            if side.dim != nu.shape[0]:
                raise DimensionError(f"{name} side dimension mismatch")
        object.__setattr__(self, "normal", nu)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def _plus_side(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return (x @ self.normal) - self.offset > 0.0

    def eval(self, x) -> np.ndarray:
        x = self._check_points(x)
        plus = self._plus_side(x)
        return np.where(plus[..., None], self.plus.eval(x), self.minus.eval(x))

    def sym_gradient(self, x) -> np.ndarray:
        """Sidewise symmetric gradient; interface points use the minus side."""
        x = self._check_points(x)
        plus = self._plus_side(x)
        return np.where(
            plus[..., None, None], self.plus.sym_gradient(x), self.minus.sym_gradient(x)
        )

    def jump_at(self, x) -> np.ndarray:
        """a(x) = u_plus(x) - u_minus(x), the (affine) jump vector."""
        x = self._check_points(x)
        return self.plus.eval(x) - self.minus.eval(x)

    def delta_dot_h(self, x, h) -> np.ndarray:
        # with y = x + h on side s_y: u(y) - u(x) = (u_{s_y}(x + h) - u_{s_y}(x))
        # + (u_{s_y}(x) - u_{s_x}(x)), and the second term is (p_y - p_x) a(x)
        x = np.asarray(x, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        px = self._plus_side(x)
        # x.nu + h.nu equals (x + h).nu bitwise for normals +-e_j
        py = (x @ self.normal + h @ self.normal) - self.offset > 0.0
        q = np.where(py, self.plus.delta_dot_h(x, h), self.minus.delta_dot_h(x, h))
        if not np.any(py != px):  # no pair crosses the plane
            return q
        a = self.jump_at(x)
        a_dot_h = a[..., 0] * h[..., 0]
        for k in range(1, self.dim):
            a_dot_h += a[..., k] * h[..., k]
        a_dot_h *= np.subtract(py, px, dtype=np.float64)
        q += a_dot_h
        return q


@dataclass(frozen=True, eq=False)
class SampledField(FieldSpec):
    """Values on a regular grid with multilinear interpolation.

    `values` has shape (n_1, ..., n_d, d); node k of axis i sits at
    lo_i + k * spacing_i. Queries outside the sample box raise DomainError
    from `eval`; `delta_dot_h` instead clamps stray nodes to the boundary
    (the energy engine multiplies those by a zero mask).
    """

    lo: np.ndarray
    spacing: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        d = v.ndim - 1
        if not 1 <= d <= 3:
            raise DimensionError(f"sample array of rank {v.ndim} unsupported")
        if v.shape[-1] != d:
            raise DimensionError(
                f"sample array {v.shape} must carry {d}-vectors on a {d}-d grid"
            )
        if min(v.shape[:-1]) < 2:
            raise ParameterError("need at least two samples per axis")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "lo", _vec(self.lo, d, "lo"))
        sp = _vec(self.spacing, d, "spacing")
        if np.any(sp <= 0):
            raise ParameterError("spacing must be positive")
        object.__setattr__(self, "spacing", sp)

    @property
    def dim(self) -> int:
        return self.values.ndim - 1

    @property
    def box(self) -> DomainBox:
        counts = np.array(self.values.shape[:-1])
        return DomainBox(self.lo, self.lo + (counts - 1) * self.spacing)

    def _interp(self, t: np.ndarray) -> np.ndarray:
        counts = self.values.shape[:-1]
        d = self.dim
        idx = np.clip(np.floor(t).astype(np.int64), 0, np.array(counts) - 2)
        frac = t - idx
        flat = self.values.reshape(-1, d)
        strides = np.ones(d, dtype=np.int64)
        for i in range(d - 2, -1, -1):
            strides[i] = strides[i + 1] * counts[i + 1]
        out = np.zeros(t.shape[:-1] + (d,))
        for corner in range(1 << d):
            w = np.ones(t.shape[:-1])
            fi = np.zeros(t.shape[:-1], dtype=np.int64)
            for i in range(d):
                bit = (corner >> i) & 1
                w = w * (frac[..., i] if bit else 1.0 - frac[..., i])
                fi = fi + (idx[..., i] + bit) * strides[i]
            out += w[..., None] * flat[fi]
        return out

    def eval(self, x) -> np.ndarray:
        x = self._check_points(x)
        t = (x - self.lo) / self.spacing
        top = np.array(self.values.shape[:-1]) - 1
        if np.any(t < -1e-9) or np.any(t > top + 1e-9):
            raise DomainError("query outside the sampled box")
        return self._interp(np.clip(t, 0.0, top))

    def delta_dot_h(self, x, h) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        top = np.array(self.values.shape[:-1]) - 1
        tx = np.clip((x - self.lo) / self.spacing, 0.0, top)
        ty = np.clip((x + h - self.lo) / self.spacing, 0.0, top)
        du = self._interp(ty) - self._interp(tx)
        return (du * h).sum(axis=-1)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Limit value of the sweep: volume part, interface part, and their total."""

    p: float
    ac_value: float
    singular_value: float
    total: float


def exact_sym_gradient(f: FieldSpec, x) -> SymMatrix:
    """Symmetric gradient at a single point, as a SymMatrix.

    Raises for sampled fields (no closed form) and for points exactly on a
    jump interface (the density is undefined there; the engine's interior
    convention is the minus side, applied through `sym_gradient`).
    """
    if isinstance(f, SampledField):
        raise ModelError("sampled fields have no exact gradient")
    x = np.asarray(x, dtype=np.float64)
    if isinstance(f, PlanarJumpField) and float(x @ f.normal) == f.offset:
        raise DomainError("point lies on the jump interface")
    return SymMatrix(f.sym_gradient(x))


# ---------------------------------------------------------------------------
# ground truth


def _tensor_grid(axes, weights=None):
    """Points (n, d) of the tensor grid over per-axis arrays, first axis slowest.

    With per-axis `weights` also returns the product weights (n,) in the
    same order.
    """
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    if weights is None:
        return pts
    wts = weights[0]
    for w in weights[1:]:
        wts = np.multiply.outer(wts, w)
    return pts, wts.ravel()


def _tensor_gauss_nodes(box: DomainBox, n: int):
    z, w = np.polynomial.legendre.leggauss(n)
    edges = list(zip(box.lo, box.hi))
    return _tensor_grid(
        [0.5 * (b - a) * z + 0.5 * (a + b) for a, b in edges],
        [0.5 * (b - a) * w for a, b in edges],
    )


_GAUSS_CAP = {1: 4096, 2: 512, 3: 128}


def _adaptive_box_integral(func, box: DomainBox, rel_tol: float = 1e-8) -> float:
    """Tensor Gauss integral of func(points)->(m,) with doubling refinement."""
    if box.is_empty:
        return 0.0
    n = 8
    prev = None
    while True:
        pts, wts = _tensor_gauss_nodes(box, n)
        val = float(wts @ func(pts))
        if prev is not None and abs(val - prev) <= rel_tol * max(abs(val), 1e-30):
            return val
        if n >= _GAUSS_CAP[box.dim]:
            return val
        prev = val
        n *= 2


def _qp_pow_of_sym(e: np.ndarray, p: float, rule: SphereRule) -> np.ndarray:
    eigs = np.linalg.eigvalsh(e)
    return qp_pow_eigs(eigs, p, rule)


def _axis_of(normal: np.ndarray) -> int | None:
    """Index j when normal = +-e_j exactly, else None."""
    j = int(np.argmax(np.abs(normal)))
    others = np.delete(np.abs(normal), j)
    if np.all(others == 0.0):
        return j
    return None


def _side_volumes(lo: np.ndarray, hi: np.ndarray, normal: np.ndarray, offset: float):
    """Volumes (m,) of each cell [lo_k, hi_k] ∩ {<x,nu> < s} and ∩ {<x,nu> > s}.

    `lo` and `hi` are cell corners of shape (m, d).
    """
    widths = hi - lo
    total = np.prod(widths, axis=1)
    j = _axis_of(normal)
    if j is not None:
        sign = normal[j]
        cut = offset / sign
        below = np.clip(cut, lo[:, j], hi[:, j]) - lo[:, j]  # length where x_j < cut
        rest = np.prod(np.delete(widths, j, axis=1), axis=1)
        if sign > 0:
            return below * rest, total - below * rest
        return total - below * rest, below * rest
    if lo.shape[1] == 2:
        minus = np.array([_halfplane_area(a, b, normal, offset) for a, b in zip(lo, hi)])
        return minus, total - minus
    raise ModelError("general jump normals are unsupported in d=3 ground truth")


def _halfplane_area(lo: np.ndarray, hi: np.ndarray, nu: np.ndarray, s: float) -> float:
    """Area of the rectangle [lo, hi] clipped to {<x,nu> <= s} (Sutherland-Hodgman)."""
    (x0, y0), (x1, y1) = lo, hi
    poly = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    out: list[tuple[float, float]] = []
    for i in range(len(poly)):
        a, b = poly[i], poly[(i + 1) % len(poly)]
        fa = nu[0] * a[0] + nu[1] * a[1] - s
        fb = nu[0] * b[0] + nu[1] * b[1] - s
        if fa <= 0:
            out.append(a)
        if (fa < 0 < fb) or (fb < 0 < fa):
            t = fa / (fa - fb)
            out.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    if len(out) < 3:
        return 0.0
    area = 0.0
    for i in range(len(out)):
        xa, ya = out[i]
        xb, yb = out[(i + 1) % len(out)]
        area += xa * yb - xb * ya
    return 0.5 * abs(area)


def _interface_nodes(box: DomainBox, normal: np.ndarray, offset: float, n: int):
    """Quadrature (points, weights) on the interface patch inside the box.

    Weights sum to the patch's surface measure. Returns empty arrays when the
    hyperplane misses the box.
    """
    d = box.dim
    j = _axis_of(normal)
    if j is not None:
        cut = offset / normal[j]
        if not (box.lo[j] <= cut <= box.hi[j]):
            return np.zeros((0, d)), np.zeros(0)
        rest_axes = [i for i in range(d) if i != j]
        if not rest_axes:
            return np.array([[cut]]), np.array([1.0])
        sub = DomainBox(box.lo[rest_axes], box.hi[rest_axes])
        sub_pts, sub_w = _tensor_gauss_nodes(sub, n)
        pts = np.empty((sub_pts.shape[0], d))
        pts[:, j] = cut
        for k, i in enumerate(rest_axes):
            pts[:, i] = sub_pts[:, k]
        return pts, sub_w
    if d == 2:
        tau = np.array([-normal[1], normal[0]])
        p0 = offset * normal
        tmin, tmax = -np.inf, np.inf
        for i in range(2):
            if abs(tau[i]) < 1e-15:
                if not (box.lo[i] <= p0[i] <= box.hi[i]):
                    return np.zeros((0, 2)), np.zeros(0)
            else:
                t0 = (box.lo[i] - p0[i]) / tau[i]
                t1 = (box.hi[i] - p0[i]) / tau[i]
                tmin = max(tmin, min(t0, t1))
                tmax = min(tmax, max(t0, t1))
        if not tmax > tmin:
            return np.zeros((0, 2)), np.zeros(0)
        z, w = np.polynomial.legendre.leggauss(n)
        t = 0.5 * (tmax - tmin) * z + 0.5 * (tmax + tmin)
        return p0 + t[:, None] * tau, 0.5 * (tmax - tmin) * w
    raise ModelError("general jump normals are unsupported in d=3 ground truth")


def _jump_volume_masses(
    f: PlanarJumpField, box: DomainBox, lo: np.ndarray, hi: np.ndarray, rule: SphereRule
) -> np.ndarray:
    """Volume part of the limit measure on cells [lo_k, hi_k] inside box, shape (m,).

    Both sides of a jump field are affine, so Q_1 of each side's symmetric
    gradient is a constant, taken at the box center.
    """
    probe = box.center()
    q_minus = _qp_pow_of_sym(f.minus.sym_gradient(probe)[None], 1.0, rule)[0]
    q_plus = _qp_pow_of_sym(f.plus.sym_gradient(probe)[None], 1.0, rule)[0]
    vol_minus, vol_plus = _side_volumes(lo, hi, f.normal, f.offset)
    return q_minus * vol_minus + q_plus * vol_plus


def _interface_density(f: PlanarJumpField, pts: np.ndarray, rule: SphereRule) -> np.ndarray:
    """Q_1(a ⊙ normal) at interface points: the singular part's density."""
    a = f.jump_at(pts)
    m = 0.5 * (
        a[:, :, None] * f.normal[None, None, :]
        + f.normal[None, :, None] * a[:, None, :]
    )
    return _qp_pow_of_sym(m, 1.0, rule)


def _jump_singular_value(f: PlanarJumpField, box: DomainBox, rule: SphereRule) -> float:
    def patch_integral(n: int) -> float:
        pts, wts = _interface_nodes(box, f.normal, f.offset, n)
        if len(wts) == 0:
            return 0.0
        return float(wts @ _interface_density(f, pts, rule))

    n = 8
    prev = patch_integral(n)
    while n < 256:
        n *= 2
        val = patch_integral(n)
        if abs(val - prev) <= 1e-8 * max(abs(val), 1e-30):
            return val
        prev = val
    return prev


def ground_truth(f: FieldSpec, box: DomainBox, p: float, rule: SphereRule) -> GroundTruth:
    """Limit of the nonlocal energies for a catalog field on a box.

    ac_value integrates Q_p(sym gradient)^p over the box (adaptive tensor
    Gauss, closed forms for Q where available); for planar jumps at p = 1
    singular_value integrates Q_1(a ⊙ normal) over the interface patch.
    """
    if p < 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    if isinstance(f, SampledField):
        raise ModelError("ground truth needs a closed-form field")
    if f.dim != box.dim or rule.dim != f.dim:
        raise DimensionError("field, box and rule dimensions must agree")
    if isinstance(f, PlanarJumpField):
        if p > 1:
            raise ModelError("jump fields are not in W^{1,p} for p > 1")
        ac = float(_jump_volume_masses(f, box, box.lo[None], box.hi[None], rule)[0])
        sing = _jump_singular_value(f, box, rule)
        return GroundTruth(p=p, ac_value=ac, singular_value=sing, total=ac + sing)
    ac = _adaptive_box_integral(
        lambda pts: _qp_pow_of_sym(f.sym_gradient(pts), p, rule), box
    )
    return GroundTruth(p=p, ac_value=ac, singular_value=0.0, total=ac)


# ---------------------------------------------------------------------------
# mollification


def _polar_rule(mollifier: MollifierSpec, sphere_level: int, n_radial: int, trunc_tol: float):
    """Radius x sphere quadrature of rho over its truncated support.

    Gauss nodes in radius on each of the mollifier's radial bands, crossed
    with a sphere rule in direction, so integrals of g(h) rho(h) dh become
    sums of weights times g(offsets). Returns offsets (R, M, d), weights
    (R, M) and the radii (R,).
    """
    dim = mollifier.dim
    sphere = make_sphere_rule(dim, sphere_level)
    z, gw = np.polynomial.legendre.leggauss(n_radial)
    radii = []
    rweights = []
    for a, b in mollifier.radial_bands(trunc_tol):
        r = 0.5 * (b - a) * z + 0.5 * (a + b)
        w = 0.5 * (b - a) * gw
        radii.append(r)
        rweights.append(
            SURFACE_AREA[dim] * w * r ** (dim - 1) * mollifier.radial_profile(r)
        )
    r_all = np.concatenate(radii)
    w_all = np.concatenate(rweights)
    offsets = r_all[:, None, None] * sphere.nodes[None, :, :]
    return offsets, w_all[:, None] * sphere.weights[None, :], r_all


def mollify(
    f: FieldSpec,
    eta: float,
    kernel: MollifierSpec,
    spacing: float,
    box: DomainBox,
    angular_level: int = 128,
    radial_nodes: int = 12,
) -> SampledField:
    """Convolve f with the radial probability kernel at scale eta, sampled on box.

    The convolution integral is evaluated in polar form over the kernel's
    radial bands (Gauss nodes in radius, a sphere rule in direction). The
    kernel must be the mollification family at scale eta.
    """
    if not eta > 0:
        raise ParameterError("eta must be positive")
    if kernel.dim != f.dim or box.dim != f.dim:
        raise DimensionError("field, kernel and box dimensions must agree")
    if abs(kernel.eps - eta) > 1e-12 * max(eta, 1.0):
        raise ParameterError("kernel scale must equal eta")
    reach = kernel.support_radius(1e-12)
    if isinstance(f, SampledField):
        inner = f.box.erode(reach)
        if inner.is_empty or np.any(box.lo < inner.lo - 1e-12) or np.any(
            box.hi > inner.hi + 1e-12
        ):
            raise DomainError("target box exceeds the sampled domain eroded by eta")
    counts = [max(2, math.ceil((box.hi[i] - box.lo[i]) / spacing)) + 1 for i in range(box.dim)]
    axes = [np.linspace(box.lo[i], box.hi[i], counts[i]) for i in range(box.dim)]
    pts = _tensor_grid(axes)
    step = np.array([ax[1] - ax[0] for ax in axes])

    values = np.zeros((pts.shape[0], f.dim))
    # offsets z = r * omega; u_eta(x) = sum_w u(x - z); chunk over sample points
    offsets, wmat, _ = _polar_rule(kernel, angular_level, radial_nodes, 1e-12)
    chunk = max(1, (1 << 20) // max(1, offsets.shape[0] * offsets.shape[1]))
    for start in range(0, pts.shape[0], chunk):
        block = pts[start : start + chunk]  # (B, d)
        y = block[:, None, None, :] - offsets[None, :, :, :]
        vals = f.eval(y)  # (B, R, M, d)
        values[start : start + chunk] = (wmat[None, :, :, None] * vals).sum(axis=(1, 2))
    values = values.reshape(tuple(counts) + (f.dim,))
    return SampledField(lo=box.lo, spacing=step, values=values)


# ---------------------------------------------------------------------------
# config catalog


def _has_bool(v) -> bool:
    if isinstance(v, list):
        return any(_has_bool(x) for x in v)
    return isinstance(v, bool)


def _cfg_array(params: dict, key: str, shape: tuple, path: str) -> np.ndarray:
    if key not in params:
        raise ConfigError(f"{path}.{key}: missing")
    # np.asarray would read JSON true/false as 1.0/0.0
    if _has_bool(params[key]):
        raise ConfigError(f"{path}.{key}: expected numbers, got a boolean")
    try:
        v = np.asarray(params[key], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.{key}: not numeric ({exc})") from None
    if v.shape != shape:
        raise ConfigError(f"{path}.{key}: expected shape {shape}, got {v.shape}")
    return v


def _cfg_num(params: dict, key: str, path: str) -> float:
    v = params.get(key)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number")
    return float(v)


def field_from_config(cfg, dim: int, path: str = "field") -> FieldSpec:
    """Build a catalog field from its JSON configuration object."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: expected an object with 'id' and 'params'")
    fid = cfg.get("id")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}.params: expected an object")
    try:
        if fid == "rigid":
            m = _cfg_array(params, "spin", (dim, dim), f"{path}.params")
            shift = (
                _cfg_array(params, "shift", (dim,), f"{path}.params")
                if "shift" in params
                else np.zeros(dim)
            )
            return RigidField.from_general(m, shift)
        if fid == "linear":
            m = _cfg_array(params, "matrix", (dim, dim), f"{path}.params")
            shift = (
                _cfg_array(params, "shift", (dim,), f"{path}.params")
                if "shift" in params
                else np.zeros(dim)
            )
            return LinearField(m, shift)
        if fid == "sin":
            return SinField(
                _cfg_array(params, "amplitude", (dim,), f"{path}.params"),
                _cfg_array(params, "waves", (dim, dim), f"{path}.params"),
            )
        if fid == "bump":
            return BumpField(
                _cfg_array(params, "amplitude", (dim,), f"{path}.params"),
                _cfg_array(params, "center", (dim,), f"{path}.params"),
                _cfg_num(params, "radius", f"{path}.params"),
            )
        if fid == "planar_jump":
            nu = _cfg_array(params, "normal", (dim,), f"{path}.params")
            norm = float(np.sqrt(nu @ nu))
            if norm == 0.0:
                raise ConfigError(f"{path}.params.normal: zero vector")
            offset = _cfg_num(params, "offset", f"{path}.params")
            minus = field_from_config(params.get("minus"), dim, f"{path}.params.minus")
            plus = field_from_config(params.get("plus"), dim, f"{path}.params.plus")
            return PlanarJumpField(nu / norm, offset, minus, plus)
    except (ParameterError, DimensionError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    raise ConfigError(
        f"{path}.id: unknown field id {fid!r} "
        "(expected rigid|linear|sin|bump|planar_jump)"
    )
