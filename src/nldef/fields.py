"""Vector-field catalog with exact symmetric-gradient ground truth.

Fields are immutable dataclasses sharing a small interface:

  eval(x)              values at points, vectorized over leading axes
  delta_dot_h(x, h)    <u(x+h) - u(x), h>, the reference pair kernel
  sym_gradient(x)      the symmetric part of the Jacobian, where defined
  kernel_classes(axes, h) ids of grid cells with identical kernel rows, or None
  pair_blocks(x, h, s) the engine's kernel hook: yields (rows, q) blocks of the
                       rows delta_dot_h * s, less <Eu(x) h, h> s with residual

The closed-form variants (rigid, linear, sin, planar jump with affine sides)
hand-code `delta_dot_h` so no field is evaluated at x + h and algebraic
identities hold exactly in floating point; in particular a rigid field
reports an exactly zero kernel, which is what makes the zero-energy test
bitwise. Bump and sampled fields use the generic difference. The sin field
alone has `pair_factors(x, h)`, low-rank factors of its kernel (or of its
residual), from which it builds its `pair_blocks`. Products with x (A x,
k.x, x.nu) are `_dot` sums.

`ground_truth` returns the limit value the energy sweep converges to: the
volume integral of Q_p of the symmetric gradient plus, for jump fields at
p = 1, the interface integral of Q_1 of the symmetric tensor product of the
jump with the interface normal.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    ModelError,
    ParameterError,
)
from .mollifiers import SURFACE_AREA, MollifierSpec, _check_rules, _is
from .symnorm import SphereRule, SymMatrix, _gauss, make_sphere_rule, qp_pow_eigs

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


_BLOCK_PAIRS = 1 << 17  # cells x nodes per block of a tile: 1 MB of float64, in L2


def _row_blocks(n: int, k: int):
    """(rows, q) over n cells of k nodes: row slices of at most _BLOCK_PAIRS
    pairs (one row at least), each with an (m, k) view of one reused buffer."""
    step = max(1, min(n, _BLOCK_PAIRS // max(1, k)))
    buf = np.empty((step, k))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n)), buf[: min(step, n - start)]


def _dot(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """x . v over the last axis as the fixed-order sum (x_1 v_1 + x_2 v_2) + x_3 v_3,
    broadcast: a point's value is the same alone and in a batch (BLAS's is not)."""
    out = x[..., 0] * v[..., 0]
    for k in range(1, x.shape[-1]):
        out = out + x[..., k] * v[..., k]
    return out


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x over the last axis of x, one `_dot` per row of a (m, d): (..., m)."""
    return np.stack([_dot(x, row) for row in a], axis=-1)


def _matmul_rows(a: np.ndarray, bt: np.ndarray, out: np.ndarray | None = None):
    """a @ bt (into out) with the bits of a many-row gemm in every row: numpy
    hands a one-row product to gemv, which rounds apart, so it goes in twice."""
    if a.shape[0] != 1:
        return np.matmul(a, bt, out=out)
    row = np.matmul(np.repeat(a, 2, axis=0), bt)[:1]
    return row if out is None else np.copyto(out, row) or out


class FieldSpec:
    """Base class; subclasses fill in dim, eval, sym_gradient.

    The engine reaches a field through two hooks. `pair_blocks(x, h, scale,
    residual)` yields a tile's pair rows block by block, the kernel times a
    per-node scale less the first-order term for the residual; the default
    builds them from `delta_dot_h`, the sin field and the planar jump build
    the same rows faster. `kernel_classes(axes, h)` lets the engine evaluate
    one cell per class of the outer grid's cells with equal kernel rows.
    """

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
        rigid field, so that rigid energies stay bitwise zero. The default
        `pair_blocks` calls it with cells x (m, 1, d) against offsets h (1, K, d).
        """
        x = np.asarray(x, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        du = self.eval(x + h) - self.eval(x)
        return (du * h).sum(axis=-1)

    def pair_blocks(self, x: np.ndarray, h: np.ndarray, scale: np.ndarray,
                    residual: bool = False):
        """Yield (rows, q) over cells x (n, d), offsets h (K, d), scale (K,).

        q (m, K) is `delta_dot_h(x[rows, None, :], h[None, :, :]) * scale`,
        with `residual` less the first-order rows <Eu(x) h, h> * scale. The
        rows cover [0, n) in order, at most `_BLOCK_PAIRS` pairs a block; q is
        a buffer the next block reuses, and the caller may write over it. A
        subclass may build the same rows faster to roundoff, linear in the
        scale, with row bits that do not depend on the block. This is the
        engine's only way to the kernel.
        """
        if residual:
            e, hht = _first_order(self, x, h, scale)
        for rows, q in _row_blocks(x.shape[0], h.shape[0]):
            np.multiply(self.delta_dot_h(x[rows, None, :], h[None, :, :]), scale, out=q)
            if residual:
                q -= _matmul_rows(e[rows], hht)
            yield rows, q

    def kernel_classes(self, axes: np.ndarray, h: np.ndarray) -> np.ndarray | None:
        """Kernel classes of the cells x of the tensor grid over `axes` (n, d),
        first axis slowest, against offsets h (K, d), or None.

        Ids: int64 of ndim d, extent 1 or n per axis, broadcast against the
        grid, so given only along the axes the kernel varies on. Contract:
        cells with equal ids get bitwise-equal rows of `delta_dot_h(x[:, None],
        h[None])` and `sym_gradient(x)`, so their residual rows agree too, and
        bitwise-equal rows of `pair_blocks` (plain and residual) in whatever
        block and among whatever cells. The engine calls it once per call, on
        its outer grid against both inner levels' nodes, and refines the grid's
        mask classes by it: ids along one axis by their dense rank (any int64),
        along more as id * C + mask class (C <= n^d classes; exact for |id| <
        2^63 / n^d). It gathers each class's mass to the others from one cell,
        whose `pair_blocks` row it takes from one cell per distinct id when
        those rows fit one block, else from the class's own first cell. None,
        the default, means the kernel depends on x: every cell is evaluated.
        """
        return None

    def _check_points(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise DimensionError(
                f"points have dimension {x.shape[-1]}, field has {self.dim}"
            )
        return x


def _first_order(field: FieldSpec, x: np.ndarray, h: np.ndarray, scale: np.ndarray):
    """Eu(x) (n, d^2), contiguous so that every block's product is a gemm,
    and h_i h_j * scale (d^2, K): the first-order rows are their product."""
    n, d = x.shape
    e = np.ascontiguousarray(field.sym_gradient(x).reshape(n, d * d))
    return e, (h.T[:, None, :] * h.T[None, :, :]).reshape(d * d, -1) * scale


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
        return _matvec(self.spin, x) + self.shift

    def sym_gradient(self, x) -> np.ndarray:
        x = self._check_points(x)
        return np.zeros(x.shape[:-1] + (self.dim, self.dim))

    def delta_dot_h(self, x, h) -> np.ndarray:
        # <R h, h> = 0 identically for skew R
        x = np.asarray(x, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        shape = np.broadcast_shapes(x.shape[:-1], h.shape[:-1])
        return np.broadcast_to(0.0, shape)

    def kernel_classes(self, axes, h) -> np.ndarray:
        return np.zeros((1,) * axes.shape[1], dtype=np.int64)  # the kernel is 0


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
        return _matvec(self.a, x) + self.shift

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

    kernel_classes = RigidField.kernel_classes  # <A h, h> does not involve x


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
        return self.amplitude * np.sin(_matvec(self.waves, x))

    def sym_gradient(self, x) -> np.ndarray:
        x = self._check_points(x)
        cos = np.cos(_matvec(self.waves, x))  # (..., d), column i is cos(k_i . x)
        du = cos[..., :, None] * (self.amplitude[:, None] * self.waves)
        return 0.5 * (du + np.swapaxes(du, -1, -2))

    def pair_factors(self, x, h, residual=False):
        """A = [a sin(k.x), a cos(k.x)] and B = [-2 sin^2(k.h / 2) h, sin(k.h) h].

        By sin(k.x + k.h) - sin(k.x) = sin(k.x) (cos(k.h) - 1) + cos(k.x) sin(k.h),
        with cos(k.h) - 1 = -2 sin^2(k.h / 2) to avoid the cancellation, the
        kernel is sum_r A_r B_r; the factors broadcast over leading axes. The
        first-order term is <Du(x) h, h> = sum_i a_i cos(k_i.x) (k_i.h) h_i,
        so with `residual` B's second half is (sin(k.h) - k.h) h instead.
        """
        x = np.asarray(x, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        kx = _matvec(self.waves, x)
        kh = h @ self.waves.T
        half = np.sin(0.5 * kh)
        amp = np.tile(self.amplitude, 2)
        a = amp * np.concatenate([np.sin(kx), np.cos(kx)], axis=-1)
        node = np.sin(kh) - kh if residual else np.sin(kh)
        b = np.concatenate([-2.0 * half * half * h, node * h], axis=-1)
        return a, b

    def pair_blocks(self, x, h, scale, residual=False):
        """Each block as one (m, 2d) x (2d, K) product of the `pair_factors`
        (with `residual`, the residual's); once per tile the scale goes into B."""
        a, b = self.pair_factors(x, h, residual)
        bt = np.ascontiguousarray(b.T * scale)
        for rows, q in _row_blocks(x.shape[0], h.shape[0]):
            yield rows, _matmul_rows(a[rows], bt, q)

    def delta_dot_h(self, x, h) -> np.ndarray:
        return _dot(*self.pair_factors(x, h))


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
    jump a(x) = u_plus(x) - u_minus(x) stays affine. `delta_dot_h` is the
    reference kernel; the engine takes its rows from `pair_blocks`, which
    splits them into x's side kernel and a signed low-rank jump term.
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
        # (A_+ - A_-, c_+ - c_-): the jump's matrix and shift, taken once
        lin = [s.spin if isinstance(s, RigidField) else s.a for s in (self.minus, self.plus)]
        object.__setattr__(self, "_jump", (lin[1] - lin[0], self.plus.shift - self.minus.shift))

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def _plus_side(self, x: np.ndarray) -> np.ndarray:
        return _dot(x, self.normal) - self.offset > 0.0

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
        """a(x) = u_plus(x) - u_minus(x) as one formula, dA x + dc with dA = A_+ - A_-
        and dc = c_+ - c_- (the sides' matrices and shifts): constant if dA == 0."""
        return _matvec(self._jump[0], self._check_points(x)) + self._jump[1]

    def delta_dot_h(self, x, h) -> np.ndarray:
        # with y = x + h on side s_y: u(y) - u(x) = (u_{s_y}(x + h) - u_{s_y}(x))
        # + (u_{s_y}(x) - u_{s_x}(x)), and the second term is (p_y - p_x) a(x)
        x = np.asarray(x, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        px = self._plus_side(x)
        # x.nu + h.nu equals (x + h).nu bitwise for normals +-e_j
        py = (_dot(x, self.normal) + _dot(h, self.normal)) - self.offset > 0.0
        q = np.where(py, self.plus.delta_dot_h(x, h), self.minus.delta_dot_h(x, h))
        if not np.any(py != px):  # no pair crosses the plane
            return q
        q += _dot(self.jump_at(x), h) * np.subtract(py, px, dtype=np.float64)
        return q

    def pair_blocks(self, x, h, scale, residual=False):
        """`delta_dot_h` * scale as k_{p_x}(h) s + sigma [1, a(x)].[dk(h), h] s.

        x lies on side p_x and x + h on side p_y, and sigma = p_y - p_x is -1, 0
        or 1; k_- and k_+ are the side kernels, functions of h alone for affine
        sides, dk = k_+ - k_-, a(x) = u_+(x) - u_-(x) and s the scale. A tile
        takes x.nu, k_- s, k_+ s and [1, a(x)] once. A block makes the side
        tests of `delta_dot_h` per distinct x.nu of its cells, an int8 sigma
        table that `_BLOCK_PAIRS` bounds, then one (m, d + 1) x (d + 1, K)
        product, times sigma, plus x's side row (a pair with sigma = 0 gets the
        bits of `delta_dot_h(...) * scale`; no crossing pair, no product), less
        the residual's first-order rows.
        """
        xn, hn = _dot(x, self.normal), _dot(h, self.normal)
        # the side kernels do not involve x, so x = 0 stands for every cell
        k_minus, k_plus = (side.delta_dot_h(np.zeros((1, 1, self.dim)), h[None])[0]
                           for side in (self.minus, self.plus))
        sides = np.stack([k_minus, k_plus]) * scale  # x's side row by p_x
        a = np.concatenate([np.ones((x.shape[0], 1)), self.jump_at(x)], axis=1)
        bt = np.vstack([k_plus - k_minus, h.T]) * scale
        if residual:
            e, hht = _first_order(self, x, h, scale)
        for rows, q in _row_blocks(x.shape[0], h.shape[0]):
            xb, at = np.unique(xn[rows], return_inverse=True)
            px = (xb > self.offset).view(np.int8)  # 0 minus, 1 plus
            sigma = (np.add.outer(xb, hn) > self.offset).view(np.int8) - px[:, None]
            if sigma.any():
                _matmul_rows(a[rows], bt, q)
                q *= sigma[at]
                q += sides[px[at]]
            else:  # mode="clip": px is 0 or 1, and "raise" copies through a temporary
                np.take(sides, px[at], axis=0, out=q, mode="clip")
            if residual:
                q -= _matmul_rows(e[rows], hht)
            yield rows, q

    def kernel_classes(self, axes, h) -> np.ndarray:
        """Cell i's side (0 minus, 1 plus) where every x + h stays on it, else
        2 + the dense rank of its x.nu if the sides' matrices are equal, else 2 + i.

        A side cell's kernel row is its side's affine kernel, which does not
        involve x; with equal matrices the jump is constant, and a band cell's
        row depends on x only through x.nu, the broadcast sum of the products
        axes[:, k] * nu_k over the nonzero nu_k in axis order: `_dot`'s float
        operations less its zero terms, which change no test or rank. So the
        ids vary along the axes where nu_k != 0 (axis j alone for nu = +-e_j),
        or along every axis for unequal matrices. The side test of
        `delta_dot_h` is nondecreasing in h.nu, so it is evaluated at the
        extremes of h.nu and at 0, which is x's own test (`sym_gradient`'s).
        """
        xn = reduce(np.add, [a * v for a, v in zip(np.ix_(*axes.T), self.normal) if v != 0.0])
        hn = _dot(h, self.normal)
        low = (xn + hn.min(initial=0.0)) - self.offset > 0.0
        high = (xn + hn.max(initial=0.0)) - self.offset > 0.0
        n, d = axes.shape  # with unequal matrices a band row involves all of x
        band = (np.arange(n**d).reshape((n,) * d) if self._jump[0].any()
                else np.unique(xn, return_inverse=True)[1].reshape(xn.shape))
        return np.where(low == high, low, 2 + band)


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
    if isinstance(f, PlanarJumpField) and float(_dot(x, f.normal)) == f.offset:
        raise DomainError("point lies on the jump interface")
    return SymMatrix(f.sym_gradient(x))


# ---------------------------------------------------------------------------
# ground truth
#
# The limit objects, `ground_truth` here, `measures.ground_truth_measure` and
# `energy.upper_bound_rhs`, share one quadrature path with one implementation
# per concept: `_cell_integrals` integrates a density over the equal cells of
# a box by tensor Gauss, `_refined` doubles a node count until two totals
# agree, and `_interface_atoms` is the jump interface's quadrature. Their sums
# are numpy sums in a fixed order, which no BLAS thread count changes.


def _tensor_grid(axes, weights=None):
    """Points (n, d) of the tensor grid over per-axis arrays, first axis slowest.

    With per-axis `weights` also returns the product weights (n,) in the
    same order.
    """
    d = len(axes)
    pts = np.empty([len(a) for a in axes] + [d], dtype=np.result_type(*axes))
    for k, a in enumerate(axes):  # axis k's values broadcast into column k
        pts[..., k] = np.reshape(a, (-1,) + (1,) * (d - 1 - k))
    pts = pts.reshape(-1, d)
    if weights is None:
        return pts
    return pts, reduce(np.multiply.outer, weights).ravel()


_GAUSS_CAP = {1: 4096, 2: 512, 3: 128}
_CELL_NODE_BUDGET = 1 << 16  # Gauss points per block of cells in _cell_integrals
_REFERENCE_LEVEL = 64  # sphere-rule level of the limit objects' Q_p sums


def _cell_integrals(func, box: DomainBox, n: int, g: int) -> np.ndarray:
    """Integrals (n^d,) of func(points (m, d)) -> (m,) over the n^d equal cells
    of box, first axis slowest, by g-point tensor Gauss in each cell.

    Cells go in blocks of at most _CELL_NODE_BUDGET Gauss points (one cell at
    least), so memory stays flat in n. A block's points are broadcast from the
    per-axis nodes, and a cell's integral is a numpy sum of weight times value
    in the cell's node order, which no BLAS thread count changes.
    """
    d = box.dim
    step = (box.hi - box.lo) / n
    z, w = _gauss(-1.0, 1.0, g)
    # per axis: node a of cell k sits at [k, a]
    nodes = [box.lo[i] + step[i] * (np.arange(n)[:, None] + 0.5 * (z[None, :] + 1.0))
             for i in range(d)]
    wts = reduce(np.multiply.outer, [0.5 * step[i] * w for i in range(d)]).ravel()
    per_block = max(1, _CELL_NODE_BUDGET // g**d)
    out = np.empty(n**d)
    for s in range(0, n**d, per_block):
        cells = np.unravel_index(np.arange(s, min(s + per_block, n**d)), (n,) * d)
        pts = np.empty((len(cells[0]),) + (g,) * d + (d,))
        for i in range(d):
            pts[..., i] = nodes[i][cells[i]].reshape((-1,) + (1,) * i + (g,) + (1,) * (d - 1 - i))
        vals = func(pts.reshape(-1, d))
        out[s : s + per_block] = (vals.reshape(-1, g**d) * wts).sum(axis=1)
    return out


def _refined(make, k: int, cap: int, tol: float) -> np.ndarray:
    """make(k) for k, 2k, .. up to cap, stopped once the sums of two successive
    results agree to tol relative; the last result made."""
    prev = None
    while True:
        val = make(k)
        total = val.sum()
        if k >= cap or prev is not None and abs(total - prev) <= tol * max(abs(total), 1e-30):
            return val
        prev, k = total, 2 * k


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


def _side_volumes(lo, hi, normal: np.ndarray, offset: float):
    """Volumes (m,) of each cell ∩ {<x,nu> < s} and ∩ {<x,nu> > s}, the cells of the
    tensor grid over per-axis edges lo[k], hi[k] (n_k,), first axis slowest. For
    nu = +-e_j they are outer products of per-axis lengths in axis order."""
    widths = [b - a for a, b in zip(lo, hi)]
    total = reduce(np.multiply.outer, widths).ravel()
    j = _axis_of(normal)
    if j is not None:
        below = np.clip(offset / normal[j], lo[j], hi[j]) - lo[j]  # length where x_j < cut
        rest = reduce(np.multiply.outer, widths[:j] + widths[j + 1 :], 1.0)
        part = np.moveaxis(np.multiply.outer(below, rest), 0, j).ravel()
        if normal[j] > 0:
            return part, total - part
        return total - part, part
    if len(widths) == 2:
        cells = zip(_tensor_grid(lo), _tensor_grid(hi))
        minus = np.array([_halfplane_area(a, b, normal, offset) for a, b in cells])
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
        rest = [i for i in range(d) if i != j]
        if not rest:
            return np.array([[cut]]), np.array([1.0])
        sub_pts, wts = _tensor_grid(*_gauss(box.lo[rest], box.hi[rest], n))
        return np.insert(sub_pts, j, cut, axis=1), wts
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
        t, w = _gauss(tmin, tmax, n)
        return p0 + t[:, None] * tau, w
    raise ModelError("general jump normals are unsupported in d=3 ground truth")


def _jump_volume_masses(f: PlanarJumpField, box: DomainBox, lo, hi, rule: SphereRule):
    """Volume part of the limit measure (m,) on the cells of `_side_volumes`'s
    per-axis edges lo, hi inside box.

    Both sides of a jump field are affine, so Q_1 of each side's symmetric
    gradient is a constant, taken at the box center.
    """
    probe = box.center()
    q_minus = _qp_pow_of_sym(f.minus.sym_gradient(probe)[None], 1.0, rule)[0]
    q_plus = _qp_pow_of_sym(f.plus.sym_gradient(probe)[None], 1.0, rule)[0]
    vol_minus, vol_plus = _side_volumes(lo, hi, f.normal, f.offset)
    return q_minus * vol_minus + q_plus * vol_plus


def _interface_atoms(f: PlanarJumpField, box: DomainBox, rule: SphereRule, n: int):
    """Interface atoms (points, masses) on the patch inside the box: the n-point
    nodes of `_interface_nodes`, each weight times the singular part's density
    Q_1(a ⊙ normal) at its node. If the sides share one matrix, a is dc at
    every node (`jump_at`), and the density is taken once for all of them."""
    pts, wts = _interface_nodes(box, f.normal, f.offset, n)
    a = f.jump_at(pts) if f._jump[0].any() else f._jump[1][None]
    m = 0.5 * (a[:, :, None] * f.normal[None, None, :] + f.normal[None, :, None] * a[:, None, :])
    return pts, wts * _qp_pow_of_sym(m, 1.0, rule)


def ground_truth(f: FieldSpec, box: DomainBox, p: float, rule: SphereRule) -> GroundTruth:
    """Limit of the nonlocal energies for a catalog field on a box.

    ac_value integrates Q_p(sym gradient)^p over the box (closed forms for Q
    where available) as the one cell of `_cell_integrals`, g = 8, 16, .. Gauss
    points per axis up to _GAUSS_CAP, refined to 1e-8. For planar jumps at
    p = 1 it is closed-form per side, and singular_value sums the
    `_interface_atoms` with n = 8, 16, .. 256 nodes, refined to 1e-8.
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
        ac = float(_jump_volume_masses(f, box, box.lo[:, None], box.hi[:, None], rule)[0])
        sing = float(_refined(lambda n: _interface_atoms(f, box, rule, n)[1], 8, 256, 1e-8).sum())
        return GroundTruth(p=p, ac_value=ac, singular_value=sing, total=ac + sing)

    def density(pts):
        return _qp_pow_of_sym(f.sym_gradient(pts), p, rule)

    ac = _refined(lambda g: _cell_integrals(density, box, 1, g), 8, _GAUSS_CAP[box.dim], 1e-8)
    return GroundTruth(p=p, ac_value=float(ac[0]), singular_value=0.0, total=float(ac[0]))


# ---------------------------------------------------------------------------
# mollification


def _polar_rule(mollifier: MollifierSpec, sphere_level: int, n_radial: int, trunc_tol: float):
    """Radius x sphere quadrature of rho over its truncated support.

    n_radial Gauss nodes in radius on each of the mollifier's radial bands,
    crossed with a sphere rule in direction, so integrals of g(h) rho(h) dh
    become sums of weights times g(offsets). Returns flat offsets (K, d),
    weights (K,) and each node's radius (K,), K = R M for R radii and M
    sphere nodes, radius slowest.
    """
    dim = mollifier.dim
    sphere = make_sphere_rule(dim, sphere_level)
    lo, hi = np.transpose(mollifier.radial_bands(trunc_tol))
    r, w = (a.ravel() for a in _gauss(lo, hi, n_radial))
    w = SURFACE_AREA[dim] * w * r ** (dim - 1) * mollifier.radial_profile(r)
    offsets = np.multiply.outer(r, sphere.nodes).reshape(-1, dim)
    return offsets, np.multiply.outer(w, sphere.weights).ravel(), np.repeat(r, len(sphere))


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
    kernel must be the mollification family at scale eta. A broken value
    rule raises ParameterError keyed by the argument.
    """
    real, whole = numbers.Real, numbers.Integral
    _check_rules(dict(eta=eta, spacing=spacing, angular_level=angular_level,
                      radial_nodes=radial_nodes), {
        "eta": (_is(real, eta) and 0 < eta < math.inf, "positive and finite"),
        "spacing": (_is(real, spacing) and 0 < spacing < math.inf, "positive and finite"),
        "angular_level": (_is(whole, angular_level) and angular_level >= 1, "an integer >= 1"),
        "radial_nodes": (_is(whole, radial_nodes) and radial_nodes >= 1, "an integer >= 1"),
    })
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

    # offsets z = r * omega: u_eta(x) = sum of w u(x - z), one offset at a time
    # in rule order; x - z goes in one reused buffer, w into eval's fresh values
    offsets, weights, _ = _polar_rule(kernel, angular_level, radial_nodes, 1e-12)
    values, y = np.zeros_like(pts), np.empty_like(pts)
    for z, w in zip(offsets, weights):
        vals = f.eval(np.subtract(pts, z, out=y))
        vals *= w
        values += vals
    values = values.reshape(tuple(counts) + (f.dim,))
    return SampledField(lo=box.lo, spacing=step, values=values)


# ---------------------------------------------------------------------------
# config catalog


_MISSING = object()
_NUMBER = (int, float)
_FLOAT_MAX = sys.float_info.max  # a Python float: ints compare to it exactly


def _leaves(v):
    if isinstance(v, list):
        for x in v:
            yield from _leaves(x)
    else:
        yield v


def _config_value(obj, key, path: str, types=None, shape=None, default=_MISSING):
    """`obj[key]` of a parsed JSON config (`key` an index when `obj` is a list).

    An absent key gives `default`, or an error when there is none. With
    `shape` the value must be nested lists of numbers of that shape, returned
    as a float64 array; else an instance of `types`. true/false are numbers
    only where `types` names bool, and a number must be finite (not NaN,
    Infinity, or an integer beyond the float range). Errors are ConfigErrors
    whose message starts with the value's path, `path.key` or `path[key]`.
    """
    where = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"
    if isinstance(key, str) and key not in obj:
        if default is _MISSING:
            raise ConfigError(f"{where}: missing")
        return default
    v = obj[key]
    if shape is not None:
        # np.asarray would read true/false as 1.0/0.0 and null as NaN
        if not all(isinstance(x, _NUMBER) and not isinstance(x, bool) for x in _leaves(v)):
            raise ConfigError(f"{where}: expected numbers")
        try:
            a = np.asarray(v, dtype=np.float64)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}: not numeric ({exc})") from None
        if a.shape != shape:
            raise ConfigError(f"{where}: expected shape {shape}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ConfigError(f"{where}: entries must be finite")
        return a
    types = types if isinstance(types, tuple) else (types,)
    if not isinstance(v, types) or (isinstance(v, bool) and bool not in types):
        raise ConfigError(f"{where}: wrong type {type(v).__name__}")
    if isinstance(v, _NUMBER) and not -_FLOAT_MAX <= v <= _FLOAT_MAX:
        raise ConfigError(f"{where}: must be finite, got {v}")
    return v


def field_from_config(cfg, dim: int, path: str = "field") -> FieldSpec:
    """Build a catalog field from its JSON configuration object."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: expected an object with 'id' and 'params'")
    fid = cfg.get("id")
    params = _config_value(cfg, "params", path, dict, default={})
    where = f"{path}.params"

    def arr(key, shape, default=_MISSING):
        return _config_value(params, key, where, shape=shape, default=default)

    def num(key):
        return float(_config_value(params, key, where, _NUMBER))

    try:
        if fid == "rigid":
            spin = arr("spin", (dim, dim))
            return RigidField.from_general(spin, arr("shift", (dim,), np.zeros(dim)))
        if fid == "linear":
            return LinearField(arr("matrix", (dim, dim)), arr("shift", (dim,), np.zeros(dim)))
        if fid == "sin":
            return SinField(arr("amplitude", (dim,)), arr("waves", (dim, dim)))
        if fid == "bump":
            return BumpField(arr("amplitude", (dim,)), arr("center", (dim,)), num("radius"))
        if fid == "planar_jump":
            nu = arr("normal", (dim,))
            norm = float(np.sqrt(nu @ nu))
            if norm == 0.0:
                raise ConfigError(f"{where}.normal: zero vector")
            offset = num("offset")
            minus = field_from_config(params.get("minus"), dim, f"{where}.minus")
            plus = field_from_config(params.get("plus"), dim, f"{where}.plus")
            return PlanarJumpField(nu / norm, offset, minus, plus)
    except (ParameterError, DimensionError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    raise ConfigError(
        f"{path}.id: unknown field id {fid!r} "
        "(expected rigid|linear|sin|bump|planar_jump)"
    )
