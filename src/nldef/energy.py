"""Double-integral engine for the nonlocal symmetric difference-quotient energy.

For a field u, domain box U, exponent p and mollifier rho_eps this computes

    F(u, U) = ∫_U ∫ |<u(y) - u(x), y - x>|^p / |y - x|^{2p} rho_eps(y - x) dy dx

with y restricted to U, by a midpoint rule over outer cells and, per outer
node, an inner quadrature in h = y - x coordinates: Gauss nodes in radius on
the mollifier's support bands crossed with a sphere rule in direction, so the
singular |h| factors cancel analytically and only the angular variation is
resolved. Inner nodes leaving U are rejected (zero mask).

Per tile of t outer cells and K inner nodes, the work is on (t, K) arrays:

- the mask is `DomainBox.contains_offsets`, an AND over the axes of
  lo_k <= x_k + h_k <= hi_k, bitwise equal to testing the points x + h;
- the pair kernel is the field's `delta_dot_h`, which is a closed form in
  (x, h) for rigid, linear, sin and planar-jump fields (no evaluation at
  x + h; exactly zero for rigid fields); bump and sampled fields take the
  generic difference u(x + h) - u(x);
- the residual term is one (t, d^2) x (d^2, K) contraction;
- |q|^p, the weights and the mask are applied in place before the row sum.

Determinism: outer cells are split into fixed-size contiguous tiles, each
tile's per-cell masses are computed with kernels that see only the tile, in
a fixed node order, and the final reduction is one pairwise tree over the
full cell array. The tiling does not depend on the worker count, so results
are bitwise reproducible across 1, 2 or 8 workers. The default worker count
is the number of CPUs this process may run on. A pool whose worker died is
rebuilt once; a second death raises WorkerError.

The residual variant subtracts the first-order term <Eu(x) h, h>/|h|^2 before
taking absolute values; its small-eps limit isolates the singular part of the
symmetric-gradient measure.
"""

from __future__ import annotations

import atexit
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    ModelError,
    ParameterError,
    WorkerError,
)
from .fields import (
    DomainBox,
    FieldSpec,
    PlanarJumpField,
    SampledField,
    _polar_rule,
    _tensor_grid,
    ground_truth,
)
from .mollifiers import MollifierSpec
from .symnorm import make_sphere_rule

__all__ = [
    "EnergyRequest",
    "EnergyResult",
    "energy",
    "local_density",
    "residual_energy",
    "upper_bound_rhs",
    "pairwise_total",
]

_TILE_NODE_BUDGET = 1 << 20  # outer-cells x inner-nodes per tile


def pairwise_total(values) -> float:
    """Sum with a fixed pairwise tree; depends only on the element order."""
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


@dataclass(frozen=True, eq=False)
class EnergyRequest:
    field: FieldSpec
    domain: DomainBox
    p: float
    mollifier: MollifierSpec
    outer_grid: int
    inner_mode: str = "radial_spherical"
    inner_level: int = 16
    trunc_tol: float = 1e-10
    workers: int | None = None

    def __post_init__(self):
        p_ok = isinstance(self.p, (int, float)) and not isinstance(self.p, bool)
        if not (p_ok and self.p >= 1):
            raise ParameterError(f"p must be a number >= 1, got {self.p!r}")
        for name in ("outer_grid", "inner_level"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ParameterError(f"{name} must be an integer, got {v!r}")
        if self.outer_grid < 2:
            raise ParameterError(f"outer grid needs N >= 2, got {self.outer_grid}")
        if not 0 < self.trunc_tol <= 1e-2:
            raise ParameterError(
                f"truncation tol must lie in (0, 1e-2], got {self.trunc_tol}"
            )
        if self.inner_mode not in ("radial_spherical", "tensor"):
            raise ParameterError(f"unknown inner mode {self.inner_mode!r}")
        if self.inner_level < 1:
            raise ParameterError("inner level must be >= 1")
        if not (self.field.dim == self.domain.dim == self.mollifier.dim):
            raise DimensionError("field, domain and mollifier dimensions must agree")
        object.__setattr__(self, "p", float(self.p))


@dataclass(frozen=True, eq=False)
class EnergyResult:
    value: float
    truncation_radius: float
    samples_outer: int
    samples_inner: int
    elapsed: float
    est_quadrature_error: float


def _resolve_workers(explicit: int | None) -> int:
    if explicit is not None:
        if explicit < 1:
            raise ParameterError("workers must be >= 1")
        return explicit
    env = os.environ.get("NLD_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ConfigError(f"NLD_THREADS={env!r} is not an integer") from None
        if n < 1:
            raise ConfigError(f"NLD_THREADS={env!r} must be >= 1")
        return n
    try:
        return len(os.sched_getaffinity(0))  # the CPUs this process may run on
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


_POOLS: dict[int, ProcessPoolExecutor] = {}


def _shutdown_pools():
    for ex in _POOLS.values():
        ex.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()


atexit.register(_shutdown_pools)


def _get_pool(workers: int) -> ProcessPoolExecutor:
    ex = _POOLS.get(workers)
    if ex is None:
        ex = ProcessPoolExecutor(max_workers=workers)
        _POOLS[workers] = ex
    return ex


def _pool_map(workers: int, fn, *args) -> list:
    """list(map(fn, *args)) on the cached pool of `workers` processes.

    A pool with a dead worker raises BrokenProcessPool from then on, so it
    is dropped from the cache and rebuilt once; if the rebuilt pool breaks
    too, WorkerError is raised.
    """
    for _ in range(2):
        try:
            return list(_get_pool(workers).map(fn, *args))
        except BrokenProcessPool:
            _POOLS.pop(workers).shutdown(wait=False, cancel_futures=True)
    raise WorkerError(
        f"a worker of the {workers}-process pool died, and again after a rebuild"
    )


# ---------------------------------------------------------------------------
# quadrature assembly


def _tensor_nodes(mollifier: MollifierSpec, level: int, trunc_tol: float):
    """Gauss grid on the truncation cube [-R, R]^d weighted by rho_eps."""
    dim = mollifier.dim
    radius = mollifier.support_radius(trunc_tol)
    n = level + (level & 1)  # even count keeps h = 0 off the grid
    z, gw = np.polynomial.legendre.leggauss(n)
    h, w = _tensor_grid([radius * z] * dim, [radius * gw] * dim)
    w = w * mollifier.eval(h)
    keep = w > 0.0
    h = h[keep]
    w = w[keep]
    inv_r2 = 1.0 / (h * h).sum(axis=1)
    return h, w, inv_r2


def _inner_nodes(req: EnergyRequest, level: int):
    """Inner nodes H (K, d), weights W (K,), inverse square radii (K,)."""
    if req.inner_mode == "tensor":
        return _tensor_nodes(req.mollifier, level, req.trunc_tol)
    h, w, r = _polar_rule(req.mollifier, level, max(2, level // 4), req.trunc_tol)
    inv_r2 = np.repeat(1.0 / (r * r), h.shape[1])
    return h.reshape(-1, req.mollifier.dim), w.reshape(-1), inv_r2


def _midpoints(box: DomainBox, n: int):
    axes = [
        box.lo[i] + (box.hi[i] - box.lo[i]) * (np.arange(n) + 0.5) / n
        for i in range(box.dim)
    ]
    return _tensor_grid(axes), box.volume() / n**box.dim


# ---------------------------------------------------------------------------
# tile kernel


def _abs_pow(q: np.ndarray, p: float) -> np.ndarray:
    """|q|^p, written over q."""
    if p == 2.0:
        return np.multiply(q, q, out=q)
    np.abs(q, out=q)
    if p != 1.0:
        np.power(q, p, out=q)
    return q


def _tile_masses(field, domain, x_tile, h, w, inv_r2, p, residual, cellvol):
    """Per-cell masses (densities times cell volume) for one outer tile.

    Pair arrays are (t, K); only the generic kernel (bump and sampled
    fields) builds the (t, K, d) points x + h.
    """
    inside = domain.contains_offsets(x_tile, h)
    q = np.multiply(field.delta_dot_h(x_tile[:, None, :], h[None, :, :]), inv_r2)
    if residual:
        # sum_ij e_ij(x) h_i h_j / |h|^2 as one (t, d^2) x (d^2, K) contraction
        t, d = x_tile.shape
        e = field.sym_gradient(x_tile).reshape(t, d * d)
        hh = (h[:, :, None] * h[:, None, :]).reshape(-1, d * d) * inv_r2[:, None]
        q -= e @ hh.T
    contrib = _abs_pow(q, p)
    contrib *= w
    np.copyto(contrib, 0.0, where=~inside)
    return contrib.sum(axis=1) * cellvol


def _all_masses(req: EnergyRequest, level: int, workers: int, residual: bool):
    """Masses mu^p(x_i) * cellvol for every outer cell, in fixed cell order."""
    h, w, inv_r2 = _inner_nodes(req, level)
    pts, cellvol = _midpoints(req.domain, req.outer_grid)
    k_inner = h.shape[0]
    tile = max(1, _TILE_NODE_BUDGET // max(1, k_inner))
    tiles = [pts[s : s + tile] for s in range(0, pts.shape[0], tile)]
    shared = [repeat(a) for a in (h, w, inv_r2, req.p, residual, cellvol)]
    args = (_tile_masses, repeat(req.field), repeat(req.domain), tiles, *shared)
    if workers > 1 and len(tiles) > 1:
        parts = _pool_map(workers, *args)
    else:
        parts = list(map(*args))
    return np.concatenate(parts), pts, k_inner


def _masses(req: EnergyRequest, residual: bool):
    """(midpoints, masses, inner node count, est_quadrature_error).

    The masses and the node count come from the finer inner level
    (2 x inner_level); the error estimate is the gap between the totals
    of the two levels.
    """
    if residual:
        if req.p != 1.0:
            raise ParameterError("residual energy is defined for p = 1 only")
        if isinstance(req.field, SampledField):
            raise ModelError("residual energy needs a closed-form gradient")
    workers = _resolve_workers(req.workers)
    if req.domain.is_empty:
        return np.zeros((0, req.domain.dim)), np.zeros(0), 0, 0.0
    coarse, _, _ = _all_masses(req, req.inner_level, workers, residual)
    fine, pts, k_fine = _all_masses(req, 2 * req.inner_level, workers, residual)
    return pts, fine, k_fine, abs(pairwise_total(fine) - pairwise_total(coarse))


def _evaluate(req: EnergyRequest, residual: bool) -> EnergyResult:
    t0 = time.perf_counter()
    _, masses, k_fine, est = _masses(req, residual)
    return EnergyResult(
        value=pairwise_total(masses),
        truncation_radius=req.mollifier.support_radius(req.trunc_tol),
        samples_outer=masses.shape[0],
        samples_inner=k_fine,
        elapsed=time.perf_counter() - t0,
        est_quadrature_error=est,
    )


def energy(req: EnergyRequest) -> EnergyResult:
    """F(u, U) by midpoint-outer, refined-inner quadrature.

    value comes from the finer inner level (2 x inner_level);
    est_quadrature_error is the gap to the coarser level.
    """
    return _evaluate(req, residual=False)


def residual_energy(req: EnergyRequest) -> EnergyResult:
    """Same engine with the first-order term subtracted (p = 1 only)."""
    return _evaluate(req, residual=True)


def local_density(req: EnergyRequest, x) -> float:
    """mu(x): the inner integral alone at one point, p-th root applied."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (req.domain.dim,):
        raise DimensionError(f"point shape {x.shape} does not match the domain")
    if not bool(req.domain.contains(x)):
        raise DomainError("point lies outside the domain")
    h, w, inv_r2 = _inner_nodes(req, 2 * req.inner_level)
    mass = _tile_masses(
        req.field, req.domain, x[None, :], h, w, inv_r2, req.p, False, 1.0
    )[0]
    return float(mass ** (1.0 / req.p))


def density_masses(req: EnergyRequest, residual: bool = False):
    """(midpoints, masses, est_quadrature_error): the measure the energy sums.

    Shares the energy pipeline so pairwise_total(masses) equals
    energy(req).value bit for bit.
    """
    pts, masses, _, est = _masses(req, residual)
    return pts, masses, est


def upper_bound_rhs(
    field: FieldSpec, box: DomainBox, radius: float, p: float, mollifier: MollifierSpec
) -> float:
    """[Eu]_p(U_R)^p + (2/R^p) ||u||_p(U)^p tail_mass(R), the a-priori bound.

    Valid for fields with an integrable symmetric gradient; jump fields are
    rejected. Both integrals use adaptive tensor Gauss quadrature.
    """
    if isinstance(field, PlanarJumpField):
        raise ModelError("the upper bound needs a gradient field without jumps")
    if isinstance(field, SampledField):
        raise ModelError("the upper bound needs a closed-form field")
    if not radius > 0:
        raise ParameterError("R must be positive")
    if p < 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    rule = make_sphere_rule(field.dim, 64)
    grad_term = ground_truth(field, box.dilate(radius), p, rule).total
    tail = mollifier.tail_mass(radius)
    if tail == 0.0:
        return grad_term
    from .fields import _adaptive_box_integral  # local import, private helper

    def norm_p(pts):
        u = field.eval(pts)
        return ((u * u).sum(axis=-1)) ** (0.5 * p)

    u_term = _adaptive_box_integral(norm_p, box)
    return grad_term + (2.0 / radius**p) * u_term * tail
