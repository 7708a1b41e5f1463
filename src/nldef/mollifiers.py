"""Radial probability mollifier families rho_eps on R^d, d <= 3.

Three families, all radial with unit mass:

  scaled_bump  rho_eps(x) = eps^-d C_d exp(-1/(1 - |x/eps|^2)) on |x| < eps
  gaussian     density of N(0, eps^2 I)
  shell        constant radial profile on the annulus eps/2 <= |x| <= eps

Normalization constants are computed once per (family, dim) by adaptive 1D
radial quadrature with the surface-area factor handled analytically.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError

__all__ = ["MollifierSpec", "FAMILIES", "SURFACE_AREA"]

FAMILIES = ("scaled_bump", "gaussian", "shell")

# |S^{d-1}| for d = 1, 2, 3 (d=1: counting measure on two points)
SURFACE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

# cache of bump normalization constants C_d
_BUMP_CONST: dict[int, float] = {}


def _bump_profile(r):
    # exp(-1/(1-r^2)) on [0,1), 0 beyond; written to avoid overflow warnings
    r = np.asarray(r, dtype=np.float64)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    out = np.zeros_like(r)
    inside = r < 1.0
    ri = r[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ri * ri))
    return out[0] if scalar else out


def _bump_const(dim: int) -> float:
    c = _BUMP_CONST.get(dim)
    if c is None:
        # scipy.integrate is imported by its two users alone: it takes longer to
        # import than the rest of the package, and most requests never integrate
        from scipy.integrate import quad

        integral, _ = quad(
            lambda r: r ** (dim - 1) * math.exp(-1.0 / (1.0 - r * r)),
            0.0,
            1.0,
            epsabs=1e-14,
            epsrel=1e-14,
            limit=200,
        )
        c = 1.0 / (SURFACE_AREA[dim] * integral)
        _BUMP_CONST[dim] = c
    return c


def _is(kind, v) -> bool:
    """v is an instance of the `numbers` class `kind`, and not a bool."""
    return isinstance(v, kind) and not isinstance(v, bool)


def _check_rules(obj, rules: dict) -> None:
    """Raise ParameterError for the first of `rules` (field -> (holds, need))
    that fails; its `key` is the field, for callers that report it elsewhere.
    obj holds the values: as attributes, or a dict of a function's arguments."""
    for key, (ok, need) in rules.items():
        if not ok:
            got = obj[key] if isinstance(obj, dict) else getattr(obj, key)
            exc = ParameterError(f"{key} must be {need}, got {got!r}")
            exc.key = key
            raise exc


@dataclass(frozen=True, eq=False)
class MollifierSpec:
    """One member of a radial mollifier family at a given scale eps.

    Construction checks the family (one of FAMILIES) and eps (positive and finite,
    with a finite positive normalising constant) here and nowhere else; a broken
    rule raises ParameterError whose `key` names the field, as EnergyRequest does.
    """

    family: str
    eps: float
    dim: int

    def __post_init__(self):
        eps = self.eps
        _check_rules(self, {
            "family": (self.family in FAMILIES, f"one of {FAMILIES}"),
            "eps": (_is(numbers.Real, eps) and 0.0 < eps < math.inf, "positive and finite"),
        })
        if self.dim not in (1, 2, 3):
            raise DimensionError(f"dimension {self.dim} unsupported, need 1..3")
        # _norm_const warms the bump constant's cache, so workers never race on quad
        _check_rules(self, {"eps": (0.0 < self._norm_const() < math.inf,
                                    "such that the normalising constant is finite and > 0")})

    def _norm_const(self) -> float:
        """The family's normalising constant at eps; inf where it under- or overflows."""
        eps, d = self.eps, self.dim
        try:
            if self.family == "shell":
                return d / (SURFACE_AREA[d] * (eps**d - (0.5 * eps) ** d))
            if self.family == "gaussian":
                return (2.0 * math.pi * (eps * eps)) ** (-0.5 * d)
            return eps ** (-d) * _bump_const(d)
        except (ZeroDivisionError, OverflowError):
            return math.inf

    # radial profile rho_hat(r), vectorized in r >= 0
    def radial_profile(self, r):
        r = np.asarray(r, dtype=np.float64)
        eps, c = self.eps, self._norm_const()
        if self.family == "shell":
            return np.where((r >= 0.5 * eps) & (r <= eps), c, 0.0)
        if self.family == "gaussian":
            return c * np.exp(-0.5 * r * r / (eps * eps))
        return c * _bump_profile(r / eps)

    def eval(self, x) -> np.ndarray:
        """rho_eps at points x of shape (..., dim)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise DimensionError(
                f"points have dimension {x.shape[-1]}, mollifier has {self.dim}"
            )
        return self.radial_profile(np.sqrt((x * x).sum(axis=-1)))

    def is_compact(self) -> bool:
        return self.family in ("shell", "scaled_bump")

    def tail_mass(self, delta: float) -> float:
        """Mass outside the ball of radius delta, by radial quadrature."""
        if not delta > 0.0:
            raise ParameterError(f"delta must be positive, got {delta}")
        d = self.dim
        if self.is_compact():
            if delta >= self.eps:
                return 0.0
            lo, hi = delta, self.eps
            if self.family == "shell":
                # profile vanishes below eps/2, integrate only where it lives
                lo = max(delta, 0.5 * self.eps)
        else:
            lo, hi = delta, np.inf
        from scipy.integrate import quad

        val, _ = quad(
            lambda r: r ** (d - 1) * float(self.radial_profile(r)),
            lo,
            hi,
            epsabs=1e-13,
            epsrel=1e-12,
            limit=400,
        )
        return min(1.0, SURFACE_AREA[d] * val)

    def support_radius(self, tol: float) -> float:
        """Smallest radius on a geometric grid with tail_mass <= tol.

        Exact for the compactly supported families.
        """
        if not 0.0 < tol < 1.0:
            raise ParameterError(f"tol must lie in (0,1), got {tol}")
        if self.is_compact():
            return self.eps
        growth = 2.0 ** 0.125
        r = self.eps
        for _ in range(400):
            if self.tail_mass(r) <= tol:
                return r
            r *= growth
        raise ParameterError("tail mass did not drop below tol")  # pragma: no cover

    def radial_bands(self, trunc_tol: float) -> list[tuple[float, float]]:
        """Partition of the (truncated) support into radial quadrature bands.

        Band edges track the structure of the profile: the shell is one band,
        the bump splits at eps/2, the gaussian is cut into eps-wide bands up
        to the truncation radius for the given tolerance.
        """
        eps = self.eps
        if self.family == "shell":
            return [(0.5 * eps, eps)]
        if self.family == "scaled_bump":
            return [(0.0, 0.5 * eps), (0.5 * eps, eps)]
        radius = self.support_radius(trunc_tol)
        n = max(1, math.ceil(radius / eps))
        edges = np.linspace(0.0, radius, n + 1)
        return [(float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])]
