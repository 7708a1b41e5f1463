"""Discrete measures: the energy density as a measure, its limit, weak-* gaps.

The density measure puts the cell mass mu(x_i) * cellvol at each outer
midpoint; by construction its total equals the energy value bit for bit. The
ground-truth measure discretizes the limit object: Q_1 of the symmetric
gradient as cell atoms plus, for jumps, interface quadrature atoms of
Q_1(a ⊙ normal). Its quadrature is that of `fields.ground_truth`: a smooth
field's atoms are `_cell_integrals` on the n_cells grid, g = 4, 8, 16 Gauss
points per axis `_refined` to 1e-9, a jump's interface atoms one fixed fine
`_interface_atoms` rule. Weak-* convergence is probed against a finite
dictionary of bounded continuous test functions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .energy import EnergyRequest, _midpoints, density_masses, pairwise_total
from .errors import DimensionError, ModelError, ParameterError
from .fields import (
    _REFERENCE_LEVEL,
    DomainBox,
    FieldSpec,
    PlanarJumpField,
    SampledField,
    _cell_integrals,
    _dot,
    _interface_atoms,
    _jump_volume_masses,
    _qp_pow_of_sym,
    _refined,
    _tensor_grid,
    _vec,
)
from .mollifiers import _check_rules, _is
from .symnorm import SphereRule, make_sphere_rule

__all__ = [
    "DiscreteMeasure",
    "TestFunction",
    "density_measure",
    "ground_truth_measure",
    "pair",
    "weakstar_gap",
]


def _fmt(x) -> str:
    """A float as %.17g, which parses back bitwise; NaN as NaN."""
    x = float(x)
    if math.isnan(x):
        return "NaN"
    return f"{x:.17g}"


def _write_lines(path, lines, what: str) -> None:
    """Write text lines, each ending in a newline, as UTF-8."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from None


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Non-negative atoms (points, masses) supported in a domain box."""

    domain: DomainBox
    points: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        m = np.ascontiguousarray(self.masses, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.domain.dim:
            raise DimensionError(f"atom array {pts.shape} does not fit the domain")
        if m.shape != (pts.shape[0],):
            raise DimensionError("one mass per atom required")
        if m.size and (not np.all(np.isfinite(m)) or m.min() < 0):
            raise ParameterError("atom masses must be finite and >= 0")
        pts.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", m)

    def __len__(self) -> int:
        return self.masses.shape[0]

    def total(self) -> float:
        return pairwise_total(self.masses)

    def to_csv(self, path) -> None:
        d = self.domain.dim
        lines = [",".join([f"x_{i + 1}" for i in range(d)] + ["mass"])]
        for pt, mass in zip(self.points, self.masses):
            lines.append(",".join([_fmt(v) for v in pt] + [_fmt(mass)]))
        _write_lines(path, lines, "measure")


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Bounded continuous test function: constant, tent, or cosine mode."""

    # not a test case, despite the name test runners key on
    __test__ = False

    kind: str
    center: np.ndarray | None = None
    radius: float | None = None
    wave: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "const_one":
            pass
        elif self.kind == "tent":
            object.__setattr__(self, "center", _vec(self.center, name="tent center"))
            if not (self.radius and self.radius > 0):
                raise ParameterError("tent radius must be positive")
        elif self.kind == "cosine":
            object.__setattr__(self, "wave", _vec(self.wave, name="cosine wave"))
        else:
            raise ParameterError(f"unknown test function kind {self.kind!r}")

    @classmethod
    def const_one(cls) -> "TestFunction":
        return cls("const_one")

    @classmethod
    def tent(cls, center, radius: float) -> "TestFunction":
        return cls("tent", center=center, radius=float(radius))

    @classmethod
    def cosine(cls, wave) -> "TestFunction":
        return cls("cosine", wave=wave)

    @property
    def sup_norm(self) -> float:
        return 1.0

    def label(self) -> str:
        if self.kind == "const_one":
            return "const_one"
        if self.kind == "tent":
            c = " ".join(f"{v:g}" for v in self.center)
            return f"tent({c}; r={self.radius:g})"
        k = " ".join(f"{v:g}" for v in self.wave)
        return f"cos(2pi[{k}].x)"

    def eval(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "const_one":
            return np.ones(x.shape[:-1])
        vec = self.center if self.kind == "tent" else self.wave
        if x.shape[-1] != len(vec):
            raise DimensionError(f"points have dimension {x.shape[-1]}, the {self.kind} {len(vec)}")
        if self.kind == "tent":
            # |x - c|^2 as column terms in axis order, numpy's order for a short last-axis sum
            r2 = (x[..., 0] - self.center[0]) ** 2
            for k in range(1, x.shape[-1]):
                r2 += (x[..., k] - self.center[k]) ** 2
            return np.maximum(0.0, 1.0 - np.sqrt(r2) / self.radius)
        return np.cos(2.0 * math.pi * _dot(x, self.wave))


def density_measure(req: EnergyRequest) -> DiscreteMeasure:
    """mu_{1,eps} cellvol at the outer midpoints; total() == energy(req).value."""
    if req.p != 1.0:
        raise ParameterError("the density measure is defined for p = 1")
    pts, masses, _ = density_masses(req)
    return DiscreteMeasure(req.domain, pts, masses)


def ground_truth_measure(
    f: FieldSpec, box: DomainBox, rule: SphereRule | None = None, n_cells: int = 64
) -> DiscreteMeasure:
    """The limit measure: Q_1 density atoms per cell, at the points of
    `density_masses` on an n_cells (an integer >= 1) grid, plus interface atoms."""
    _check_rules({"n_cells": n_cells}, {"n_cells": (
        _is(numbers.Integral, n_cells) and n_cells >= 1, "an integer >= 1")})
    if isinstance(f, SampledField):
        raise ModelError("the limit measure needs a closed-form field")
    if rule is None:
        rule = make_sphere_rule(f.dim, _REFERENCE_LEVEL)
    if box.dim != f.dim or rule.dim != f.dim:
        raise DimensionError("field, box and rule dimensions must agree")
    n = n_cells
    step = (box.hi - box.lo) / n
    mids = _tensor_grid(_midpoints(box, n)[0].T)
    if isinstance(f, PlanarJumpField):
        lo = box.lo[:, None] + step[:, None] * np.arange(n)  # per axis, the cells' low edges
        cell_masses = _jump_volume_masses(f, box, lo, lo + step[:, None], rule)
        # a fixed fine patch rule: the atoms also have to pair accurately against
        # kinked test functions, which refining on the mass total alone misses
        ipts, imasses = _interface_atoms(f, box, rule, 256 if box.dim == 2 else 64)
        masses = np.concatenate([cell_masses, imasses])
        return DiscreteMeasure(box, np.vstack([mids, ipts]), masses)

    def density(pts):
        return _qp_pow_of_sym(f.sym_gradient(pts), 1.0, rule)

    cell_masses = _refined(lambda g: _cell_integrals(density, box, n, g), 4, 16, 1e-9)
    return DiscreteMeasure(box, mids, cell_masses)


def pair(m: DiscreteMeasure, phi: TestFunction) -> float:
    """The weak-* pairing: sum of mass_i phi(point_i)."""
    if len(m) == 0:
        return 0.0
    return pairwise_total(m.masses * phi.eval(m.points))


def weakstar_gap(requests, phis):
    """Per-(request, phi) pairing gaps of density measures against the limit measure.

    The requests are p = 1 energy requests on one field and one domain (the
    same objects), typically one per eps. Returns a list of row dicts with
    keys eps, phi, gap, pair_value, ref_value, est_quad_err, ordered by the
    given requests then by phi.

    The limit measure is `ground_truth_measure` at its default of 64 cells
    per axis, whatever the requests' outer grid N: the density atoms sit on
    the N-cell midpoints, so the atoms of the two measures coincide only
    when N = 64.
    """
    requests = list(requests)
    if not requests:
        raise ParameterError("weakstar gaps need at least one request")
    f, box = requests[0].field, requests[0].domain
    for req in requests:
        if req.p != 1.0:
            raise ParameterError(f"weakstar gaps need p = 1 requests, got p = {req.p}")
        if req.field is not f or req.domain is not box:
            raise ParameterError("weakstar requests must share one field and one domain")
    phis = list(phis)
    ref = ground_truth_measure(f, box)
    ref_pairs = [pair(ref, phi) for phi in phis]
    rows = []
    for req in requests:
        pts, masses, est = density_masses(req)
        mu = DiscreteMeasure(box, pts, masses)
        for phi, ref_val in zip(phis, ref_pairs):
            val = pair(mu, phi)
            rows.append(
                {
                    "eps": float(req.mollifier.eps),
                    "phi": phi.label(),
                    "gap": abs(val - ref_val),
                    "pair_value": val,
                    "ref_value": ref_val,
                    "est_quad_err": est,
                }
            )
    return rows
