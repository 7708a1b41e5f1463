"""Sphere-averaged seminorms of symmetric matrices.

The central object is the directional average

    Q_p(A) = ( avg_{|w|=1} |<A w, w>|^p )^(1/p)

taken against the normalized surface measure on the unit sphere, together
with quadrature rules for evaluating it in dimensions 1, 2, 3 and the closed
forms available at p = 1 (positive semidefinite case) and p = 2.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, ParameterError

__all__ = [
    "SymMatrix",
    "SphereRule",
    "make_sphere_rule",
    "q_norm",
    "q_norm_eigen",
    "q1_trace_psd",
    "q2_closed",
]

# PSD test: smallest eigenvalue may dip slightly negative in floating point
PSD_TOL = 1e-12
_SPHERE_NODE_BUDGET = 1 << 15  # matrix rows x sphere nodes per block in _sphere_pow_sum


def _lock(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Symmetric d x d matrix, d <= 3.

    The constructor symmetrizes its input via (A + A^T)/2, so entry (i, j)
    equals entry (j, i) exactly (floating-point addition commutes), and the
    stored array is read-only.
    """

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        if not 1 <= a.shape[0] <= 3:
            raise DimensionError(f"dimension {a.shape[0]} unsupported, need 1..3")
        if not np.all(np.isfinite(a)):
            raise ParameterError("matrix entries must be finite")
        object.__setattr__(self, "a", _lock(0.5 * (a + a.T)))

    @classmethod
    def diag(cls, values) -> "SymMatrix":
        return cls(np.diag(np.asarray(values, dtype=np.float64)))

    @classmethod
    def sym_outer(cls, u, v) -> "SymMatrix":
        """Symmetric tensor product ½(u v^T + v u^T)."""
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        return cls(0.5 * (np.outer(u, v) + np.outer(v, u)))

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def entry(self, i: int, j: int) -> float:
        return float(self.a[i, j])

    def trace(self) -> float:
        return float(np.trace(self.a))

    def frobenius(self) -> float:
        return float(np.sqrt((self.a * self.a).sum()))

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in non-increasing order."""
        return np.linalg.eigvalsh(self.a)[::-1].copy()

    def eigensystem(self):
        """(eigenvalues non-increasing, eigenvector columns to match)."""
        lam, vec = np.linalg.eigh(self.a)
        return lam[::-1].copy(), vec[:, ::-1].copy()

    # small algebra, mostly for property tests
    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        return SymMatrix(self.a + other.a)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        return SymMatrix(self.a - other.a)

    def __mul__(self, c: float) -> "SymMatrix":
        return SymMatrix(self.a * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "SymMatrix":
        return SymMatrix(-self.a)


@dataclass(frozen=True, eq=False)
class SphereRule:
    """Quadrature nodes and weights for the normalized sphere average.

    Weights sum to 1 (the rule represents the average, not the surface
    integral) and nodes come in exact antipodal pairs: the second half of the
    node array is the elementwise negation of the first half.
    """

    dim: int
    level: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", _lock(self.nodes))
        object.__setattr__(self, "weights", _lock(self.weights))

    def __len__(self) -> int:
        return self.nodes.shape[0]

    def to_json(self) -> str:
        return json.dumps(
            {
                "dim": self.dim,
                "level": self.level,
                "nodes": self.nodes.tolist(),
                "weights": self.weights.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "SphereRule":
        d = json.loads(text)
        return cls(
            dim=int(d["dim"]),
            level=int(d["level"]),
            nodes=np.asarray(d["nodes"], dtype=np.float64),
            weights=np.asarray(d["weights"], dtype=np.float64),
        )


@functools.lru_cache(maxsize=32, typed=True)
def _legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], read-only and cached:
    `leggauss` is slow for large n and its result never changes. Keyed by type
    too, so a float n still raises in `leggauss`."""
    return tuple(_lock(a) for a in np.polynomial.legendre.leggauss(n))


def _gauss(a, b, n: int):
    """n-point Gauss-Legendre nodes and weights on [a, b], one row per interval
    when a and b are arrays, behind every Gauss rule. The [-1, 1] rule is
    built once per n (`_legendre`); the returned arrays are fresh and the
    caller's to write."""
    z, w = _legendre(n)
    half, mid = 0.5 * np.subtract(b, a), 0.5 * np.add(a, b)
    return np.multiply.outer(half, z) + mid[..., None], np.multiply.outer(half, w)


def make_sphere_rule(dim: int, level: int) -> SphereRule:
    """Build a sphere rule for the normalized average in dimension 1, 2 or 3.

    The arguments are checked on every call; the rule is built once per
    process for each (dim, level) of the same types and then shared, its
    arrays read-only.

    Parameters
    ----------
    dim : int
        Ambient dimension, one of 1, 2, 3.
    level : int
        Resolution knob. d=2 uses the 2*level point equal-weight rule at
        angles pi*(k+1/2)/level and their antipodes; d=3 a Gauss-Legendre
        (in the polar cosine) times uniform-azimuth product rule with
        2*level azimuths; d=1 the two-point rule.

    Returns
    -------
    SphereRule
        Nodes (M, d) and weights (M,) summing to 1, antipodally paired: the
        second half of the nodes negates the first. In d=3 the first half
        holds the rings z > 0 from the highest down, 2*level azimuths each,
        then for odd levels half the equator's azimuths, M = 2*level**2.
    """
    if dim not in (1, 2, 3):
        raise DimensionError(f"dimension {dim} unsupported, need 1..3")
    if level < 1:
        raise ParameterError("level must be >= 1")
    return _sphere_rule(dim, level)


@functools.lru_cache(maxsize=8, typed=True)
def _sphere_rule(dim: int, level: int) -> SphereRule:
    """The rule of `make_sphere_rule` for checked arguments; `__wrapped__`
    builds it afresh."""
    if dim == 1:
        nodes = np.array([[1.0], [-1.0]])
        weights = np.array([0.5, 0.5])
        return SphereRule(1, level, nodes, weights)
    if dim == 2:
        theta = np.pi * (np.arange(level) + 0.5) / level
        reps = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        nodes = np.vstack([reps, -reps])
        weights = np.full(2 * level, 1.0 / (2 * level))
        return SphereRule(2, level, nodes, weights)
    # dim == 3: rings at the Gauss-Legendre polar nodes z > 0, highest first,
    # and for odd levels the equator with half the azimuths; the lower half
    # is the exact negation, so the antipodal pairing holds bitwise.
    z, wz = (a[::-1] for a in _gauss(-1.0, 1.0, level))
    m_az = 2 * level
    theta = 2.0 * np.pi * (np.arange(m_az) + 0.5) / m_az
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    up = level // 2  # the roots z > 0; an odd level's middle root is z = 0
    r = np.sqrt(1.0 - z[:up] * z[:up])[:, None]
    rings = np.broadcast_arrays(r * cos_t, r * sin_t, z[:up, None])
    reps = np.stack(rings, axis=-1).reshape(-1, 3)
    repw = np.repeat(wz[:up] / (2.0 * m_az), m_az)
    if level % 2:
        equator = np.stack([cos_t[:level], sin_t[:level], np.zeros(level)], axis=1)
        reps = np.vstack([reps, equator])
        repw = np.append(repw, np.full(level, wz[up] / (2.0 * m_az)))
    nodes = np.vstack([reps, -reps])
    weights = np.concatenate([repw, repw])
    return SphereRule(3, level, nodes, weights)


def _check_pair(a: SymMatrix, p: float, rule: SphereRule) -> None:
    if p < 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    if rule.dim != a.dim:
        raise DimensionError(
            f"rule dimension {rule.dim} does not match matrix dimension {a.dim}"
        )


def q_norm(a: SymMatrix, p: float, rule: SphereRule) -> float:
    """Q_p(A) by direct evaluation of <A w, w> on the rule nodes."""
    _check_pair(a, p, rule)
    q = ((rule.nodes @ a.a) * rule.nodes).sum(axis=1)
    s = float(rule.weights @ np.abs(q) ** p)
    return s ** (1.0 / p)


def q_norm_eigen(a: SymMatrix, p: float, rule: SphereRule) -> float:
    """Q_p(A) through the eigenvalue form.

    Diagonalizes A and evaluates |lam_1 w_1^2 + ... + lam_d w_d^2|^p with the
    node coordinates w_i taken in the eigenbasis (the rotation change of
    variables on the sphere), so the value matches q_norm up to
    eigendecomposition roundoff for any rule.
    """
    _check_pair(a, p, rule)
    lam, vec = a.eigensystem()
    coords = rule.nodes @ vec
    q = (coords * coords) @ lam
    s = float(rule.weights @ np.abs(q) ** p)
    return s ** (1.0 / p)


def q1_trace_psd(a: SymMatrix) -> float:
    """Q_1(A) = tr(A)/d for positive semidefinite A.

    Raises DomainError when the smallest eigenvalue is below -1e-12*|A|_F;
    indefinite matrices must go through q_norm.
    """
    lam = a.eigenvalues()
    if lam[-1] < -PSD_TOL * max(a.frobenius(), 0.0):
        raise DomainError(
            f"matrix is not positive semidefinite (min eigenvalue {lam[-1]:.3e})"
        )
    return a.trace() / a.dim


def q2_closed(a: SymMatrix) -> float:
    """Closed form Q_2(A) = sqrt((2|A|_F^2 + tr(A)^2) / (d(d+2)))."""
    d = a.dim
    f2 = a.frobenius() ** 2
    t = a.trace()
    return float(np.sqrt((2.0 * f2 + t * t) / (d * (d + 2))))


def qp_pow_eigs(eigs: np.ndarray, p: float, rule: SphereRule | None) -> np.ndarray:
    """Q_p(A)^p for a batch of matrices given by eigenvalue rows (n, d).

    Closed forms are used where available (p = 2 always; p = 1 for definite
    matrices and in d <= 2); the remaining cases fall back to the provided
    sphere rule. Used by the ground-truth integrators.
    """
    eigs = np.atleast_2d(np.asarray(eigs, dtype=np.float64))
    d = eigs.shape[1]
    if p == 2:
        return (2.0 * (eigs**2).sum(axis=1) + eigs.sum(axis=1) ** 2) / (d * (d + 2))
    if p == 1:
        tr = eigs.sum(axis=1)
        lo = eigs.min(axis=1)
        hi = eigs.max(axis=1)
        scale = np.abs(eigs).max(axis=1)
        definite = (lo >= -PSD_TOL * scale) | (hi <= PSD_TOL * scale)
        out = np.empty(eigs.shape[0])
        out[definite] = np.abs(tr[definite]) / d
        rest = ~definite
        if rest.any():
            if d == 2:
                m = 0.5 * tr[rest]
                s = 0.5 * (hi[rest] - lo[rest])
                t = np.clip(m / s, -1.0, 1.0)
                out[rest] = (2.0 / np.pi) * (
                    m * np.arcsin(t) + s * np.sqrt(np.maximum(0.0, 1.0 - t * t))
                )
            else:
                if rule is None or rule.dim != d:
                    raise DimensionError("need a matching sphere rule for d=3, p=1")
                out[rest] = _sphere_pow_sum(eigs[rest], p, rule)
        return out
    if p < 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    if rule is None or rule.dim != d:
        raise DimensionError(f"need a matching sphere rule for d={d}, p={p}")
    return _sphere_pow_sum(eigs, p, rule)


def _sphere_pow_sum(eigs: np.ndarray, p: float, rule: SphereRule) -> np.ndarray:
    """sum_k w_k |sum_i lam_i (n_k)_i^2|^p per eigenvalue row, in row blocks.

    Each distinct row is evaluated once and its value copied to its repeats.
    `np.unique(..., axis=0)` finds them by exact float comparison (it merges
    -0.0 with 0.0, which changes no |sum|), and the batches that reach this
    sum often repeat one row: the gradient of an affine field. The sums are
    numpy's, in a fixed order: the d products added in axis order, then one
    pairwise row sum over the nodes, so a row's bits depend neither on its
    place in the batch nor on the BLAS build or its threads. Blocks of
    _SPHERE_NODE_BUDGET (rows x nodes) entries reuse two buffers.
    """
    eigs, at = np.unique(eigs, axis=0, return_inverse=True)
    w2 = np.ascontiguousarray((rule.nodes * rule.nodes).T)  # (d, nodes)
    rows = max(1, _SPHERE_NODE_BUDGET // w2.shape[1])
    out = np.empty(eigs.shape[0])
    buf, tmp = np.empty((2, min(rows, eigs.shape[0]), w2.shape[1]))
    for s in range(0, eigs.shape[0], rows):
        lam = eigs[s : s + rows]
        vals, prod = buf[: len(lam)], tmp[: len(lam)]
        np.multiply(lam[:, :1], w2[0], out=vals)
        for i in range(1, len(w2)):
            vals += np.multiply(lam[:, i : i + 1], w2[i], out=prod)
        np.abs(vals, out=vals)
        if p != 1.0:
            np.power(vals, p, out=vals)
        vals *= rule.weights
        vals.sum(axis=1, out=out[s : s + rows])
    return out[at.reshape(-1)]
