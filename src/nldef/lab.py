"""Sweep orchestration: config parsing, eps schedules, extrapolation, reports.

A sweep runs the energy (or residual) engine over a decreasing eps list with
the outer resolution coupled to eps (N >= c / eps), compares against the
closed-form ground truth, fits an empirical convergence order to the gaps and
Richardson-extrapolates the eps -> 0 limit. Reports serialize to CSV with a
fixed column set and 17-significant-digit floats, or to JSON with floats
written as their shortest round-trip repr, so reruns diff clean either way.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field as dc_field, replace
from functools import cached_property

import numpy as np

from .energy import EnergyRequest, energy, residual_energy
from .errors import (
    ConfigError,
    DimensionError,
    InsufficientDataError,
    ModelError,
    ParameterError,
)
from .fields import (
    _NUMBER,
    _REFERENCE_LEVEL,
    DomainBox,
    FieldSpec,
    GroundTruth,
    PlanarJumpField,
    _axis_of,
    _config_value,
    field_from_config,
    ground_truth,
)
from .measures import TestFunction, _fmt, _write_lines, weakstar_gap
from .mollifiers import MollifierSpec
from .symnorm import make_sphere_rule

__all__ = [
    "SweepConfig",
    "EpsRecord",
    "SweepReport",
    "run_sweep",
    "rate_estimate",
    "report_write",
    "run_weakstar",
]

_FAMILY_ALIASES = {"bump": "scaled_bump", "gauss": "gaussian"}

CSV_HEADER = "eps,p,value,reference,rel_err,est_quad_err,trunc_radius,n_outer,runtime_ms"

# config keys of the request and mollifier fields, where the names differ
_REQUEST_KEYS = {"outer_grid": "outer.n", "inner_level": "inner.level",
                 "family": "mollifier.family"}


@dataclass(frozen=True, eq=False)
class SweepConfig:
    dim: int
    field: FieldSpec
    domain: DomainBox
    p: float
    family: str
    eps_list: tuple
    outer_c: float = 8.0
    outer_n_min: int = 64
    outer_n: int | None = None
    inner_level: int = 16
    trunc_tol: float = 1e-10
    aligned: bool = False
    residual: bool = False
    tol_accept: float = 0.02
    dictionary: tuple = ()
    workers: int | None = None

    @classmethod
    def from_dict(cls, raw) -> "SweepConfig":
        """Parse a JSON sweep config; each error is a ConfigError at its key.

        Values are read by the one config reader, `fields._config_value`. Here
        sit only the config's own rules: schema 1, dim 1..3, lo < hi, eps
        strictly decreasing, outer.c > 0, outer.n_min >= 2, family aliases,
        inner.mode absent or 'radial_spherical' (the engine's one inner rule).
        The other rules belong to EnergyRequest and MollifierSpec: each eps's
        request is built here once, its ParameterError mapped to the key, and
        kept as the config's `requests`.
        """
        if not isinstance(raw, dict):
            raise ConfigError("config: expected a JSON object")
        schema = _config_value(raw, "schema", "config", int)
        if schema != 1:
            raise ConfigError(f"config.schema: unsupported version {schema}")
        dim = _config_value(raw, "dim", "config", int)
        if dim not in (1, 2, 3):
            raise ConfigError(f"config.dim: need 1, 2 or 3, got {dim}")
        dom = _config_value(raw, "domain", "config", dict)
        lo, hi = (_config_value(dom, k, "config.domain", shape=(dim,)) for k in ("lo", "hi"))
        if np.any(hi <= lo):
            raise ConfigError("config.domain: needs lo < hi on every axis")
        fld = field_from_config(_config_value(raw, "field", "config", dict), dim, "config.field")
        p = _config_value(raw, "p", "config", _NUMBER)
        moll = _config_value(raw, "mollifier", "config", dict)
        fam_raw = _config_value(moll, "family", "config.mollifier", str)
        family = _FAMILY_ALIASES.get(fam_raw, fam_raw)
        eps_raw = _config_value(raw, "eps", "config", (list, *_NUMBER))
        many = isinstance(eps_raw, list)
        if many and not eps_raw:
            raise ConfigError("config.eps: empty list")
        eps_list = [
            float(_config_value(eps_raw, i, "config.eps", _NUMBER)) for i in range(len(eps_raw))
        ] if many else [float(eps_raw)]
        if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
            raise ConfigError("config.eps: must be strictly decreasing")
        outer = _config_value(raw, "outer", "config", dict, default={})
        outer_c = float(_config_value(outer, "c", "config.outer", _NUMBER, default=8.0))
        if outer_c <= 0:
            raise ConfigError(f"config.outer.c: must be > 0, got {outer_c}")
        outer_n_min = _config_value(outer, "n_min", "config.outer", int, default=64)
        if outer_n_min < 2:
            raise ConfigError(f"config.outer.n_min: must be >= 2, got {outer_n_min}")
        inner = _config_value(raw, "inner", "config", dict, default={})
        mode = _config_value(inner, "mode", "config.inner", str, default="radial_spherical")
        if mode != "radial_spherical":
            raise ConfigError(f"config.inner.mode: only 'radial_spherical' exists, got {mode!r}")
        wk = _config_value(raw, "weakstar", "config", dict, default={})
        items = _config_value(wk, "dictionary", "config.weakstar", list, default=[])
        cfg = cls(
            dim=dim,
            field=fld,
            domain=DomainBox(lo, hi),
            p=float(p),
            family=family,
            eps_list=tuple(eps_list),
            outer_c=outer_c,
            outer_n_min=outer_n_min,
            outer_n=_config_value(outer, "n", "config.outer", (int, type(None)), default=None),
            inner_level=_config_value(inner, "level", "config.inner", int, default=16),
            trunc_tol=float(_config_value(raw, "trunc_tol", "config", _NUMBER, default=1e-10)),
            aligned=_config_value(raw, "aligned", "config", bool, default=False),
            residual=_config_value(raw, "residual", "config", bool, default=False),
            tol_accept=float(_config_value(raw, "tol_accept", "config", _NUMBER, default=0.02)),
            dictionary=tuple(
                _phi_from_config(item, dim, f"config.weakstar.dictionary[{i}]")
                for i, item in enumerate(items)
            ),
            workers=_config_value(raw, "workers", "config", (int, type(None)), default=None),
        )
        requests = []
        for i, eps in enumerate(eps_list):
            try:
                requests.append(_request(cfg, eps))
            except (ParameterError, DimensionError) as exc:
                key = getattr(exc, "key", None)
                if key == "outer_grid" and cfg.outer_n is None:
                    key = "eps"  # a policy grid too large for this eps
                path = f"config.{_REQUEST_KEYS.get(key, key)}" if key else "config"
                if key == "eps" and many:
                    path += f"[{i}]"
                raise ConfigError(f"{path}: {exc}") from None
        object.__setattr__(cfg, "requests", tuple(requests))  # the cache below
        return cfg

    @cached_property
    def requests(self) -> tuple:
        """(request, under_policy, aligned_exact) of `_request` per eps, built
        once per config: `from_dict` keeps the ones it checked, a config made
        otherwise builds them on first read. Every command reads them here."""
        return tuple(_request(self, eps) for eps in self.eps_list)


def _phi_from_config(item, dim: int, path: str) -> TestFunction:
    if not isinstance(item, dict):
        raise ConfigError(f"{path}: expected an object")
    pid = item.get("id")
    if pid == "const_one":
        return TestFunction.const_one()
    if pid == "tent":
        center = _config_value(item, "center", path, shape=(dim,))
        radius = _config_value(item, "radius", path, _NUMBER)
        try:
            return TestFunction.tent(center, radius)
        except ParameterError as exc:  # the radius rule; the reader vetted the center
            raise ConfigError(f"{path}.radius: {exc}") from None
    if pid == "cosine":
        return TestFunction.cosine(_config_value(item, "k", path, shape=(dim,)))
    raise ConfigError(f"{path}.id: unknown {pid!r} (const_one|tent|cosine)")


@dataclass(frozen=True, eq=False)
class EpsRecord:
    eps: float
    value: float
    est_quadrature_error: float
    runtime_ms: float
    truncation_radius: float
    n_outer: int


@dataclass(frozen=True, eq=False)
class SweepReport:
    p: float
    records: tuple
    reference: GroundTruth
    reference_value: float
    extrapolated_limit: float
    empirical_order: float
    flags: dict = dc_field(default_factory=dict)


def _policy_n(cfg: SweepConfig, eps: float):
    q = cfg.outer_c / eps
    return max(cfg.outer_n_min, math.ceil(q)) if math.isfinite(q) else math.inf


def _aligned_n(cfg: SweepConfig, n: int):
    """Bump N (by at most 16) so the jump interface lands on cell boundaries."""
    f = cfg.field
    if not isinstance(f, PlanarJumpField):
        return n, True
    j = _axis_of(f.normal)
    if j is None:
        return n, False
    cut = f.offset / f.normal[j]
    lo, hi = cfg.domain.lo[j], cfg.domain.hi[j]
    if not lo < cut < hi:
        return n, True
    frac = (cut - lo) / (hi - lo)
    for cand in range(n, n + 17):
        if abs(frac * cand - round(frac * cand)) < 1e-9:
            return cand, True
    return n, False


def _request(cfg: SweepConfig, eps: float):
    """(request, under_policy, aligned_exact): the config's energy request at eps.

    The outer grid is outer.n when given, else the policy max(n_min,
    ceil(c / eps)); aligned configs then bump it so a jump interface lands
    on cell boundaries. `SweepConfig.requests` builds them here, and every
    command reads those, so one config gives the same grid everywhere.
    """
    mollifier = MollifierSpec(cfg.family, eps, cfg.dim)  # checks eps before c / eps
    policy = _policy_n(cfg, eps)
    n = cfg.outer_n if cfg.outer_n is not None else policy
    under_policy = n < policy
    n, exact = _aligned_n(cfg, n) if cfg.aligned and n < math.inf else (n, True)
    req = EnergyRequest(
        field=cfg.field,
        domain=cfg.domain,
        p=cfg.p,
        mollifier=mollifier,
        outer_grid=n,
        inner_level=cfg.inner_level,
        trunc_tol=cfg.trunc_tol,
        workers=cfg.workers,
    )
    return req, under_policy, exact


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Energy (or residual) per eps, ground-truth reference, extrapolation."""
    records = []
    for eps, (req, _, _) in zip(cfg.eps_list, cfg.requests):
        try:
            res = residual_energy(req) if cfg.residual else energy(req)
        except ModelError as exc:
            raise ModelError(f"eps={eps:g}: {exc}") from None
        records.append(
            EpsRecord(
                eps=eps,
                value=res.value,
                est_quadrature_error=res.est_quadrature_error,
                runtime_ms=res.elapsed * 1e3,
                truncation_radius=res.truncation_radius,
                n_outer=req.outer_grid,
            )
        )
    ref = ground_truth(cfg.field, cfg.domain, cfg.p, make_sphere_rule(cfg.dim, _REFERENCE_LEVEL))
    ref_value = ref.singular_value if cfg.residual else ref.total
    if len(records) >= 3:
        order, limit = rate_estimate(records)
    else:
        order, limit = math.nan, records[-1].value
    gaps = [abs(r.value - ref_value) for r in records]
    slack = [2.0 * r.est_quadrature_error for r in records]
    monotone = all(
        b <= a + s for a, b, s in zip(gaps, gaps[1:], slack[1:])
    )
    flags = {
        "n_policy_warning": any(under for _, under, _ in cfg.requests),
        "aligned_exact": all(exact for _, _, exact in cfg.requests),
        "converged": len(records) >= 3 and _settled(records),
        "monotone_gap": monotone,
        "limit_within_tol": abs(limit - ref_value) <= cfg.tol_accept,
    }
    return SweepReport(
        p=cfg.p,
        records=tuple(records),
        reference=ref,
        reference_value=ref_value,
        extrapolated_limit=limit,
        empirical_order=order,
        flags=flags,
    )


def _settled(records) -> bool:
    """The last step is under twice the larger of the last two error bars."""
    a, b = records[-2], records[-1]
    return abs(b.value - a.value) <= 2.0 * max(b.est_quadrature_error, a.est_quadrature_error)


def rate_estimate(records):
    """(order, extrapolated limit) from >= 3 records on a decreasing eps list.

    Seeds order and limit from the last three values (Aitken on a geometric
    schedule), then refits the order as the least-squares slope of
    log|value - limit| against log eps and redoes the Richardson step.
    Returns (nan, last value) when the last step sits below twice the
    quadrature error bars (the sequence has converged), when the last two
    steps stall or change sign, or when the seed order leaves (0.05, 10).
    """
    recs = list(records)
    if len(recs) < 3:
        raise InsufficientDataError("rate estimation needs at least 3 records")
    eps = np.array([r.eps for r in recs])
    vals = np.array([r.value for r in recs])
    if len(set(eps.tolist())) != len(recs):
        raise InsufficientDataError("eps values must be distinct")
    if _settled(recs):
        return math.nan, float(vals[-1])
    d1 = vals[-2] - vals[-3]
    d2 = vals[-1] - vals[-2]
    if d1 == 0.0 or d2 == 0.0 or (d1 > 0) != (d2 > 0):
        return math.nan, float(vals[-1])
    rho = eps[-2] / eps[-1]
    if not rho > 1:
        raise InsufficientDataError("eps list must decrease")
    q0 = math.log(abs(d1 / d2)) / math.log(eps[-3] / eps[-2])
    if not (0.05 < q0 < 10.0):
        return math.nan, float(vals[-1])
    limit0 = float(vals[-1] + d2 / (rho**q0 - 1.0))
    gaps = np.abs(vals - limit0)
    mask = gaps > 0
    if mask.sum() < 2:
        return q0, limit0
    slope = np.polyfit(np.log(eps[mask]), np.log(gaps[mask]), 1)[0]
    if not (math.isfinite(slope) and 0.05 < slope < 10.0):
        return q0, limit0
    limit1 = float(vals[-1] + d2 / (rho**slope - 1.0))
    return float(slope), limit1


def _json_text(obj, indent=None, **extra) -> str:
    """A dataclass, then the `extra` keys, as JSON; floats are written as
    their repr, NaN as NaN."""
    return json.dumps({**asdict(obj), **extra}, indent=indent, default=lambda v: v.item())


def _report_rows(r: SweepReport):
    # relative to a zero reference (a smooth field's residual) is undefined
    ref = r.reference_value
    return [[*map(_fmt, (rec.eps, r.p, rec.value, ref,
                         abs(rec.value - ref) / ref if ref != 0.0 else math.nan,
                         rec.est_quadrature_error, rec.truncation_radius)),
             str(rec.n_outer), _fmt(rec.runtime_ms)] for rec in r.records]


def report_write(r: SweepReport, path, fmt: str = "csv") -> None:
    """Write the report; CSV columns are fixed, JSON mirrors the field names."""
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown report format {fmt!r}")
    if fmt == "csv":
        lines = [CSV_HEADER] + [",".join(row) for row in _report_rows(r)]
    else:
        lines = [_json_text(r, indent=2)]
    _write_lines(path, lines, "report")


WEAKSTAR_HEADER = "eps,phi,gap,pair_value,ref_value,est_quad_err"


def run_weakstar(cfg: SweepConfig, path) -> list:
    """Dictionary gap table for the config's field, written as CSV."""
    if not cfg.dictionary:
        raise ConfigError("config.weakstar.dictionary: missing or empty")
    requests = [req if req.p == 1.0 else replace(req, p=1.0) for req, _, _ in cfg.requests]
    rows = weakstar_gap(requests, cfg.dictionary)
    cols = WEAKSTAR_HEADER.split(",")  # the row keys, in column order
    lines = [WEAKSTAR_HEADER] + [
        ",".join(row[c] if c == "phi" else _fmt(row[c]) for c in cols) for row in rows
    ]
    _write_lines(path, lines, "gaps")
    return rows
