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

import numpy as np

from .energy import EnergyRequest, energy, residual_energy
from .errors import ConfigError, InsufficientDataError, ModelError
from .fields import (
    DomainBox,
    FieldSpec,
    GroundTruth,
    PlanarJumpField,
    _axis_of,
    field_from_config,
    ground_truth,
)
from .measures import TestFunction, weakstar_gap
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

_FAMILY_ALIASES = {
    "shell": "shell",
    "scaled_bump": "scaled_bump",
    "bump": "scaled_bump",
    "gaussian": "gaussian",
    "gauss": "gaussian",
}

CSV_HEADER = "eps,p,value,reference,rel_err,est_quad_err,trunc_radius,n_outer,runtime_ms"

_MISSING = object()


def _want(d: dict, key: str, types, path: str, default=_MISSING):
    """d[key], type-checked; JSON true/false pass only where `types` names bool,
    and a float must be finite (JSON NaN and Infinity are not)."""
    if key not in d:
        if default is _MISSING:
            raise ConfigError(f"{path}.{key}: missing")
        return default
    v = d[key]
    types = types if isinstance(types, tuple) else (types,)
    if not isinstance(v, types) or (isinstance(v, bool) and bool not in types):
        raise ConfigError(f"{path}.{key}: wrong type {type(v).__name__}")
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(f"{path}.{key}: must be finite, got {v}")
    return v


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
    inner_mode: str = "radial_spherical"
    inner_level: int = 16
    trunc_tol: float = 1e-10
    aligned: bool = False
    residual: bool = False
    tol_accept: float = 0.02
    dictionary: tuple = ()
    workers: int | None = None

    @classmethod
    def from_dict(cls, raw) -> "SweepConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config: expected a JSON object")
        schema = _want(raw, "schema", int, "config")
        if schema != 1:
            raise ConfigError(f"config.schema: unsupported version {schema}")
        dim = _want(raw, "dim", int, "config")
        if dim not in (1, 2, 3):
            raise ConfigError(f"config.dim: need 1, 2 or 3, got {dim}")
        dom = _want(raw, "domain", dict, "config")
        try:
            box = DomainBox(
                np.asarray(_want(dom, "lo", list, "config.domain"), dtype=np.float64),
                np.asarray(_want(dom, "hi", list, "config.domain"), dtype=np.float64),
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"config.domain: {exc}") from None
        if box.dim != dim or box.is_empty:
            raise ConfigError("config.domain: needs positive volume in `dim` dimensions")
        fld = field_from_config(_want(raw, "field", dict, "config"), dim, "config.field")
        p = _want(raw, "p", (int, float), "config")
        if p < 1:
            raise ConfigError(f"config.p: must be >= 1, got {p}")
        moll = _want(raw, "mollifier", dict, "config")
        fam_raw = _want(moll, "family", str, "config.mollifier")
        family = _FAMILY_ALIASES.get(fam_raw)
        if family is None:
            raise ConfigError(
                f"config.mollifier.family: unknown {fam_raw!r}, "
                f"expected one of {sorted(set(_FAMILY_ALIASES))}"
            )
        eps_raw = _want(raw, "eps", (list, int, float), "config")
        eps_list = [eps_raw] if isinstance(eps_raw, (int, float)) else eps_raw
        if not eps_list:
            raise ConfigError("config.eps: empty list")
        for i, e in enumerate(eps_list):
            if isinstance(e, bool) or not isinstance(e, (int, float)) or not math.isfinite(e):
                raise ConfigError(f"config.eps[{i}]: entries must be finite numbers")
        eps_list = [float(e) for e in eps_list]
        if any(e <= 0 for e in eps_list):
            raise ConfigError("config.eps: entries must be positive")
        if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
            raise ConfigError("config.eps: must be strictly decreasing")
        outer = _want(raw, "outer", dict, "config", default={})
        outer_c = float(_want(outer, "c", (int, float), "config.outer", default=8.0))
        outer_n_min = _want(outer, "n_min", int, "config.outer", default=64)
        outer_n = _want(outer, "n", (int, type(None)), "config.outer", default=None)
        if outer_c <= 0 or outer_n_min < 2 or (outer_n is not None and outer_n < 2):
            raise ConfigError("config.outer: c > 0 and grid sizes >= 2 required")
        inner = _want(raw, "inner", dict, "config", default={})
        inner_mode = _want(
            inner, "mode", str, "config.inner", default="radial_spherical"
        )
        if inner_mode not in ("radial_spherical", "tensor"):
            raise ConfigError(f"config.inner.mode: unknown {inner_mode!r}")
        inner_level = _want(inner, "level", int, "config.inner", default=16)
        if inner_level < 1:
            raise ConfigError("config.inner.level: must be >= 1")
        trunc_tol = float(
            _want(raw, "trunc_tol", (int, float), "config", default=1e-10)
        )
        if not 0 < trunc_tol <= 1e-2:
            raise ConfigError("config.trunc_tol: must lie in (0, 1e-2]")
        aligned = _want(raw, "aligned", bool, "config", default=False)
        residual = _want(raw, "residual", bool, "config", default=False)
        tol_accept = float(
            _want(raw, "tol_accept", (int, float), "config", default=0.02)
        )
        wk = _want(raw, "weakstar", dict, "config", default={})
        dictionary = tuple(
            _phi_from_config(item, f"config.weakstar.dictionary[{i}]")
            for i, item in enumerate(
                _want(wk, "dictionary", list, "config.weakstar", default=[])
            )
        )
        workers = _want(raw, "workers", (int, type(None)), "config", default=None)
        if workers is not None and workers < 1:
            raise ConfigError("config.workers: must be >= 1")
        return cls(
            dim=dim,
            field=fld,
            domain=box,
            p=float(p),
            family=family,
            eps_list=tuple(eps_list),
            outer_c=outer_c,
            outer_n_min=outer_n_min,
            outer_n=outer_n,
            inner_mode=inner_mode,
            inner_level=inner_level,
            trunc_tol=trunc_tol,
            aligned=aligned,
            residual=residual,
            tol_accept=tol_accept,
            dictionary=dictionary,
            workers=workers,
        )


def _phi_from_config(item, path: str) -> TestFunction:
    if not isinstance(item, dict):
        raise ConfigError(f"{path}: expected an object")
    pid = item.get("id")
    try:
        if pid == "const_one":
            return TestFunction.const_one()
        if pid == "tent":
            return TestFunction.tent(item.get("center"), item.get("radius", 0.0))
        if pid == "cosine":
            return TestFunction.cosine(item.get("k"))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
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


def _policy_n(cfg: SweepConfig, eps: float) -> int:
    return max(cfg.outer_n_min, math.ceil(cfg.outer_c / eps))


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
    ceil(c / eps)); aligned configs then bump it so a jump interface lands on
    cell boundaries. Every command builds its requests here, so one config
    gives the same grid everywhere.
    """
    policy = _policy_n(cfg, eps)
    n = cfg.outer_n if cfg.outer_n is not None else policy
    under_policy = n < policy
    exact = True
    if cfg.aligned:
        n, exact = _aligned_n(cfg, n)
    req = EnergyRequest(
        field=cfg.field,
        domain=cfg.domain,
        p=cfg.p,
        mollifier=MollifierSpec(cfg.family, eps, cfg.dim),
        outer_grid=n,
        inner_mode=cfg.inner_mode,
        inner_level=cfg.inner_level,
        trunc_tol=cfg.trunc_tol,
        workers=cfg.workers,
    )
    return req, under_policy, exact


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Energy (or residual) per eps, ground-truth reference, extrapolation."""
    records = []
    warned_policy = False
    aligned_ok = True
    for eps in cfg.eps_list:
        req, under_policy, exact = _request(cfg, eps)
        warned_policy = warned_policy or under_policy
        aligned_ok = aligned_ok and exact
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
    rule = make_sphere_rule(cfg.dim, 64)
    ref = ground_truth(cfg.field, cfg.domain, cfg.p, rule)
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
        "n_policy_warning": warned_policy,
        "aligned_exact": aligned_ok,
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


def _fmt(x) -> str:
    """A float as %.17g, which parses back bitwise; NaN as NaN."""
    x = float(x)
    if math.isnan(x):
        return "NaN"
    return f"{x:.17g}"


def _json_text(obj, indent=None) -> str:
    """A dataclass as JSON; floats are written as their repr, NaN as NaN."""
    return json.dumps(asdict(obj), indent=indent, default=lambda v: v.item())


def _write_lines(path, lines, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from None


def _report_rows(r: SweepReport):
    rows = []
    for rec in r.records:
        # relative to a zero reference (a smooth field's residual) is undefined
        ref = r.reference_value
        rel = abs(rec.value - ref) / ref if ref != 0.0 else math.nan
        rows.append(
            [
                _fmt(rec.eps),
                _fmt(r.p),
                _fmt(rec.value),
                _fmt(r.reference_value),
                _fmt(rel),
                _fmt(rec.est_quadrature_error),
                _fmt(rec.truncation_radius),
                str(rec.n_outer),
                _fmt(rec.runtime_ms),
            ]
        )
    return rows


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
    requests = [replace(_request(cfg, eps)[0], p=1.0) for eps in cfg.eps_list]
    rows = weakstar_gap(requests, cfg.dictionary)
    lines = [WEAKSTAR_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                [
                    _fmt(row["eps"]),
                    row["phi"],
                    _fmt(row["gap"]),
                    _fmt(row["pair_value"]),
                    _fmt(row["ref_value"]),
                    _fmt(row["est_quad_err"]),
                ]
            )
        )
    _write_lines(path, lines, "gaps")
    return rows
