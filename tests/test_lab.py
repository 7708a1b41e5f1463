"""Sweep configs, rate extrapolation, report files.

Core claims:
    - SweepConfig.from_dict validates every section and reports dotted
      paths; family aliases map onto the canonical mollifier names; a
      config with one value replaced by a malformed one either parses,
      where the new value is valid there, or raises ConfigError at that
      value's path or an enclosing one
    - the outer resolution policy is N = max(n_min, ceil(c / eps)) and
      alignment bumps N by at most 16 to put the interface on cell lines
    - a sweep of up to 8 eps builds each of its inner levels once
    - rate_estimate recovers first and second order limits from clean
      geometric sweeps and degrades to (NaN, last value) when the
      sequence has converged or is non-monotone
    - reports serialize with a fixed CSV header, %.17g floats that
      round-trip bitwise, a JSON twin carrying identical values, and a
      stable byte-for-byte layout (golden file)
    - weak-star runs write the dictionary gap table next to the report
"""

import dataclasses
import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nldef import ConfigError, EnergyResult, GroundTruth, InsufficientDataError

lab = importlib.import_module("nldef.lab")

DATA = Path(__file__).parent / "data"

BASE_CFG = {
    "schema": 1,
    "dim": 2,
    "field": {"id": "rigid", "params": {"spin": [[0.0, 1.0], [-1.0, 0.0]], "shift": [0.1, 0.2]}},
    "domain": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
    "p": 1.0,
    "mollifier": {"family": "shell"},
    "eps": [0.2, 0.1, 0.05],
    "inner": {"level": 4},
    "outer": {"n_min": 16},
    "workers": 1,
}

JUMP_FIELD = {
    "id": "planar_jump",
    "params": {
        "normal": [1.0, 0.0],
        "offset": 0.5,
        "minus": {"id": "rigid", "params": {"spin": [[0.0, 0.0], [0.0, 0.0]]}},
        "plus": {"id": "rigid", "params": {"spin": [[0.0, 0.0], [0.0, 0.0]],
                                           "shift": [0.0, 1.0]}},
    },
}


def _cfg(**overrides):
    raw = json.loads(json.dumps(BASE_CFG))
    raw.update(overrides)
    return lab.SweepConfig.from_dict(raw)


def _rec(eps, value, est=0.0):
    return lab.EpsRecord(eps=eps, value=value, est_quadrature_error=est,
                         runtime_ms=0.0, truncation_radius=eps, n_outer=64)


# -- config parsing ----------------------------------------------------------

def test_config_defaults():
    cfg = lab.SweepConfig.from_dict(dict(BASE_CFG))
    assert cfg.family == "shell"
    assert cfg.outer_c == 8.0
    assert cfg.trunc_tol == 1e-10
    assert cfg.tol_accept == 0.02
    assert not cfg.aligned and not cfg.residual
    assert cfg.eps_list == (0.2, 0.1, 0.05)


def test_config_scalar_eps_and_aliases():
    assert _cfg(eps=0.1).eps_list == (0.1,)
    assert _cfg(mollifier={"family": "bump"}).family == "scaled_bump"
    assert _cfg(mollifier={"family": "gauss"}).family == "gaussian"
    assert _cfg(mollifier={"family": "gaussian"}).family == "gaussian"


def test_config_dictionary_parse():
    cfg = _cfg(weakstar={"dictionary": [
        {"id": "const_one"},
        {"id": "tent", "center": [0.5, 0.5], "radius": 0.25},
        {"id": "cosine", "k": [1.0, 0.0]},
    ]})
    assert [phi.kind for phi in cfg.dictionary] == ["const_one", "tent", "cosine"]


def test_config_error_paths():
    with pytest.raises(ConfigError, match="config: expected"):
        lab.SweepConfig.from_dict([1, 2])
    raw = dict(BASE_CFG)
    del raw["field"]
    with pytest.raises(ConfigError, match="config.field: missing"):
        lab.SweepConfig.from_dict(raw)
    with pytest.raises(ConfigError, match="schema"):
        _cfg(schema=2)
    with pytest.raises(ConfigError, match="config.dim"):
        _cfg(dim=5)
    with pytest.raises(ConfigError, match="decreasing"):
        _cfg(eps=[0.1, 0.2])
    with pytest.raises(ConfigError, match="decreasing"):
        _cfg(eps=[0.1, 0.1])
    with pytest.raises(ConfigError, match="positive"):
        _cfg(eps=[0.1, -0.05])
    with pytest.raises(ConfigError, match="^config.mollifier.family: .*'box'"):
        _cfg(mollifier={"family": "box"})
    with pytest.raises(ConfigError, match="config.domain"):
        _cfg(domain={"lo": [0.0, 0.0], "hi": [0.0, 1.0]})
    with pytest.raises(ConfigError, match="trunc_tol"):
        _cfg(trunc_tol=0.5)
    assert _cfg(inner={"mode": "radial_spherical"}).inner_level == 16
    for mode in ("simpson", "tensor", "RADIAL_SPHERICAL"):
        with pytest.raises(ConfigError, match="config.inner.mode: only 'radial_spherical'"):
            _cfg(inner={"mode": mode})
    with pytest.raises(ConfigError, match="config.workers"):
        _cfg(workers=0)
    with pytest.raises(ConfigError, match="config.outer"):
        _cfg(outer={"n": 1})
    with pytest.raises(ConfigError, match="dictionary"):
        _cfg(weakstar={"dictionary": [{"id": "box"}]})


FULL_CFG = {
    "schema": 1,
    "dim": 2,
    "field": {"id": "planar_jump", "params": {
        "normal": [1.0, 0.0],
        "offset": 0.5,
        "minus": {"id": "rigid", "params": {"spin": [[0.0, 0.3], [-0.3, 0.0]],
                                            "shift": [0.1, 0.2]}},
        "plus": {"id": "linear", "params": {"matrix": [[1.0, 0.2], [0.0, 0.5]],
                                            "shift": [0.0, 1.0]}},
    }},
    "domain": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
    "p": 1.0,
    "mollifier": {"family": "shell"},
    "eps": [0.2, 0.1, 0.05],
    "outer": {"c": 4.0, "n_min": 8, "n": 16},
    "inner": {"mode": "radial_spherical", "level": 4},
    "trunc_tol": 1e-8,
    "aligned": False,
    "residual": False,
    "tol_accept": 0.05,
    "weakstar": {"dictionary": [
        {"id": "const_one"},
        {"id": "tent", "center": [0.5, 0.5], "radius": 0.25},
        {"id": "cosine", "k": [1.0, 0.0]},
    ]},
    "workers": 1,
}


def _leaf_positions(node, keys=(), path="config"):
    """(keys, path) of every value in a config tree that is not an object."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        sub = f"{path}.{k}" if isinstance(k, str) else f"{path}[{k}]"
        if not isinstance(v, dict):
            yield keys + (k,), sub
        if isinstance(v, (dict, list)):
            yield from _leaf_positions(v, keys + (k,), sub)


LEAVES = list(_leaf_positions(FULL_CFG))
BAD_VALUES = [True, math.nan, "x", None, [], {}]
# the replacements that are themselves valid at their key
VALID_SWAPS = {("config.outer.n", "None"), ("config.workers", "None"),
               ("config.aligned", "True"), ("config.residual", "True"),
               ("config.weakstar.dictionary", "[]")}


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(leaf=st.sampled_from(LEAVES), bad=st.sampled_from(BAD_VALUES))
def test_config_fuzz_one_bad_leaf(leaf, bad):
    keys, path = leaf
    raw = json.loads(json.dumps(FULL_CFG))
    node = raw
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = bad
    try:
        lab.SweepConfig.from_dict(raw)
    except ConfigError as exc:
        where = str(exc).split(": ", 1)[0]
        assert path == where or path.startswith((where + ".", where + "[")), (path, str(exc))
    else:
        assert (path, repr(bad)) in VALID_SWAPS, f"{path} = {bad!r} parsed"


# -- outer resolution policy -------------------------------------------------

def test_policy_n():
    cfg = _cfg(outer={})
    assert [lab._policy_n(cfg, e) for e in (0.2, 0.1, 0.05, 0.025)] == [64, 80, 160, 320]
    small = _cfg(outer={"n_min": 16})
    assert lab._policy_n(small, 0.2) == 40


def test_aligned_bumps_to_interface():
    cfg = _cfg(field=JUMP_FIELD, aligned=True)
    assert lab._aligned_n(cfg, 64) == (64, True)
    assert lab._aligned_n(cfg, 65) == (66, True)
    # non-jump fields never move
    assert lab._aligned_n(_cfg(aligned=True), 65) == (65, True)


def test_aligned_oblique_normal_flags_inexact():
    oblique = json.loads(json.dumps(JUMP_FIELD))
    oblique["params"]["normal"] = [0.6, 0.8]
    oblique["params"]["offset"] = 0.7
    cfg = _cfg(field=oblique, aligned=True)
    assert lab._aligned_n(cfg, 64) == (64, False)


def test_under_policy_warning_flag():
    cfg = _cfg(outer={"n": 8})
    rep = lab.run_sweep(cfg)
    assert rep.flags["n_policy_warning"] is True
    assert all(r.n_outer == 8 for r in rep.records)


# -- rigid sweep end to end --------------------------------------------------

def test_rigid_sweep_all_zero():
    rep = lab.run_sweep(_cfg())
    assert rep.reference_value == 0.0
    assert rep.extrapolated_limit == 0.0
    assert math.isnan(rep.empirical_order)
    assert all(r.value == 0.0 for r in rep.records)
    assert rep.flags["monotone_gap"] and rep.flags["limit_within_tol"]
    assert rep.flags["converged"]
    assert rep.flags["aligned_exact"] and not rep.flags["n_policy_warning"]
    assert [r.truncation_radius for r in rep.records] == [0.2, 0.1, 0.05]


def test_five_eps_sweep_builds_each_inner_level_once():
    """A sweep reads its requests' inner levels again, in the order its
    config built them; the level cache holds them all, so a 5-eps sweep
    builds each of its 10 levels once."""
    en = importlib.import_module("nldef.energy")
    en._level_nodes.cache_clear()
    rep = lab.run_sweep(_cfg(eps=[0.2, 0.15, 0.1, 0.075, 0.05]))
    assert len(rep.records) == 5
    assert en._level_nodes.cache_info().misses == 10


def test_oscillating_sweep_is_not_converged(monkeypatch):
    # the order is NaN because the steps change sign, not because they sit
    # under the (zero) error bars
    values = iter([1.0, 1.2, 1.1])
    monkeypatch.setattr(lab, "energy", lambda req: EnergyResult(
        value=next(values), truncation_radius=req.mollifier.eps, samples_outer=1,
        samples_inner=1, elapsed=0.0, est_quadrature_error=0.0))
    rep = lab.run_sweep(_cfg())
    assert [r.value for r in rep.records] == [1.0, 1.2, 1.1]
    assert math.isnan(rep.empirical_order)
    assert not rep.flags["converged"]


# -- rate estimation ---------------------------------------------------------

def test_rate_first_order():
    recs = [_rec(e, 1.0 + 0.5 * e) for e in (0.2, 0.1, 0.05, 0.025)]
    order, limit = lab.rate_estimate(recs)
    assert abs(order - 1.0) < 1e-9
    assert abs(limit - 1.0) < 1e-12


def test_rate_second_order():
    recs = [_rec(e, 2.0 + 3.0 * e * e) for e in (0.2, 0.1, 0.05, 0.025)]
    order, limit = lab.rate_estimate(recs)
    assert abs(order - 2.0) < 1e-9
    assert abs(limit - 2.0) < 1e-12


def test_rate_constant_sequence_converged():
    order, limit = lab.rate_estimate([_rec(e, 5.0) for e in (0.2, 0.1, 0.05)])
    assert math.isnan(order)
    assert limit == 5.0


def test_rate_gaps_below_error_bars():
    recs = [_rec(e, 1.0 + 0.5 * e, est=1.0) for e in (0.2, 0.1, 0.05)]
    order, limit = lab.rate_estimate(recs)
    assert math.isnan(order)
    assert limit == recs[-1].value


def test_rate_non_monotone_degrades():
    recs = [_rec(0.2, 1.0), _rec(0.1, 1.2), _rec(0.05, 1.1)]
    order, limit = lab.rate_estimate(recs)
    assert math.isnan(order)
    assert limit == 1.1


def test_rate_insufficient_data():
    with pytest.raises(InsufficientDataError):
        lab.rate_estimate([_rec(0.2, 1.0), _rec(0.1, 1.0)])
    with pytest.raises(InsufficientDataError):
        lab.rate_estimate([_rec(0.1, 1.0), _rec(0.1, 1.1), _rec(0.1, 1.2)])


# -- report files ------------------------------------------------------------

def _synthetic_report():
    records = (
        _syn_rec(0.2, 0.875, 64),
        _syn_rec(0.1, 0.9375, 80),
        _syn_rec(0.05, 0.96875, 160),
    )
    ref = GroundTruth(p=1.0, ac_value=1.0, singular_value=0.0, total=1.0)
    return lab.SweepReport(
        p=1.0,
        records=records,
        reference=ref,
        reference_value=1.0,
        extrapolated_limit=1.0,
        empirical_order=1.0,
        flags={
            "n_policy_warning": False,
            "aligned_exact": True,
            "converged": False,
            "monotone_gap": True,
            "limit_within_tol": True,
        },
    )


def _syn_rec(eps, value, n):
    return lab.EpsRecord(eps=eps, value=value, est_quadrature_error=2.0**-20,
                         runtime_ms=1.5, truncation_radius=eps, n_outer=n)


def test_csv_header_contract():
    assert lab.CSV_HEADER == (
        "eps,p,value,reference,rel_err,est_quad_err,trunc_radius,n_outer,runtime_ms"
    )


def test_report_csv_roundtrip(tmp_path):
    rep = _synthetic_report()
    path = tmp_path / "report.csv"
    lab.report_write(rep, path, "csv")
    text = path.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == lab.CSV_HEADER
    assert len(lines) == 1 + len(rep.records)
    for line, rec in zip(lines[1:], rep.records):
        cells = line.split(",")
        assert float(cells[0]) == rec.eps
        assert float(cells[1]) == rep.p
        assert float(cells[2]) == rec.value
        assert float(cells[3]) == rep.reference_value
        want_rel = abs(rec.value - rep.reference_value) / max(rep.reference_value, 1e-300)
        assert float(cells[4]) == want_rel
        assert float(cells[5]) == rec.est_quadrature_error
        assert float(cells[6]) == rec.truncation_radius
        assert int(cells[7]) == rec.n_outer
        assert float(cells[8]) == rec.runtime_ms


def test_report_json_mirrors_csv(tmp_path):
    rep = _synthetic_report()
    cpath, jpath = tmp_path / "r.csv", tmp_path / "r.json"
    lab.report_write(rep, cpath, "csv")
    lab.report_write(rep, jpath, "json")
    doc = json.loads(jpath.read_text())
    assert doc["p"] == rep.p
    assert doc["reference_value"] == rep.reference_value
    assert doc["extrapolated_limit"] == rep.extrapolated_limit
    assert doc["empirical_order"] == rep.empirical_order
    assert doc["flags"] == rep.flags
    assert doc["reference"]["total"] == rep.reference.total
    csv_rows = [ln.split(",") for ln in cpath.read_text().splitlines()[1:]]
    for jrec, crow in zip(doc["records"], csv_rows):
        assert jrec["eps"] == float(crow[0])
        assert jrec["value"] == float(crow[2])
        assert jrec["est_quadrature_error"] == float(crow[5])
        assert jrec["truncation_radius"] == float(crow[6])
        assert jrec["n_outer"] == int(crow[7])
        assert jrec["runtime_ms"] == float(crow[8])


def test_report_json_nan_order(tmp_path):
    rep = lab.run_sweep(_cfg())
    path = tmp_path / "nan.json"
    lab.report_write(rep, path, "json")
    text = path.read_text()
    assert '"empirical_order": NaN' in text
    doc = json.loads(text)
    assert math.isnan(doc["empirical_order"])


def test_report_golden_bytes(tmp_path):
    rep = _synthetic_report()
    path = tmp_path / "golden.csv"
    lab.report_write(rep, path, "csv")
    assert path.read_bytes() == (DATA / "golden_report.csv").read_bytes()


def test_report_rel_err_nan_for_zero_reference(tmp_path):
    # a residual sweep of a smooth field has reference 0: no relative error
    rep = dataclasses.replace(_synthetic_report(), reference_value=0.0)
    path = tmp_path / "zero.csv"
    lab.report_write(rep, path, "csv")
    rows = [ln.split(",") for ln in path.read_text().splitlines()[1:]]
    assert [row[4] for row in rows] == ["NaN"] * len(rep.records)
    assert [float(row[2]) for row in rows] == [r.value for r in rep.records]


def test_report_write_errors(tmp_path):
    rep = _synthetic_report()
    with pytest.raises(ConfigError):
        lab.report_write(rep, tmp_path / "r.xml", "xml")
    missing = tmp_path / "no" / "dir" / "r.csv"
    with pytest.raises(OSError, match="r.csv"):
        lab.report_write(rep, missing, "csv")


# -- weak-star runs ----------------------------------------------------------

def test_run_weakstar_requires_dictionary(tmp_path):
    with pytest.raises(ConfigError, match="dictionary"):
        lab.run_weakstar(_cfg(), tmp_path / "gaps.csv")


def test_run_weakstar_writes_table(tmp_path):
    cfg = _cfg(
        eps=[0.2, 0.1],
        outer={"n": 16},
        weakstar={"dictionary": [{"id": "const_one"},
                                 {"id": "tent", "center": [0.5, 0.5], "radius": 0.25}]},
    )
    path = tmp_path / "gaps.csv"
    rows = lab.run_weakstar(cfg, path)
    lines = path.read_text().splitlines()
    assert lines[0] == lab.WEAKSTAR_HEADER
    assert len(lines) == 1 + len(rows) == 1 + 2 * 2
    # rigid field: every gap is exactly zero
    for ln in lines[1:]:
        assert ln.split(",")[2] == "0"
