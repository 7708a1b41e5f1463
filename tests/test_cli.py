"""Command line interface: subcommands, files, exit codes.

Core claims:
    - qnorm prints the directional average norm to full precision
    - energy emits a one-line JSON result, sweep/residual/weakstar write
      their tables to the requested paths
    - the residual subcommand forces the residual functional even when
      the config does not ask for it
    - a command builds each eps's request once, when it reads the config;
      weakstar adds a p = 1 copy only for a config at another p
    - failures map to documented exit codes: 2 for configuration, 3 for
      model limitations, 4 for I/O, with a prefixed stderr line
"""

import importlib
import json
import math

import pytest

cli = importlib.import_module("nldef.cli")
en = importlib.import_module("nldef.energy")
lab = importlib.import_module("nldef.lab")


_SPIN3 = [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]


def _write_cfg(tmp_path, **overrides):
    cfg = {
        "schema": 1,
        "dim": 2,
        "field": {"id": "rigid", "params": {"spin": [[0.0, 1.0], [-1.0, 0.0]]}},
        "domain": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "p": 1.0,
        "mollifier": {"family": "shell"},
        "eps": [0.2, 0.1],
        "inner": {"level": 4},
        "outer": {"n": 8},
        "workers": 1,
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


LINEAR_FIELD = {"id": "linear", "params": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}}
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


# -- qnorm -------------------------------------------------------------------

def test_qnorm_prints_shear_value(capsys):
    rc = cli.main(["qnorm", "--dim", "2", "--p", "1",
                   "--matrix", "0,0.5;0.5,0", "--level", "4096"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 1.0 / math.pi) < 1e-6


def test_qnorm_dim_mismatch(capsys):
    rc = cli.main(["qnorm", "--dim", "3", "--p", "1", "--matrix", "1,0;0,1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_qnorm_bad_matrix(capsys):
    assert cli.main(["qnorm", "--dim", "2", "--p", "1", "--matrix", "1,x;0,1"]) == 2
    assert cli.main(["qnorm", "--dim", "2", "--p", "1", "--matrix", "1,0;1"]) == 2
    assert cli.main(["qnorm", "--dim", "2", "--p", "0.5", "--matrix", "1,0;0,1"]) == 2
    assert capsys.readouterr().err.count("config error:") == 3


@pytest.mark.parametrize("flag, value", [("--p", "inf"), ("--p", "nan"), ("--level", "0")])
def test_qnorm_non_finite_p_and_zero_level_are_config_errors(capsys, flag, value):
    args = {"--p": "1", "--level": "64", flag: value}
    rc = cli.main(["qnorm", "--dim", "2", "--matrix", "0.5,0;0,0.5",
                   *(item for kv in args.items() for item in kv)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {flag} must be")


# -- energy ------------------------------------------------------------------

def test_energy_json_line(tmp_path, capsys):
    rc = cli.main(["energy", "--config", _write_cfg(tmp_path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"value", "truncation_radius", "samples_outer",
                        "samples_inner", "elapsed", "est_quadrature_error", "under_policy"}
    assert doc["value"] == 0.0
    assert doc["samples_outer"] == 64


@pytest.mark.parametrize("outer, n, under", [
    ({"n": 8}, 8, True),  # the policy's N at eps 0.2 is max(64, ceil(8 / 0.2)) = 64
    ({"n": 64}, 64, False),
    ({}, 64, False),
    ({"c": 16.0}, 80, False),
])
def test_energy_json_line_flags_a_grid_under_the_policy(tmp_path, capsys, outer, n, under):
    rc = cli.main(["energy", "--config", _write_cfg(tmp_path, outer=outer)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["samples_outer"] == n * n
    assert doc["under_policy"] is under


@pytest.mark.parametrize("path, override", [
    ("config.schema", {"schema": True}),
    ("config.dim", {"dim": True}),
    ("config.p", {"p": True}),
    ("config.eps", {"eps": True}),
    ("config.eps[1]", {"eps": [0.2, True]}),
    ("config.outer.c", {"outer": {"c": True}}),
    ("config.outer.n_min", {"outer": {"n_min": True}}),
    ("config.outer.n", {"outer": {"n": True}}),
    ("config.inner.level", {"inner": {"level": True}}),
    ("config.trunc_tol", {"trunc_tol": True}),
    ("config.tol_accept", {"tol_accept": True}),
    ("config.workers", {"workers": True}),
    ("config.field.params.offset",
     {"field": {**JUMP_FIELD, "params": {**JUMP_FIELD["params"], "offset": True}}}),
    ("config.field.params.normal",
     {"field": {**JUMP_FIELD, "params": {**JUMP_FIELD["params"], "normal": [True, 0.0]}}}),
    ("config.field.params.minus.params.spin",
     {"field": {**JUMP_FIELD, "params": {**JUMP_FIELD["params"], "minus": {
         "id": "rigid", "params": {"spin": [[0.0, True], [0.0, 0.0]]}}}}}),
    ("config.field.params.shift",
     {"field": {"id": "rigid", "params": {"spin": [[0.0, 0.0], [0.0, 0.0]],
                                          "shift": [0.0, False]}}}),
    ("config.field.params.matrix",
     {"field": {"id": "linear", "params": {"matrix": [[True, 0.0], [0.0, 1.0]]}}}),
    ("config.field.params.amplitude",
     {"field": {"id": "sin", "params": {"amplitude": [True, 0.2],
                                        "waves": [[3.0, 1.0], [1.0, 2.0]]}}}),
    ("config.field.params.waves",
     {"field": {"id": "sin", "params": {"amplitude": [0.3, 0.2],
                                        "waves": [[3.0, 1.0], [True, 2.0]]}}}),
    ("config.field.params.center",
     {"field": {"id": "bump", "params": {"amplitude": [0.3, 0.2], "center": [0.5, True],
                                         "radius": 0.3}}}),
    ("config.field.params.radius",
     {"field": {"id": "bump", "params": {"amplitude": [0.3, 0.2], "center": [0.5, 0.5],
                                         "radius": True}}}),
    ("config.domain.lo", {"domain": {"lo": [False, 0.0], "hi": [1.0, 1.0]}}),
    ("config.domain.hi", {"domain": {"lo": [0.0, 0.0], "hi": [True, 1.0]}}),
    ("config.weakstar.dictionary[0].radius", {"weakstar": {"dictionary": [
        {"id": "tent", "center": [0.5, 0.5], "radius": True}]}}),
    ("config.weakstar.dictionary[0].center", {"weakstar": {"dictionary": [
        {"id": "tent", "center": [True, False], "radius": 0.25}]}}),
])
def test_bool_for_number_is_config_error(tmp_path, capsys, path, override):
    # JSON true is an int to isinstance; it must not pass as 1
    rc = cli.main(["energy", "--config", _write_cfg(tmp_path, **override)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}:")


@pytest.mark.parametrize("path, override", [
    ("config.p", {"p": math.inf}),
    ("config.p", {"p": math.nan}),
    ("config.eps", {"eps": math.nan}),
    ("config.eps", {"eps": math.inf}),
    ("config.eps[1]", {"eps": [0.2, math.nan]}),
    ("config.outer.c", {"outer": {"c": math.nan}}),
    ("config.outer.c", {"outer": {"c": math.inf}}),
    ("config.tol_accept", {"tol_accept": math.nan}),
    ("config.field.params.offset",
     {"field": {**JUMP_FIELD, "params": {**JUMP_FIELD["params"], "offset": math.nan}}}),
    ("config.domain.lo", {"domain": {"lo": [math.nan, 0.0], "hi": [1.0, 1.0]}}),
    ("config.domain.hi", {"domain": {"lo": [0.0, 0.0], "hi": [1.0, math.inf]}}),
    ("config.weakstar.dictionary[0].radius", {"weakstar": {"dictionary": [
        {"id": "tent", "center": [0.5, 0.5], "radius": math.inf}]}}),
    ("config.weakstar.dictionary[0].center", {"weakstar": {"dictionary": [
        {"id": "tent", "center": [0.5, math.nan], "radius": 0.25}]}}),
    ("config.p", {"p": 10**400}),  # a JSON integer beyond the float range
    # eps whose normalising constant under- or overflows, under a policy grid
    # (no outer.n) and under an explicit one
    ("config.eps[0]", {"eps": [5e-324], "outer": {}}),
    ("config.eps[0]", {"eps": [1e-300], "outer": {}}),
    *(("config.eps[0]", {"eps": [eps], "mollifier": {"family": family}})
      for family in ("shell", "gaussian", "bump") for eps in (1e-300, 5e-324)),
    # a policy grid of N = 8e10 has more cells than the engine's int64 index
    ("config.eps[0]", {"eps": [1e-10], "outer": {}}),
    ("config.eps", {"eps": 1e-10, "outer": {}}),
    # so has an explicit one in d = 3
    ("config.outer.n", {"dim": 3, "field": {"id": "rigid", "params": {"spin": _SPIN3}},
                        "domain": {"lo": [0.0] * 3, "hi": [1.0] * 3},
                        "outer": {"n": 2_100_000}}),
    # eps whose inner nodes' 1/|h|^2 overflows: a 1-d shell, a 2-d bump
    ("config.eps[0]", {"dim": 1, "field": {"id": "rigid", "params": {"spin": [[0.0]]}},
                       "domain": {"lo": [0.0], "hi": [1.0]}, "eps": [1e-300]}),
    ("config.eps[0]", {"field": LINEAR_FIELD, "mollifier": {"family": "bump"},
                       "eps": [1e-153], "inner": {"level": 16}}),
])
def test_non_finite_number_is_config_error(tmp_path, capsys, path, override):
    # json.load reads NaN and Infinity; neither may pass as a number
    rc = cli.main(["energy", "--config", _write_cfg(tmp_path, **override)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}:")


@pytest.mark.parametrize("path, phi", [
    ("config.weakstar.dictionary[1].center",
     {"id": "tent", "center": [0.5, 0.5, 0.5], "radius": 0.25}),
    ("config.weakstar.dictionary[1].k", {"id": "cosine", "k": [1, 0, 0]}),
])
def test_weakstar_array_of_wrong_length_is_config_error(tmp_path, capsys, path, phi):
    # read as shape-(dim,) arrays before any measure is built
    cfg = _write_cfg(tmp_path, weakstar={"dictionary": [{"id": "const_one"}, phi]})
    rc = cli.main(["weakstar", "--config", cfg, "--out", str(tmp_path / "gaps.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}:")


def test_energy_sweep_weakstar_share_one_grid(tmp_path, capsys):
    # aligned jump at x = 0.5: every command bumps outer.n = 21 to N = 22
    cfg = _write_cfg(tmp_path, field=JUMP_FIELD, aligned=True, outer={"n": 21},
                     eps=[0.2, 0.1, 0.05], inner={"level": 4},
                     weakstar={"dictionary": [{"id": "const_one"}]})
    assert cli.main(["energy", "--config", cfg]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    sweep_out, gaps_out = tmp_path / "sweep.json", tmp_path / "gaps.csv"
    assert cli.main(["sweep", "--config", cfg, "--out", str(sweep_out),
                     "--format", "json"]) == 0
    first = json.loads(sweep_out.read_text())["records"][0]
    assert first["n_outer"] == 22
    assert first["value"] == value
    assert cli.main(["weakstar", "--config", cfg, "--out", str(gaps_out)]) == 0
    eps, phi, _, pair_value = gaps_out.read_text().splitlines()[1].split(",")[:4]
    assert (float(eps), phi) == (0.2, "const_one")
    assert float(pair_value) == value


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_each_command_builds_each_request_once(tmp_path, capsys, monkeypatch, p):
    builds = []
    check = en.EnergyRequest.__post_init__
    monkeypatch.setattr(en.EnergyRequest, "__post_init__",
                        lambda self: builds.append(self) or check(self))
    cfg = _write_cfg(tmp_path, p=p, eps=[0.2, 0.1, 0.05],
                     weakstar={"dictionary": [{"id": "const_one"}]})
    out = str(tmp_path / "out.csv")
    counts = {}
    for cmd, *rest in (["energy"], ["sweep", "--out", out], ["weakstar", "--out", out]):
        builds.clear()
        assert cli.main([cmd, "--config", cfg, *rest]) == 0
        counts[cmd] = len(builds)
    assert counts == {"energy": 3, "sweep": 3, "weakstar": 3 if p == 1.0 else 6}


@pytest.mark.parametrize("residual", [False, True])
def test_residual_command_builds_each_request_once(tmp_path, monkeypatch, residual):
    builds = []
    check = en.EnergyRequest.__post_init__
    monkeypatch.setattr(en.EnergyRequest, "__post_init__",
                        lambda self: builds.append(self) or check(self))
    cfg = _write_cfg(tmp_path, eps=[0.2, 0.1, 0.05], residual=residual)
    assert cli.main(["residual", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 0
    assert len(builds) == 3


# -- sweep and residual ------------------------------------------------------

def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "report.csv"
    rc = cli.main(["sweep", "--config", _write_cfg(tmp_path), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == lab.CSV_HEADER
    assert len(lines) == 3


def test_sweep_writes_json(tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(["sweep", "--config", _write_cfg(tmp_path),
                   "--out", str(out), "--format", "json"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["records"]) == 2


def test_residual_forces_residual_functional(tmp_path):
    # the linear field has positive energy but (being its own linearization)
    # zero residual, so the two subcommands must disagree
    cfg = _write_cfg(tmp_path, field=LINEAR_FIELD, inner={"level": 8})
    sweep_out = tmp_path / "sweep.csv"
    resid_out = tmp_path / "resid.csv"
    assert cli.main(["sweep", "--config", cfg, "--out", str(sweep_out)]) == 0
    assert cli.main(["residual", "--config", cfg, "--out", str(resid_out)]) == 0
    sweep_vals = [float(ln.split(",")[2]) for ln in sweep_out.read_text().splitlines()[1:]]
    resid_vals = [float(ln.split(",")[2]) for ln in resid_out.read_text().splitlines()[1:]]
    assert all(v > 0.5 for v in sweep_vals)
    assert all(abs(v) <= 1e-12 for v in resid_vals)


# -- weakstar ----------------------------------------------------------------

def test_weakstar_writes_gap_table(tmp_path):
    cfg = _write_cfg(tmp_path, weakstar={"dictionary": [
        {"id": "const_one"},
        {"id": "tent", "center": [0.5, 0.5], "radius": 0.25},
    ]})
    out = tmp_path / "gaps.csv"
    assert cli.main(["weakstar", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == lab.WEAKSTAR_HEADER
    assert len(lines) == 1 + 2 * 2
    assert all(ln.split(",")[2] == "0" for ln in lines[1:])


def test_weakstar_without_dictionary(tmp_path, capsys):
    out = tmp_path / "gaps.csv"
    rc = cli.main(["weakstar", "--config", _write_cfg(tmp_path), "--out", str(out)])
    assert rc == 2
    assert "dictionary" in capsys.readouterr().err


# -- exit codes --------------------------------------------------------------

def test_level_without_pairs_in_the_domain_is_config_error(tmp_path, capsys):
    # the 1-d shell's nodes at eps = 1.6 (|h| >= 0.969) leave [0, 1] from both midpoints
    cfg = _write_cfg(tmp_path, dim=1, field={"id": "linear", "params": {"matrix": [[1.0]]}},
                     domain={"lo": [0.0], "hi": [1.0]}, eps=[1.6], outer={"n": 2},
                     inner={"level": 1})
    assert cli.main(["energy", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: config.inner.level:")


def test_tensor_inner_mode_is_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, field=LINEAR_FIELD, inner={"level": 4, "mode": "tensor"})
    assert cli.main(["energy", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config.inner.mode:") and "radial_spherical" in err
    # the one inner rule may be named or left out, with the same value
    values = []
    for inner in ({"level": 4}, {"level": 4, "mode": "radial_spherical"}):
        cfg = _write_cfg(tmp_path, field=LINEAR_FIELD, inner=inner)
        assert cli.main(["energy", "--config", cfg]) == 0
        values.append(json.loads(capsys.readouterr().out)["value"])
    assert values[0] == values[1] > 0.0


def test_invalid_json_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["energy", "--config", str(bad)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"schema": 1, "dim": \xff}')
    rc = cli.main(["energy", "--config", str(bad)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_bad_schema_config(tmp_path, capsys):
    rc = cli.main(["energy", "--config", _write_cfg(tmp_path, schema=7)])
    assert rc == 2
    assert "schema" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    rc = cli.main(["energy", "--config", str(tmp_path / "absent.json")])
    assert rc == 4
    assert capsys.readouterr().err.startswith("io error:")


def test_jump_with_p2_is_model_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, field=JUMP_FIELD, p=2.0, inner={"level": 2})
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "r.csv")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("model error:")


def test_unwritable_out_path(tmp_path, capsys):
    rc = cli.main(["sweep", "--config", _write_cfg(tmp_path),
                   "--out", str(tmp_path / "no" / "dir" / "r.csv")])
    assert rc == 4
    assert capsys.readouterr().err.startswith("io error:")


def test_invalid_thread_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NLD_THREADS", "many")
    cfg = _write_cfg(tmp_path, workers=None)
    rc = cli.main(["energy", "--config", cfg])
    assert rc == 2
    assert "NLD_THREADS" in capsys.readouterr().err
