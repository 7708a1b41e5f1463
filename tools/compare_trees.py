"""Compare the engine's outputs under two source trees, bit for bit.

    python3 tools/compare_trees.py OLD_TREE NEW_TREE

Each tree is a checkout with the package under ``src/nldef``. The script
runs a fixed list of requests once per tree, each tree in a fresh
interpreter with that tree's ``src`` first on the import path, and prints one
line per output: the first 12 hex digits of the sha256 of its float64 bytes
under each tree, whether the bytes are equal, max |old|, max |new - old|
and their ratio, the relative difference, over the output's elements.

The requests cover d = 1..3, every field family (rigid, linear, sin, bump,
planar jump with rigid and with linear sides, sampled), p = 1 and 2, and
1 and 2 workers; a request at 2 workers cuts its evaluated cells into
two runs, so it runs through the process pool. On top of these come the
criterion-10 linear, sin and jump requests at N = 64, and at the
benchmark's N = 320 at 1, 2 and 3 workers (p = 1 also as a residual
energy, so the sin and sin-residual requests of c10-kernels-pool), whose
pooled calls split into two and three tasks, and at N = 320 an oblique
jump whose sides' matrices differ, at 1, 2 and 3 workers (its evaluated
cells are side-class representatives and every band cell in one list,
in uneven shares); at N = 64 an axis-normal jump with those unequal sides;
a 3-d jump across nu = (0.6, 0, 0.8) with equal and with unequal matrices
(N = 8, 1 and 2 workers), so every branch of the kernel-class step runs:
ids along no axis, one axis, two axes and all axes; jumps whose plane runs
through a row of outer midpoints, the 3-d planar jump of the
benchmark's d3-jump-study at seed 0 (its eps 0.4, 0.2 and 0.1, N = 24,
inner level 4) and its sides across x_3 = 1/2 (eps 0.4, 1 and 2 workers),
a 2-d jump between rigid sides with one nonzero spin (a constant jump
across x_2 = 0.45, N = 24), and two 2-d linear fields whose |q|^2 rows
overflow to inf at 16 of their 48 nodes, masked at every cell along the
first or the last axis (N = 16). The class requests above all have even N, so
the class calls' total starts by halving whole rows of the grid; at odd N
it has none to halve, and so come the linear field and the axis-normal
constant jumps at N = 25 and 63 in d = 2 (the criterion-10 linear field and
jump, and the equal-spin jump) and at N = 9 in d = 3 (a linear field and the
d3-jump-study jump), at 1 and 2 workers. The outputs are the energy value and error bar,
the residual energy value and error bar (p = 1, closed-form fields) and
the per-cell density masses; each serial request of the family grid also
gives `local_density` (one cell, cell volume 1) at an interior point and
at a point near a corner. The limit objects come on top: `ground_truth`
(volume, interface and total values) and the `ground_truth_measure`
masses (cell and interface atoms apart) and atom coordinates of that 3-d
jump, of a 2-d rigid-sided jump and of the equal-spin jump (on 64 and 24
cells per axis) and of a 3-d linear field (8 cells), with the atom
coordinates of `density_masses` on the same grids, so that a change of
the outer grid shows up. So do the
other users of the limit objects' quadrature: `ground_truth` of the 2-d
sin field (p = 1, 2, 3), the 2-d bump (p = 2), the 3-d sin field (p = 1,
sphere level 16) and the oblique 2-d jump; `upper_bound_rhs` of the 2-d
sin field with a gaussian tail and with none; the limit-measure masses of
the 2-d sin field on 16 cells per axis; and `mollify` of the 2-d linear,
sin and rigid-sided jump fields on a small box. The rules themselves come
too: `make_sphere_rule` nodes and weights (d = 1..3, odd and even levels)
and the engine's inner nodes, weights and inverse square radii of one
level (`energy._level_nodes`) for each mollifier family. Last, the
benchmark's d3-jump-study runs through `cli.main` (`sweep` to JSON, then
`weakstar`) on a config file, with the benchmark's dictionary and a cosine
of a non-axis wave: the report's per-eps values, error bars, radii and
grids and its reference, limit and order, and each test function's gap
rows; and the same config with the five eps 0.4, 0.3, 0.2, 0.15 and 0.1
through `run_sweep`, its records, reference, limit and order. The environment, BLAS thread
settings included, is passed to both interpreters unchanged. The last line
gives each tree's source size, the line count of `wc -l src/nldef/*.py`.
Exit status 0 means every output is bitwise equal, 1 that some differ.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def _fields(d: int):
    """(name, field) pairs of every family in dimension d, fixed parameters."""
    import nldef  # from the tree _emit put on the path

    rng = np.random.default_rng(100 + d)
    eye = np.eye(d)
    lin = nldef.LinearField(rng.uniform(-1, 1, (d, d)), rng.uniform(-1, 1, d))
    lin2 = nldef.LinearField(rng.uniform(-1, 1, (d, d)), rng.uniform(-1, 1, d))
    rigid = nldef.RigidField.from_general(rng.uniform(-1, 1, (d, d)), rng.uniform(-1, 1, d))
    zero = nldef.RigidField(np.zeros((d, d)), np.zeros(d))
    shifted = nldef.RigidField(np.zeros((d, d)), rng.uniform(-1, 1, d))
    out = [
        ("rigid", rigid),
        ("linear", lin),
        ("sin", nldef.SinField(rng.uniform(0.1, 0.5, d), rng.uniform(-4, 4, (d, d)))),
        ("bump", nldef.BumpField(rng.uniform(-1, 1, d), np.full(d, 0.45), 0.35)),
        ("jump_rigid", nldef.PlanarJumpField(eye[0], 0.5, zero, shifted)),
        ("jump_linear", nldef.PlanarJumpField(-eye[d - 1], -0.4, lin, lin2)),
    ]
    if d == 2:
        nu = np.array([0.6, 0.8])
        out.append(("jump_oblique", nldef.PlanarJumpField(nu, 0.7, lin, lin2)))
    n = 9
    grid = np.stack(np.meshgrid(*[np.linspace(0.0, 1.0, n)] * d, indexing="ij"), axis=-1)
    sampled_vals = np.sin(3.0 * grid) * rng.uniform(0.2, 1.0, d)
    out.append(("sampled", nldef.SampledField(np.zeros(d), np.full(d, 1.0 / (n - 1)),
                                              sampled_vals)))
    return out


# outer grid and inner level per dimension: (serial size, pooled size)
_SIZES = {1: ((64, 8), (140000, 16)), 2: ((24, 8), (128, 16)), 3: ((8, 4), (16, 8))}


def _study_field():
    """The planar jump of the benchmark's d3-jump-study at seed 0: linear sides
    with one matrix, a constant jump, and the plane x_1 = 1/2."""
    import nldef

    mat = np.array([[0.4, 0.1, 0.0], [0.0, -0.2, 0.1], [0.05, 0.0, 0.3]])
    return nldef.PlanarJumpField(np.eye(3)[0], 0.5, nldef.LinearField(mat, np.zeros(3)),
                                 nldef.LinearField(mat, np.array([0.2, 1.0, 0.3])))


def _equal_spin_jump():
    """A 2-d jump between rigid sides with one nonzero spin: a constant jump."""
    import nldef

    spin = np.array([[0.0, 0.7], [-0.7, 0.0]])
    return nldef.PlanarJumpField(np.array([0.0, -1.0]), -0.45,
                                 nldef.RigidField(spin, np.array([0.1, -0.2])),
                                 nldef.RigidField(spin, np.array([0.8, 0.3])))


def _extra_requests():
    """(name, request) pairs beyond the family grid.

    The criterion-10 linear, sin and jump requests at N = 64 at 1 and 2
    workers, and at N = 320 (the benchmark's grid; the sin call runs its
    102,400 cells in 63 tiles when serial) at 1, 2 and 3 workers; the
    oblique unequal-matrix jump on the N = 320 request at 1, 2 and 3
    workers; an axis-normal jump with those unequal sides on the N = 64
    request; a 3-d jump across nu = (0.6, 0, 0.8) with equal and with
    unequal matrices at N = 8 on 1 and 2 workers (its kernel ids vary along
    axes 0 and 2, or along all three); linear-sided jumps whose plane
    <x, e_1> = s passes exactly through a row of outer midpoints, so those
    cells sit on the interface, the d3-jump-study field at its three eps
    and across x_3 = 1/2, the equal-spin jump, and the two overflowing
    linear fields; and class calls at odd N, where the total has
    no whole-row halvings: the criterion-10 linear field and jump (nu = e_1)
    and the equal-spin jump (nu = -e_2) at N = 25 and 63, and a 3-d linear
    field and the d3-jump-study jump at N = 9, each at 1 and 2 workers.
    """
    import nldef

    en = importlib.import_module("nldef.energy")
    out = []
    box2 = nldef.DomainBox([0.0, 0.0], [1.0, 1.0])
    zero = nldef.RigidField(np.zeros((2, 2)), np.zeros(2))
    c10 = {
        "linear": nldef.LinearField(np.eye(2), np.zeros(2)),
        "sin": nldef.SinField(np.array([0.3, 0.2]), np.array([[3.0, 1.0], [1.0, 2.0]])),
        "jump": nldef.PlanarJumpField(np.array([1.0, 0.0]), 0.5, zero,
                                      nldef.RigidField(np.zeros((2, 2)), np.array([0.0, 1.0]))),
    }
    for n, counts in ((64, (1, 2)), (320, (1, 2, 3))):
        for fname in ("linear", "sin", "jump"):
            for p in (1.0, 2.0):
                for workers in counts:
                    req = en.EnergyRequest(
                        field=c10[fname], domain=box2, p=p,
                        mollifier=nldef.MollifierSpec("shell", 0.025, 2),
                        outer_grid=n, inner_level=16, workers=workers)
                    suffix = "" if n == 64 else f"/n{n}"
                    out.append((f"c10/{fname}/p{p:g}/w{workers}{suffix}", req))
    oblique = nldef.PlanarJumpField(
        np.array([np.cos(0.3), np.sin(0.3)]), 0.7,
        nldef.LinearField(np.array([[1.0, 0.5], [-0.3, 0.2]]), np.zeros(2)),
        nldef.LinearField(np.array([[-0.4, 0.1], [0.6, 1.2]]), np.ones(2)))
    for workers in (1, 2, 3):
        req = en.EnergyRequest(
            field=oblique, domain=box2, p=1.0, mollifier=nldef.MollifierSpec("shell", 0.025, 2),
            outer_grid=320, inner_level=16, workers=workers)
        out.append((f"c10/jump_oblique/p1/w{workers}/n320", req))
    # kernel ids along one axis with unequal matrices take the grid-wide path
    axis_unequal = nldef.PlanarJumpField(np.array([0.0, -1.0]), -0.4,
                                         oblique.minus, oblique.plus)
    req = en.EnergyRequest(
        field=axis_unequal, domain=box2, p=1.0, mollifier=nldef.MollifierSpec("shell", 0.025, 2),
        outer_grid=64, inner_level=16, workers=1)
    out.append(("c10/jump_axis_unequal/p1/w1", req))
    # a 3-d normal in the x_1-x_3 plane: ids along axes 0 and 2 only
    mat = np.array([[0.4, 0.1, 0.0], [0.0, -0.2, 0.1], [0.05, 0.0, 0.3]])
    x0z_sides = {"equal": (nldef.LinearField(mat, np.zeros(3)),
                           nldef.LinearField(mat, np.array([0.2, 1.0, 0.3]))),
                 "unequal": (nldef.LinearField(mat, np.zeros(3)),
                             nldef.LinearField(mat.T, np.array([0.2, 1.0, 0.3])))}
    for kind, pair in x0z_sides.items():
        for workers in (1, 2):
            req = en.EnergyRequest(
                field=nldef.PlanarJumpField(np.array([0.6, 0.0, 0.8]), 0.7, *pair),
                domain=nldef.DomainBox([0.0] * 3, [1.0] * 3), p=1.0,
                mollifier=nldef.MollifierSpec("shell", 0.2, 3), outer_grid=8, inner_level=4,
                workers=workers)
            out.append((f"d3/jump_x0z_{kind}/n8/w{workers}", req))
    for d, n, level, workers in ((2, 24, 8, 1), (3, 8, 4, 1), (2, 128, 16, 2)):
        rng = np.random.default_rng(200 + d)
        sides = [nldef.LinearField(rng.uniform(-1, 1, (d, d)), rng.uniform(-1, 1, d))
                 for _ in range(2)]
        # the midpoint formula of the engine: lo + (hi - lo) * (k + 0.5) / n
        offset = 1.0 * (n // 2 + 0.5) / n
        field = nldef.PlanarJumpField(np.eye(d)[0], offset, *sides)
        req = en.EnergyRequest(
            field=field, domain=nldef.DomainBox([0.0] * d, [1.0] * d), p=1.0,
            mollifier=nldef.MollifierSpec("shell", 0.2, d), outer_grid=n,
            inner_level=level, workers=workers)
        out.append((f"d{d}/jump_on_midpoints/n{n}/w{workers}", req))
    for eps in (0.4, 0.2, 0.1):
        req = en.EnergyRequest(
            field=_study_field(), domain=nldef.DomainBox([0.0] * 3, [1.0] * 3), p=1.0,
            mollifier=nldef.MollifierSpec("shell", eps, 3), outer_grid=24, inner_level=4,
            workers=1)
        out.append((f"d3/study_jump/eps{eps:g}/n24", req))
    req = en.EnergyRequest(
        field=_equal_spin_jump(), domain=box2, p=1.0,
        mollifier=nldef.MollifierSpec("shell", 0.2, 2), outer_grid=24, inner_level=8, workers=1)
    out.append(("d2/equal_spin_jump/n24", req))
    # the d3-jump-study sides across x_3 = 1/2: a constant jump whose ids
    # vary along the last axis
    study = _study_field()
    for workers in (1, 2):
        req = en.EnergyRequest(
            field=nldef.PlanarJumpField(np.eye(3)[2], 0.5, study.minus, study.plus),
            domain=nldef.DomainBox([0.0] * 3, [1.0] * 3), p=1.0,
            mollifier=nldef.MollifierSpec("shell", 0.4, 3), outer_grid=24, inner_level=4,
            workers=workers)
        out.append((f"d3/study_jump_e3/n24/w{workers}", req))
    # |q|^p rows that overflow to inf at 16 of their 48 nodes, which every
    # cell masks along the first axis, or along the last
    for name, a, hi in (("e1", [[1e155, 0.0], [0.0, 0.0]], [0.05, 1.0]),
                        ("e2", [[0.0, 0.0], [0.0, 1e155]], [1.0, 0.05])):
        req = en.EnergyRequest(
            field=nldef.LinearField(np.array(a), np.zeros(2)),
            domain=nldef.DomainBox([0.0, 0.0], hi), p=2.0,
            mollifier=nldef.MollifierSpec("shell", 0.2, 2), outer_grid=16, inner_level=4,
            workers=1)
        out.append((f"d2/overflow_{name}/n16", req))
    # class calls at odd N, where the rank-form total has no row halving to do
    mat = np.array([[0.4, 0.1, 0.0], [0.0, -0.2, 0.1], [0.05, 0.0, 0.3]])
    odd = [(2, n, 8, 0.1, name, f) for n in (25, 63) for name, f in (
        ("linear", c10["linear"]), ("jump_e0", c10["jump"]),
        ("equal_spin_jump", _equal_spin_jump()))]
    odd += [(3, 9, 4, 0.4, "linear", nldef.LinearField(mat, np.zeros(3))),
            (3, 9, 4, 0.4, "study_jump", _study_field())]
    for d, n, level, eps, name, field in odd:
        for workers in (1, 2):
            req = en.EnergyRequest(
                field=field, domain=nldef.DomainBox([0.0] * d, [1.0] * d), p=1.0,
                mollifier=nldef.MollifierSpec("shell", eps, d), outer_grid=n,
                inner_level=level, workers=workers)
            out.append((f"d{d}/odd_n/{name}/n{n}/w{workers}", req))
    return out


def _limit_outputs(out: dict) -> None:
    """Ground truths, limit-measure masses and atoms, and the density-measure
    atoms of the same grid, on the unit box, p = 1."""
    import nldef

    en = importlib.import_module("nldef.energy")
    zero2 = nldef.RigidField(np.zeros((2, 2)), np.zeros(2))
    # cell counts: the weak-* default of 64 and, for the jumps, the study's
    # grid of 24, whose midpoints are not all exact
    fields = [
        ("d3/study_jump", _study_field(), (64, 24)),
        ("d2/jump_rigid", nldef.PlanarJumpField(
            np.array([1.0, 0.0]), 0.5, zero2,
            nldef.RigidField(np.array([[0.0, 0.5], [-0.5, 0.0]]), np.array([0.3, 1.0]))),
         (64, 24)),
        ("d2/equal_spin_jump", _equal_spin_jump(), (64, 24)),
        # an indefinite symmetric gradient, so Q_1 goes through the sphere rule
        ("d3/linear", dict(_fields(3))["linear"], (8,)),
    ]
    for key, field, sizes in fields:
        d = field.dim
        box = nldef.DomainBox([0.0] * d, [1.0] * d)
        rule = nldef.make_sphere_rule(d, 64)
        gt = nldef.ground_truth(field, box, 1.0, rule)
        out[f"{key}/ground_truth"] = [gt.ac_value, gt.singular_value, gt.total]
        for n in sizes:
            limit = nldef.ground_truth_measure(field, box, rule, n_cells=n)
            masses = np.asarray(limit.masses, dtype=np.float64)
            out[f"{key}/limit_masses/n{n}"] = masses[: n**d].tolist()  # the cell atoms
            out[f"{key}/limit_interface/n{n}"] = masses[n**d :].tolist()
            out[f"{key}/limit_atoms/n{n}"] = np.ravel(limit.points).tolist()
            req = en.EnergyRequest(field=field, domain=box, p=1.0, outer_grid=n,
                                   mollifier=nldef.MollifierSpec("shell", 0.2, d),
                                   inner_level=4, workers=1)
            out[f"{key}/density_atoms/n{n}"] = np.ravel(en.density_masses(req)[0]).tolist()


def _quadrature_outputs(out: dict) -> None:
    """The other users of the limit objects' quadrature, on the unit box:
    `ground_truth` of smooth fields and of an oblique jump, `upper_bound_rhs`
    with and without a tail term, the limit measure of a smooth field, and
    `mollify` on a small box."""
    import nldef

    en = importlib.import_module("nldef.energy")
    fl = importlib.import_module("nldef.fields")
    two, three = dict(_fields(2)), dict(_fields(3))
    box2, box3 = (nldef.DomainBox([0.0] * d, [1.0] * d) for d in (2, 3))
    rule2 = nldef.make_sphere_rule(2, 64)
    cases = [("d2/sin", two["sin"], box2, rule2, (1.0, 2.0, 3.0)),
             ("d2/bump", two["bump"], box2, rule2, (2.0,)),
             ("d2/jump_oblique", two["jump_oblique"], box2, rule2, (1.0,)),
             ("d3/sin/level16", three["sin"], box3, nldef.make_sphere_rule(3, 16), (1.0,))]
    for key, field, box, rule, ps in cases:
        for p in ps:
            gt = nldef.ground_truth(field, box, p, rule)
            out[f"{key}/p{p:g}/ground_truth"] = [gt.ac_value, gt.singular_value, gt.total]
    for family in ("gaussian", "shell"):
        moll = nldef.MollifierSpec(family, 0.1, 2)
        out[f"d2/sin/upper_bound_rhs/{family}"] = [
            en.upper_bound_rhs(two["sin"], box2, 0.15, p, moll) for p in (1.0, 2.0)]
    limit = nldef.ground_truth_measure(two["sin"], box2, rule2, n_cells=16)
    out["d2/sin/limit_masses/n16"] = np.asarray(limit.masses, dtype=np.float64).tolist()
    small = nldef.DomainBox([0.3, 0.3], [0.6, 0.6])
    for fname in ("linear", "sin", "jump_rigid"):
        for eta in (0.02, 0.05):
            sm = fl.mollify(two[fname], eta, nldef.MollifierSpec("scaled_bump", eta, 2), 0.05,
                            small, angular_level=32, radial_nodes=8)
            out[f"d2/{fname}/mollify/eta{eta:g}"] = np.ravel(sm.values).tolist()


def _rule_outputs(out: dict) -> None:
    """Sphere rules and one inner level's nodes per mollifier family."""
    import nldef

    en = importlib.import_module("nldef.energy")
    for d in (1, 2, 3):
        for level in (1, 2, 5, 8, 9, 16, 64):
            rule = nldef.make_sphere_rule(d, level)
            out[f"d{d}/sphere_rule/level{level}"] = [*np.ravel(rule.nodes), *rule.weights]
    for family in ("shell", "scaled_bump", "gaussian"):
        for d, level in ((1, 16), (2, 16), (3, 4), (3, 9)):
            h, w, inv_r2 = en._level_nodes(family, 0.1, d, level, 1e-10)
            out[f"d{d}/{family}/level_nodes/level{level}"] = [*np.ravel(h), *w, *inv_r2]


def _study_config() -> dict:
    """The d3-jump-study config at seed 0."""
    mat = [[0.4, 0.1, 0.0], [0.0, -0.2, 0.1], [0.05, 0.0, 0.3]]
    return {
        "schema": 1, "dim": 3, "p": 1.0, "mollifier": {"family": "shell"},
        "field": {"id": "planar_jump", "params": {
            "normal": [1.0, 0.0, 0.0], "offset": 0.5,
            "minus": {"id": "linear", "params": {"matrix": mat}},
            "plus": {"id": "linear", "params": {"matrix": mat, "shift": [0.2, 1.0, 0.3]}}}},
        "domain": {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]},
        "eps": [0.4, 0.2, 0.1], "outer": {"n": 24}, "inner": {"level": 4},
        "aligned": True, "workers": 1,
        "weakstar": {"dictionary": [
            {"id": "const_one"}, {"id": "tent", "center": [0.5, 0.5, 0.5], "radius": 0.3},
            {"id": "cosine", "k": [1.0, 0.0, 0.0]}, {"id": "cosine", "k": [1.0, 2.0, -1.0]}]},
    }


def _study_cli_outputs(out: dict) -> None:
    """The d3-jump-study at seed 0 through the command line: the sweep report
    and the gap rows of each test function (runtimes left out)."""
    cli = importlib.import_module("nldef.cli")
    cfg = _study_config()
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, sweep, gaps = (Path(tmp) / f for f in ("cfg.json", "sweep.json", "gaps.csv"))
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = [cli.main(["sweep", "--config", str(cfg_path), "--out", str(sweep),
                        "--format", "json"]),
              cli.main(["weakstar", "--config", str(cfg_path), "--out", str(gaps)])]
        if rc != [0, 0]:
            raise SystemExit(f"d3-jump-study commands exited {rc}")
        report = json.loads(sweep.read_text(encoding="utf-8"))
        rows = [line.split(",") for line in gaps.read_text(encoding="utf-8").splitlines()[1:]]
    for key in ("value", "est_quadrature_error", "truncation_radius", "n_outer"):
        out[f"d3/study_cli/sweep/{key}"] = [float(r[key]) for r in report["records"]]
    out["d3/study_cli/sweep/limit"] = [float(report[k]) for k in (
        "reference_value", "extrapolated_limit", "empirical_order")]
    for eps, phi, *vals in rows:
        out.setdefault(f"d3/study_cli/weakstar/{phi}", []).extend([float(eps), *map(float, vals)])


def _study_sweep5_outputs(out: dict) -> None:
    """The d3-jump-study config with five eps, through `run_sweep`: the
    records (runtimes left out), the reference and the limit."""
    lab = importlib.import_module("nldef.lab")
    rep = lab.run_sweep(lab.SweepConfig.from_dict(
        dict(_study_config(), eps=[0.4, 0.3, 0.2, 0.15, 0.1])))
    for key in ("value", "est_quadrature_error", "truncation_radius", "n_outer"):
        out[f"d3/study_sweep5/{key}"] = [float(getattr(r, key)) for r in rep.records]
    out["d3/study_sweep5/limit"] = [rep.reference_value, rep.extrapolated_limit,
                                    rep.empirical_order]


def _record(out: dict, key: str, req, residual: bool) -> None:
    """Energy, residual energy (p = 1 closed-form fields) and density masses."""
    en = importlib.import_module("nldef.energy")
    res = en.energy(req)
    out[f"{key}/energy"] = [res.value, res.est_quadrature_error]
    if residual:
        res = en.residual_energy(req)
        out[f"{key}/residual"] = [res.value, res.est_quadrature_error]
    _, masses, _ = en.density_masses(req)
    out[f"{key}/masses"] = np.asarray(masses, dtype=np.float64).tolist()


def _outputs() -> dict:
    """name -> list of floats, for every request of the fixed list."""
    import nldef

    en = importlib.import_module("nldef.energy")
    out = {}
    for d in (1, 2, 3):
        box = nldef.DomainBox([0.0] * d, [1.0] * d)
        moll = nldef.MollifierSpec("shell", 0.2, d)
        # an interior point (its stencil inside the box) and one near a corner
        points = (np.linspace(0.42, 0.58, d), np.full(d, 0.03))
        for fname, field in _fields(d):
            closed_form = fname != "sampled"
            for p in (1.0, 2.0):
                for workers in (1, 2):
                    n, level = _SIZES[d][workers - 1]
                    if workers == 2 and p == 2.0:
                        continue  # one pooled request per field is enough
                    req = en.EnergyRequest(
                        field=field, domain=box, p=p, mollifier=moll,
                        outer_grid=n, inner_level=level, workers=workers)
                    # the keys name the inner rule, as in earlier reports of this script
                    key = f"d{d}/{fname}/radial_spherical/p{p:g}"
                    _record(out, f"{key}/w{workers}", req, p == 1.0 and closed_form)
                    if workers == 1:
                        out[f"{key}/local_density"] = [en.local_density(req, x) for x in points]
    for key, req in _extra_requests():
        _record(out, key, req, req.p == 1.0)
    _limit_outputs(out)
    _quadrature_outputs(out)
    _rule_outputs(out)
    _study_cli_outputs(out)
    _study_sweep5_outputs(out)
    return out


def _emit(tree: Path) -> int:
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import nldef

    if Path(nldef.__file__).resolve().parent != src / "nldef":
        raise SystemExit(f"imported nldef from {nldef.__file__}, not from {src}")
    json.dump({k: [v.hex() for v in vals] for k, vals in _outputs().items()}, sys.stdout)
    return 0


def _run_tree(tree: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit", str(tree)],
        capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: exit {proc.returncode}\n{proc.stderr[-4000:]}")
    return {k: [float.fromhex(v) for v in vals] for k, vals in json.loads(proc.stdout).items()}


def _src_lines(tree: Path) -> int:
    """Lines of the tree's src/nldef/*.py, counted as `wc -l` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "nldef").glob("*.py"))


def _digest(vals) -> str:
    return hashlib.sha256(np.asarray(vals, dtype=np.float64).tobytes()).hexdigest()[:12]


def _diff(old, new) -> tuple[float, float, float]:
    """(max |old|, max |new - old|, their ratio) over an output's elements."""
    a = np.asarray(old, dtype=np.float64)
    b = np.asarray(new, dtype=np.float64)
    if a.shape != b.shape:
        return float("nan"), float("inf"), float("inf")
    kept = ~(np.isnan(a) & np.isnan(b))  # a NaN in both trees is no difference
    a, b = a[kept], b[kept]
    if not a.size:
        return 0.0, 0.0, 0.0
    scale = float(np.max(np.abs(a)))
    diff = float(np.max(np.abs(b - a)))
    if diff == 0.0:
        return scale, 0.0, 0.0
    return scale, diff, diff / scale if scale > 0.0 else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", nargs="?", type=Path, help="source tree before the change")
    ap.add_argument("new", nargs="?", type=Path, help="source tree after the change")
    ap.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit is not None:
        return _emit(args.emit)
    if args.old is None or args.new is None:
        ap.error("give the old and the new source tree")
    old, new = _run_tree(args.old), _run_tree(args.new)
    if set(old) != set(new):
        raise SystemExit(f"the trees produced different output names: {set(old) ^ set(new)}")
    width = max(len(k) for k in old)
    print(f"{'output':<{width}}  {'old sha256':<12}  {'new sha256':<12}  same  "
          f"{'max|old|':>9}  {'max_abs':>9}  {'max_rel':>9}")
    same = 0
    for key in old:
        h_old, h_new = _digest(old[key]), _digest(new[key])
        equal = h_old == h_new
        same += equal
        scale, diff, rel = _diff(old[key], new[key])
        print(f"{key:<{width}}  {h_old}  {h_new}  {'yes ' if equal else 'NO  '}  "
              f"{scale:9.3g}  {diff:9.3g}  {rel:9.3g}")
    print(f"{same}/{len(old)} outputs bitwise equal")
    print(f"wc -l src/nldef/*.py: {_src_lines(args.old)} old, {_src_lines(args.new)} new")
    return 0 if same == len(old) else 1


if __name__ == "__main__":
    sys.exit(main())
