"""The benchmark's workloads: seeded inputs, op lists, pair counts and checks.

Importing this module imports nldef from the checkout's ``src`` directory,
so the time it takes is part of the benchmark's set-up time.

An op is one user-visible unit of work. Each workload is a fixed list of ops
(one pass); `run.py` repeats passes for the measuring time.

- c10-linear: serial energy() of a LinearField on the criterion-10 request,
  alternating p = 1 and p = 2.
- c10-kernels-pool: the same grid at min(2, nproc) workers; energy() of a
  SinField, energy() of a PlanarJumpField, residual_energy() of the SinField.
- d3-jump-study: `nldef sweep` then `nldef weakstar` in-process on one
  generated d = 3 planar-jump config with linear sides.

The default seed reproduces the fields of tests/test_acceptance.py; any
other seed draws the field parameters and leaves every size unchanged, so
the work per op does not depend on the seed.
"""

from __future__ import annotations

import importlib
import json
import math
import multiprocessing
import os
import pickle
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
if not (SRC / "nldef" / "__init__.py").is_file():
    raise SystemExit(f"nldef sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import nldef  # noqa: E402

if Path(nldef.__file__).resolve().parent != (SRC / "nldef").resolve():
    raise SystemExit(f"imported nldef from {nldef.__file__}, not from {SRC}")

# `nldef.energy` is the function; the modules are taken from sys.modules
MODULES = {
    name: importlib.import_module(f"nldef.{name}")
    for name in ("fields", "energy", "symnorm", "mollifiers", "measures", "lab", "cli")
}
en = MODULES["energy"]
cli = MODULES["cli"]

NAMES = ("c10-linear", "c10-kernels-pool", "d3-jump-study")
DEFAULT_SEED = 0

# outer-cells x inner-nodes per tile, as in nldef.energy; tile and task-size
# counts derived from it are computed, not measured
TILE_NODE_BUDGET = 1 << 20

# criterion 5 / sweep tol_accept and criterion 6 tolerances
ACCEPT_TOL = 0.02
RESIDUAL_TOL = 0.01
# pooled vs serial totals (criterion 10)
PARITY_TOL = 1e-13
# default-seed outputs vs the values recorded in reference.json
REF_RTOL = 1e-9
REF_ATOL = 1e-12

SIZES = {
    "full": {
        "c10": {"n": 320, "eps": 0.025, "level": 16},
        "d3": {"n": 24, "level": 4, "eps": [0.4, 0.2, 0.1], "sides": "linear"},
    },
    # smoke sizes; the d = 3 jump gets rigid sides, which skips the per-cell
    # loop of the limit measure that sets the cost of the full op
    "tiny": {
        "c10": {"n": 24, "eps": 0.2, "level": 4},
        "d3": {"n": 10, "level": 2, "eps": [0.4, 0.3, 0.2], "sides": "rigid"},
    },
}

DICTIONARY = [
    {"id": "const_one"},
    {"id": "tent", "center": [0.5, 0.5, 0.5], "radius": 0.3},
    {"id": "cosine", "k": [1.0, 0.0, 0.0]},
]


@dataclass
class Op:
    label: str
    run: Callable[[int], object]  # workers -> output
    pairs: int  # (outer cell, inner node) pairs over both inner levels
    tiles: int
    task_bytes: int  # pickled size of the largest tile task


@dataclass
class Workload:
    name: str
    seed: int
    size: str
    ops: list
    workers: int  # worker count of the untraced run
    check: Callable[[int, object], list]  # (op index, output) -> problems
    summarize: Callable[[object], dict]  # output -> flat floats for the reference

    @property
    def pairs_per_pass(self) -> int:
        return sum(op.pairs for op in self.ops)


# ---------------------------------------------------------------------------
# pair, tile and task-size counts, computed from the request


def _inner_count(family: str, eps: float, dim: int, level: int, trunc_tol: float) -> int:
    """Inner nodes of the radial x sphere rule at one level."""
    bands = nldef.MollifierSpec(family, eps, dim).radial_bands(trunc_tol)
    return len(bands) * max(2, level // 4) * len(nldef.make_sphere_rule(dim, level))


def _request_counts(req) -> tuple[int, int, int]:
    """(pairs, tiles, largest task bytes) of one energy call over both levels."""
    d = req.domain.dim
    cells = req.outer_grid**d
    pairs = tiles = task = 0
    for level in (req.inner_level, 2 * req.inner_level):
        k = _inner_count(req.mollifier.family, req.mollifier.eps, d, level, req.trunc_tol)
        per_tile = max(1, TILE_NODE_BUDGET // k)
        pairs += cells * k
        tiles += -(-cells // per_tile)
        args = (req.field, req.domain, np.zeros((min(per_tile, cells), d)),
                np.zeros((k, d)), np.zeros(k), np.zeros(k), req.p, False, 1.0, 0)
        task = max(task, len(pickle.dumps(args)))
    return pairs, tiles, task


# ---------------------------------------------------------------------------
# inputs


def _c10_fields(seed: int):
    from nldef import LinearField, PlanarJumpField, RigidField, SinField

    if seed == DEFAULT_SEED:
        linear = LinearField(np.eye(2), np.zeros(2))
        sin = SinField(np.array([0.3, 0.2]), np.array([[3.0, 1.0], [1.0, 2.0]]))
        jump_a = np.array([0.0, 1.0])
    else:
        rng = random.Random(seed)
        diag = [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5) for _ in range(2)]
        a = np.diag(diag) + np.array([[0.0, rng.uniform(-0.5, 0.5)],
                                      [rng.uniform(-0.5, 0.5), 0.0]])
        linear = LinearField(a, np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)]))
        sin = SinField(np.array([rng.uniform(0.1, 0.4) for _ in range(2)]),
                       np.array([[rng.uniform(0.5, 3.5) for _ in range(2)]
                                 for _ in range(2)]))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        jump_a = np.array([math.cos(angle), math.sin(angle)])
    zero = RigidField(np.zeros((2, 2)), np.zeros(2))
    jump = PlanarJumpField(np.array([1.0, 0.0]), 0.5, zero,
                           RigidField(np.zeros((2, 2)), jump_a))
    return linear, sin, jump


def _c10_request(field, p: float, workers: int, size: dict):
    return nldef.EnergyRequest(
        field=field, domain=nldef.DomainBox([0.0, 0.0], [1.0, 1.0]), p=p,
        mollifier=nldef.MollifierSpec("shell", size["eps"], 2),
        outer_grid=size["n"], inner_level=size["level"], workers=workers)


def _d3_config(seed: int, size: dict) -> dict:
    n = size["n"]
    rng = random.Random(seed)
    if seed == DEFAULT_SEED:
        k = n // 2
        mat = [[0.4, 0.1, 0.0], [0.0, -0.2, 0.1], [0.05, 0.0, 0.3]]
        jump = [0.2, 1.0, 0.3]
    else:
        k = rng.randint(n // 4, 3 * n // 4)
        mat = [[rng.uniform(-0.5, 0.5) for _ in range(3)] for _ in range(3)]
        jump = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    if size["sides"] == "linear":
        # equal matrices keep the jump constant along the interface
        minus = {"id": "linear", "params": {"matrix": mat}}
        plus = {"id": "linear", "params": {"matrix": mat, "shift": jump}}
    else:
        zero = [[0.0] * 3 for _ in range(3)]
        minus = {"id": "rigid", "params": {"spin": zero}}
        plus = {"id": "rigid", "params": {"spin": zero, "shift": jump}}
    return {
        "schema": 1,
        "dim": 3,
        # offset k/n puts the interface on cell boundaries, so the aligned
        # sweep keeps outer n unchanged
        "field": {"id": "planar_jump",
                  "params": {"normal": [1.0, 0.0, 0.0], "offset": k / n,
                             "minus": minus, "plus": plus}},
        "domain": {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]},
        "p": 1.0,
        "mollifier": {"family": "shell"},
        "eps": size["eps"],
        "outer": {"n": n},
        "inner": {"level": size["level"]},
        "aligned": True,
        "weakstar": {"dictionary": DICTIONARY},
        "workers": 1,
    }


# ---------------------------------------------------------------------------
# checks


def _slack(box, eps: float) -> float:
    """Relative boundary-layer allowance: eps times perimeter over volume.

    Pairs whose second point leaves U are masked out, so at finite eps the
    energy falls short of the eps -> 0 limit by about this share.
    """
    return eps * sum(2.0 / float(w) for w in box.hi - box.lo)


def _c10_checker(ops_meta, size):
    truths = {}

    def check(i, res) -> list:
        field, p, residual, req = ops_meta[i]
        v, e = res.value, res.est_quadrature_error
        if not (math.isfinite(v) and math.isfinite(e) and e >= 0.0):
            return [f"non-finite value {v!r} or error bar {e!r}"]
        if i not in truths:
            truths[i] = nldef.ground_truth(field, req.domain, p,
                                           nldef.make_sphere_rule(2, 64)).total
        truth, slack = truths[i], _slack(req.domain, size["eps"])
        if residual:
            if not 0.0 <= v <= (RESIDUAL_TOL + slack) * truth:
                return [f"residual {v:.6g} outside [0, {(RESIDUAL_TOL + slack) * truth:.6g}]"]
        elif not -(ACCEPT_TOL + slack) <= v / truth - 1.0 <= ACCEPT_TOL:
            return [f"value {v:.6g} vs ground truth {truth:.6g}: relative "
                    f"gap {v / truth - 1.0:.3g} outside [{-(ACCEPT_TOL + slack):.3g}, "
                    f"{ACCEPT_TOL}]"]
        return []

    return check


def _c10_summary(res) -> dict:
    return {"value": res.value, "est": res.est_quadrature_error}


def _read_csv(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def _d3_checker(cfg):
    n_eps = len(cfg["eps"])
    n_phi = len(DICTIONARY)

    def check(i, out) -> list:
        problems = []
        if out["rc"] != [0, 0]:
            return [f"CLI exit codes {out['rc']}"]
        recs = out["sweep"]["records"]
        if len(recs) != n_eps:
            problems.append(f"sweep has {len(recs)} records, expected {n_eps}")
        for r in recs:
            if r["n_outer"] != cfg["outer"]["n"]:
                problems.append(f"sweep used n_outer {r['n_outer']}")
            if not (math.isfinite(r["value"]) and r["value"] > 0.0):
                problems.append(f"sweep value {r['value']!r}")
        rows = out["gaps"]
        if len(rows) != n_eps * n_phi:
            problems.append(f"weakstar has {len(rows)} rows, expected {n_eps * n_phi}")
        # criterion 9: a gap may not grow by more than the finer row's error bar
        for j in range(n_phi):
            seq = rows[j::n_phi]
            for prev, nxt in zip(seq, seq[1:]):
                if float(nxt["gap"]) > float(prev["gap"]) + float(nxt["est_quad_err"]):
                    problems.append(f"gap for {nxt['phi']} grows at eps={nxt['eps']}")
        return problems

    return check


def _d3_summary(out) -> dict:
    s = out["sweep"]
    flat = {"sweep.reference": s["reference_value"],
            "sweep.limit": s["extrapolated_limit"]}
    for k, r in enumerate(s["records"]):
        flat[f"sweep.value.{k}"] = r["value"]
        flat[f"sweep.est.{k}"] = r["est_quadrature_error"]
    for k, r in enumerate(out["gaps"]):
        flat[f"weakstar.pair.{k}"] = float(r["pair_value"])
        flat[f"weakstar.ref.{k}"] = float(r["ref_value"])
    return flat


def compare_reference(got: dict, ref: dict) -> list:
    problems = []
    if set(got) != set(ref):
        return [f"output keys {sorted(got)} differ from the reference {sorted(ref)}"]
    for key, b in ref.items():
        a = got[key]
        if math.isnan(a) and math.isnan(b):
            continue
        if not abs(a - b) <= REF_RTOL * max(abs(a), abs(b)) + REF_ATOL:
            problems.append(f"{key} = {a!r}, reference {b!r}")
    return problems


# ---------------------------------------------------------------------------
# workloads


def _c10(name: str, seed: int, size_name: str) -> Workload:
    size = SIZES[size_name]["c10"]
    linear, sin, jump = _c10_fields(seed)
    if name == "c10-linear":
        specs = [("linear p=1", linear, 1.0, False), ("linear p=2", linear, 2.0, False)]
        workers = 1
    else:
        specs = [("sin", sin, 1.0, False), ("jump", jump, 1.0, False),
                 ("sin residual", sin, 1.0, True)]
        workers = min(2, len(os.sched_getaffinity(0)))
    ops, meta = [], []
    for label, field, p, residual in specs:
        def run(w, field=field, p=p, residual=residual):
            req = _c10_request(field, p, w, size)
            return (en.residual_energy if residual else en.energy)(req)

        req = _c10_request(field, p, 1, size)
        ops.append(Op(label, run, *_request_counts(req)))
        meta.append((field, p, residual, req))
    return Workload(name, seed, size_name, ops, workers,
                    _c10_checker(meta, size), _c10_summary)


def _d3(seed: int, size_name: str, workdir: Path) -> Workload:
    size = SIZES[size_name]["d3"]
    cfg = _d3_config(seed, size)
    cfg_path = workdir / "study.json"
    cfg_path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    sweep_out, gaps_out = workdir / "sweep.json", workdir / "gaps.csv"

    def run(_workers):
        rc = [cli.main(["sweep", "--config", str(cfg_path), "--out", str(sweep_out),
                        "--format", "json"]),
              cli.main(["weakstar", "--config", str(cfg_path), "--out", str(gaps_out)])]
        if rc != [0, 0]:
            return {"rc": rc}
        return {"rc": rc, "sweep": json.loads(sweep_out.read_text(encoding="utf-8")),
                "gaps": _read_csv(gaps_out)}

    parsed = nldef.SweepConfig.from_dict(cfg)
    pairs = tiles = task = 0
    for eps in cfg["eps"]:
        req = nldef.EnergyRequest(
            field=parsed.field, domain=parsed.domain, p=1.0,
            mollifier=nldef.MollifierSpec("shell", eps, 3), outer_grid=size["n"],
            inner_level=size["level"], workers=1)
        p, t, b = _request_counts(req)
        # one energy call in the sweep, one density_masses call in weakstar
        pairs, tiles, task = pairs + 2 * p, tiles + 2 * t, max(task, b)
    op = Op("sweep+weakstar", run, pairs, tiles, task)
    return Workload("d3-jump-study", seed, size_name, [op], 1,
                    _d3_checker(cfg), _d3_summary)


def build(name: str, seed: int, size: str, workdir: Path) -> Workload:
    if name == "d3-jump-study":
        return _d3(seed, size, workdir)
    if name in NAMES:
        return _c10(name, seed, size)
    raise ValueError(f"unknown workload {name!r}")


def warm_pool(workers: int) -> None:
    """Fork the pool's workers with a request whose fine level has 2 tiles."""
    req = nldef.EnergyRequest(
        field=nldef.LinearField(np.eye(2), np.zeros(2)),
        domain=nldef.DomainBox([0.0, 0.0], [1.0, 1.0]), p=1.0,
        mollifier=nldef.MollifierSpec("shell", 0.025, 2), outer_grid=64,
        inner_level=16, workers=workers)
    en.energy(req)
    alive = len(multiprocessing.active_children())
    if alive < workers:
        raise RuntimeError(f"pool warm-up left {alive} workers alive, expected {workers}")


def stop_pools() -> None:
    """Shut the engine's cached pools down and wait for every worker."""
    shutdown = getattr(en, "_shutdown_pools", None)
    if shutdown is not None:
        shutdown()
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.terminate()
            child.join(timeout=10)
