"""Compare the engine's outputs under two source trees, bit for bit.

    python3 tools/compare_trees.py OLD_TREE NEW_TREE

Each tree is a checkout with the package under ``src/nldef``. The script
runs a fixed list of requests once per tree, each tree in a fresh
interpreter with that tree's ``src`` first on the import path, and prints one
line per output: the first 12 hex digits of the sha256 of its float64 bytes
under each tree, whether the bytes are equal, max |old|, max |new - old|
and their ratio, the relative difference, over the output's elements.

The requests cover d = 1..3, every field family (rigid, linear, sin, bump,
planar jump with rigid and with linear sides, sampled), both inner modes,
p = 1 and 2, and 1 and 2 workers; requests at 2 workers have several tiles
per level, so they run through the process pool. The outputs are the
energy value and error bar, the residual energy value and error bar (p = 1,
closed-form fields) and the per-cell density masses. The environment,
BLAS thread settings included, is passed to both interpreters unchanged.
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


def _outputs() -> dict:
    """name -> list of floats, for every request of the fixed list."""
    import nldef

    en = importlib.import_module("nldef.energy")
    out = {}
    for d in (1, 2, 3):
        box = nldef.DomainBox([0.0] * d, [1.0] * d)
        moll = nldef.MollifierSpec("shell", 0.2, d)
        for fname, field in _fields(d):
            closed_form = fname != "sampled"
            for mode in ("radial_spherical", "tensor"):
                for p in (1.0, 2.0):
                    for workers in (1, 2):
                        n, level = _SIZES[d][workers - 1]
                        if workers == 2 and (mode == "tensor" or p == 2.0):
                            continue  # one pooled request per field is enough
                        req = en.EnergyRequest(
                            field=field, domain=box, p=p, mollifier=moll,
                            outer_grid=n, inner_level=level, inner_mode=mode,
                            workers=workers)
                        key = f"d{d}/{fname}/{mode}/p{p:g}/w{workers}"
                        res = en.energy(req)
                        out[f"{key}/energy"] = [res.value, res.est_quadrature_error]
                        if p == 1.0 and closed_form:
                            res = en.residual_energy(req)
                            out[f"{key}/residual"] = [res.value, res.est_quadrature_error]
                        _, masses, _ = en.density_masses(req)
                        out[f"{key}/masses"] = np.asarray(masses, dtype=np.float64).tolist()
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


def _digest(vals) -> str:
    return hashlib.sha256(np.asarray(vals, dtype=np.float64).tobytes()).hexdigest()[:12]


def _diff(old, new) -> tuple[float, float, float]:
    """(max |old|, max |new - old|, their ratio) over an output's elements."""
    a = np.asarray(old, dtype=np.float64)
    b = np.asarray(new, dtype=np.float64)
    if a.shape != b.shape:
        return float("nan"), float("inf"), float("inf")
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
    return 0 if same == len(old) else 1


if __name__ == "__main__":
    sys.exit(main())
