"""Command line front end.

Subcommands: qnorm (print a Q_p value), energy (one evaluation as JSON),
sweep / residual (eps sweeps to a report file), weakstar (dictionary gaps).
Exit codes: 0 success, 2 config error, 3 model error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial

import numpy as np

from .energy import energy, residual_energy
from .errors import ConfigError, NldefError
from .lab import (
    SweepConfig,
    _json_text,
    report_write,
    run_sweep,
    run_weakstar,
)
from .measures import _fmt
from .symnorm import SymMatrix, make_sphere_rule, q_norm


def _parse_matrix(text: str) -> np.ndarray:
    try:
        rows = [
            [float(entry) for entry in row.split(",")]
            for row in text.split(";")
            if row.strip()
        ]
    except ValueError:
        raise ConfigError(f"matrix {text!r}: entries must be numbers") from None
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ConfigError(f"matrix {text!r}: need d rows of d comma-separated entries")
    return np.array(rows)


def _load_config(path: str) -> SweepConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return SweepConfig.from_dict(raw)


def _cmd_qnorm(args) -> int:
    m = SymMatrix(_parse_matrix(args.matrix))
    if m.dim != args.dim:
        raise ConfigError(f"matrix is {m.dim}x{m.dim} but --dim {args.dim} was given")
    if not 1 <= args.p < math.inf:
        raise ConfigError(f"--p must be a finite number >= 1, got {args.p}")
    if args.level < 1:
        raise ConfigError(f"--level must be >= 1, got {args.level}")
    rule = make_sphere_rule(args.dim, args.level)
    print(_fmt(q_norm(m, args.p, rule)))
    return 0


def _cmd_energy(args) -> int:
    cfg = _load_config(args.config)
    req, under_policy, _ = cfg.requests[0]
    res = residual_energy(req) if cfg.residual else energy(req)
    print(_json_text(res, under_policy=under_policy))
    return 0


def _cmd_sweep(args, force_residual: bool = False) -> int:
    cfg = _load_config(args.config)
    if force_residual:  # not part of a request, so the requests from_dict built stay
        object.__setattr__(cfg, "residual", True)
    report = run_sweep(cfg)
    report_write(report, args.out, args.format)
    return 0


def _cmd_weakstar(args) -> int:
    cfg = _load_config(args.config)
    run_weakstar(cfg, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nldef", description="Nonlocal symmetric difference-quotient energies."
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("qnorm", help="print Q_p of a symmetric matrix")
    q.add_argument("--dim", type=int, required=True, choices=(1, 2, 3))
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--matrix", type=str, required=True, help='"a11,a12;a21,a22"')
    q.add_argument("--level", type=int, default=64)

    e = sub.add_parser("energy", help="one energy evaluation, JSON on stdout")
    e.add_argument("--config", type=str, required=True)

    for name, text in (("sweep", "eps sweep to a report file"),
                       ("residual", "residual-functional sweep")):
        s = sub.add_parser(name, help=text)
        s.add_argument("--config", type=str, required=True)
        s.add_argument("--out", type=str, required=True)
        s.add_argument("--format", type=str, default="csv", choices=("csv", "json"))

    w = sub.add_parser("weakstar", help="weak-* dictionary gap table")
    w.add_argument("--config", type=str, required=True)
    w.add_argument("--out", type=str, required=True)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {"qnorm": _cmd_qnorm, "energy": _cmd_energy, "sweep": _cmd_sweep,
                "residual": partial(_cmd_sweep, force_residual=True),
                "weakstar": _cmd_weakstar}
    try:
        return commands[args.cmd](args)  # argparse has checked the name
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NldefError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
