"""nldef benchmark: three workloads, end-to-end metrics, a traced run for layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload c10-linear --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 0
    python3 perfbench/run.py --smoke

A run sets up (imports nldef from ``src``, builds the seeded inputs, warms the
process pool where the workload uses one), then repeats passes over the
workload's op list while the next pass should end within ``--seconds`` (at
least one pass), and checks every op's output. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

import os

# one BLAS/OpenMP thread per process, set before numpy is imported, so two
# pool workers use no more threads than there are cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "_out"
SETUP_SAMPLES = 3  # set-ups per run: this process plus fresh interpreters


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _setup(workload: str, seed: int, size: str, workdir: Path):
    """Import nldef, build the inputs, warm the pool; returns (module, workload, s)."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.build(workload, seed, size, workdir)
    if wl.workers > 1:
        workloads.warm_pool(wl.workers)
    return workloads, wl, time.perf_counter() - t0


def _setup_probe(args) -> int:
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wlmod, _, seconds = _setup(args.workload, args.seed, args.size, Path(tmp))
        wlmod.stop_pools()
    print(json.dumps({"setup_s": seconds}))
    return 0


def _setup_samples(args) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--size", args.size],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _measure(wl, seconds: float, workers: int, tracer=None):
    """Passes over the op list while the next one should end within `seconds`.

    Runs at least one pass; returns (op latencies, pass walls, outputs).
    """
    latencies, walls, outputs = [], [], []
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = len(outputs)
            t = time.perf_counter()
            try:
                out = op.run(workers)
            except Exception as exc:  # a failed op is counted, not fatal
                traceback.print_exc()
                out = exc
            latencies.append(time.perf_counter() - t)
            outputs.append((i, out))
        walls.append(time.perf_counter() - t_pass)
        if time.perf_counter() - start + walls[-1] > seconds:
            return latencies, walls, outputs


def _check(wlmod, wl, outputs, reference) -> int:
    """Number of outputs that raised or failed a check; problems go to stderr."""
    failed = 0
    for i, out in outputs:
        if isinstance(out, Exception):
            problems = [f"raised {out!r}"]
        else:
            problems = wl.check(i, out)
            if reference is not None and not problems:
                problems += wlmod.compare_reference(wl.summarize(out), reference[i])
        for p in problems:
            print(f"check failed: {wl.name} op {wl.ops[i].label}: {p}", file=sys.stderr)
        failed += bool(problems)
    return failed


def _reference(wlmod, wl):
    if wl.seed != wlmod.DEFAULT_SEED:
        return None
    refs = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    return refs[f"{wl.name}/{wl.size}"]


def _vm_hwm_kb(pid) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of each live pool worker."""
    pids = ["self"] + [c.pid for c in multiprocessing.active_children()]
    return sum(_vm_hwm_kb(p) for p in pids) / 1024.0


def host_fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "NLD_THREADS": os.environ.get("NLD_THREADS"),
        "threads_env": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _untraced(args, wlmod, wl, setup_s):
    setup = [setup_s] + _setup_samples(args)
    latencies, walls, outputs = _measure(wl, args.seconds, wl.workers)
    rss = _peak_rss_mb()
    failed = _check(wlmod, wl, outputs, _reference(wlmod, wl))
    wall = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "wall_s": (wall, "s"),
        "pairs_per_s": (wl.pairs_per_pass / wall, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {"setup_samples": setup, "op_latencies": latencies, "pass_walls": walls}
    return len(outputs), failed, metrics, extra


def _traced(args, wlmod, wl):
    import spans

    tracer = spans.Tracer()
    spans.install(tracer, wlmod.MODULES)
    tracer.active = True
    latencies, walls, outputs = _measure(wl, args.seconds, 1, tracer)
    tracer.active = False
    n_ops = len(outputs)
    attempted = n_ops
    failed = _check(wlmod, wl, outputs, _reference(wlmod, wl))

    efficiency = 0.0
    if wl.workers > 1:
        # the same pass through the pool, untraced; its totals must equal the
        # traced serial ones (criterion 10)
        _, (pooled_wall,), pooled = _measure(wl, 0.0, wl.workers)
        efficiency = tracer.seconds("energy") / len(walls) / (wl.workers * pooled_wall)
        for (i, a), (_, b) in zip(pooled, outputs):
            attempted += 1
            if (isinstance(a, Exception) or isinstance(b, Exception)
                    or not abs(a.value - b.value) <= wlmod.PARITY_TOL * abs(b.value)):
                failed += 1
                print(f"check failed: {wl.name} op {wl.ops[i].label}: pooled {a!r} "
                      f"vs serial {b!r}", file=sys.stderr)

    # tracing overhead: the pass's last op (past any first-call costs) again,
    # untraced and serial
    last, _, rerun = _measure(replace(wl, ops=wl.ops[-1:]), 0.0, 1)
    attempted += 1
    failed += isinstance(rerun[0][1], Exception)

    s = tracer.seconds
    totals = {
        "fields.contains.s": s("fields.contains"),
        "fields.contains.calls": tracer.calls("fields.contains"),
        "fields.contains.points": tracer.count("fields.contains"),
        "fields.delta_dot_h.s": s("fields.delta_dot_h"),
        "fields.delta_dot_h.pairs": tracer.count("fields.delta_dot_h"),
        "fields.sym_gradient.s": s("fields.sym_gradient"),
        "fields.ground_truth.s": s("fields.ground_truth"),
        "energy.self.s": tracer.self_seconds("energy"),
        "energy.calls": tracer.calls("energy"),
        "symnorm.make_sphere_rule.s": s("symnorm.make_sphere_rule"),
        "symnorm.qp_pow_eigs.s": s("symnorm.qp_pow_eigs"),
        "mollifiers.s": s("mollifiers"),
        "measures.ground_truth_measure.s": s("measures.ground_truth_measure"),
        "measures.pair.s": s("measures.pair"),
        "measures.weakstar_gap.self.s": tracer.self_seconds("measures.weakstar_gap"),
        "lab.run_sweep.self.s": tracer.self_seconds("lab.run_sweep"),
        "lab.rate_estimate.s": s("lab.rate_estimate"),
        "lab.report_write.s": s("lab.report_write"),
        "lab.run_weakstar.self.s": tracer.self_seconds("lab.run_weakstar"),
        "cli.main.self.s": tracer.self_seconds("cli.main"),
    }
    # per op, averaged over the traced ops
    metrics = {k: (v / n_ops, "s" if k.endswith(".s") else "count")
               for k, v in totals.items()}
    metrics.update({
        "energy.tiles": (sum(op.tiles for op in wl.ops) / len(wl.ops), "count"),
        "energy.pairs": (wl.pairs_per_pass / len(wl.ops), "count"),
        "energy.pool.efficiency": (efficiency, "ratio"),
        "energy.pool.task_bytes": (max(op.task_bytes for op in wl.ops), "bytes"),
        "trace.overhead_frac": (latencies[-1] / last[0] - 1.0, "ratio"),
    })
    tracer.write(OUT / f"spans-{wl.name}-seed{wl.seed}-{wl.size}.jsonl")
    extra = {"op_latencies": latencies, "pass_walls": walls, "spans": len(tracer.spans)}
    return attempted, failed, metrics, extra


def _run(args) -> int:
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    wlmod = None
    try:
        wlmod, wl, setup_s = _setup(args.workload, args.seed, args.size, workdir)
        if args.trace:
            attempted, failed, metrics, extra = _traced(args, wlmod, wl)
        else:
            attempted, failed, metrics, extra = _untraced(args, wlmod, wl, setup_s)
    finally:
        if wlmod is not None:
            wlmod.stop_pools()
        shutil.rmtree(workdir, ignore_errors=True)
    host = host_fingerprint()
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "seconds": args.seconds, "host": host,
              "failed_frac": failed / attempted, **extra,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("host " + json.dumps(host))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          + " ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
          + f" failed_frac={failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def _each(traces, size: str, seconds: float, seed: int) -> int:
    """Every workload in its own process; echoes its summary and checks its result line."""
    spec = _spec()
    ok = True
    for wl in spec["workloads"]:
        for trace in traces:
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                 "--size", size],
                capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines() or ["{}"]
            result = json.loads(lines[-1])
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            good = (proc.returncode == 0 and result.get("correct") is True
                    and set(result) == {"correct", "attempted", "failed", "metrics"}
                    and got == want
                    and all(isinstance(v["value"], (int, float))
                            for v in result["metrics"].values()))
            if len(lines) > 1:
                print(lines[-2])
            print(f"{wl['name']} trace={trace}: {'ok' if good else 'FAILED'}")
            if not good:
                print(proc.stderr[-4000:], file=sys.stderr)
                ok = False
    return 0 if ok else 1


def _record_reference() -> int:
    """Write reference.json: serial default-seed outputs of every workload and size."""
    refs = {}
    for size in ("full", "tiny"):
        for name in _names():
            with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                wlmod, wl, _ = _setup(name, 0, size, Path(tmp))
                refs[f"{name}/{size}"] = [wl.summarize(op.run(1)) for op in wl.ops]
                wlmod.stop_pools()
                print(f"recorded {name}/{size}", file=sys.stderr)
    (BENCH_DIR / "reference.json").write_text(json.dumps(refs, indent=1) + "\n",
                                              encoding="utf-8")
    return 0


def _names():
    return [w["name"] for w in _spec()["workloads"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, every workload")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json from the current sources")
    args = ap.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return _each((0, 1), "tiny", 1, 0)
    if args.record_reference:
        return _record_reference()
    if args.workload == "all":
        return _each((args.trace,), args.size, args.seconds, args.seed)
    if args.workload not in _names():
        ap.error(f"--workload must be one of {_names()}")
    if args.setup_probe:
        return _setup_probe(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
