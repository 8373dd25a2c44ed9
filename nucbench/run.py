"""Nucleus-decomposition benchmark: warm decompositions, oracle-checked.

Run from the repository root:

    python3 nucbench/run.py --workload orkut-34 --seed 15 --seconds 20 --trace 0
    python3 nucbench/run.py --workload all

One workload runs in one process, so ``peak_rss_mb`` is that workload's
own high-water mark; ``--workload all`` runs every workload, each in a
child process. The run

1. computes the brute-force oracle (``repro.nucleus.reference``) in a
   child process, so neither its time nor its memory is measured;
2. sets up: generates the graph (and, for Spark, starts the session and
   makes the first warm-up call);
3. calls ``nucleus_decomposition`` with ``experiments._best_config``
   back to back for ``--seconds`` (at least ``MIN_CALLS`` times) and
   checks every result against the oracle-verified one.

Timings are adjusted to a reference machine speed (see ``PROBE_REF_S``;
Spark session start-up is the exception) and raw wall quartiles are
printed alongside. With
``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1``
it alternates untraced and traced calls and reports the per-layer
metrics of ``spans.py``. The last line of standard output is one JSON
object; the exit code is 0 only if every check passed.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "nucbench"

TAIL_BEYOND = 10  # decomp_tail_s: highest percentile with this many calls beyond it
MIN_CALLS = TAIL_BEYOND + 1  # untraced runs only
GEN_REPS = 15  # graph generations timed per run; setup_s takes their median
SPARK_SETUPS = 3  # session starts per run; the first also launches the JVM
SPARK_WARM_CALLS = 4  # untimed calls after set-up, outside setup_s


def _log(msg: str) -> None:
    print(msg, flush=True)


def _metadata(args, w) -> dict:
    from importlib import metadata

    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "workload": w.name,
        "r": w.r,
        "s": w.s,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyspark": version("pyspark"),
    }


# ------------------------------------------------------------------ oracle
def _oracle_main(name: str, seed: int) -> None:
    """Child-process entry: write the reference cores as .npz to stdout."""
    from repro.nucleus.reference import reference_nucleus
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    ref = reference_nucleus(w.graph(seed), w.r, w.s)
    keys = sorted(ref)
    vmat = np.array(keys, dtype=np.int64).reshape(len(keys), w.r)
    core = np.array([ref[k] for k in keys], dtype=np.int64)
    buf = io.BytesIO()
    np.savez(buf, vmat=vmat, core=core)
    sys.stdout.buffer.write(buf.getvalue())


def _oracle(w, seed: int):
    out = subprocess.run(
        [sys.executable, __file__, "--oracle", w.name, "--seed", str(seed)],
        capture_output=True,
        timeout=170,
    )
    if out.returncode != 0:
        raise RuntimeError(f"oracle failed: {out.stderr.decode(errors='replace')[-2000:]}")
    data = np.load(io.BytesIO(out.stdout))
    return data["vmat"], data["core"]


# --------------------------------------------------------------- checking
def _exact(res) -> dict:
    """Counts that must repeat exactly between calls, traced or not."""
    return {
        "rho": res.rho,
        "n_r": len(res.vmat),
        "scliques_discovered": res.counters.scliques_discovered,
        "table_memory_units": res.table_memory_units,
        "max_core": res.max_core,
    }


def _same(res, ref) -> bool:
    """Result equals the verified reference result: cores, rho and counts."""
    return (
        np.array_equal(res.vmat, ref.vmat)
        and np.array_equal(res.core, ref.core)
        and _exact(res) == _exact(ref)
    )


# Machine-speed probe. On a shared host the same call can run 1.6x
# slower while a neighbour is busy, and such phases last from seconds to
# minutes, so raw medians of runs minutes apart differ by up to 40%. A
# fixed dict-and-numpy kernel is timed right before and right after each
# timed step; the step's wall time times PROBE_REF_S / (the faster probe)
# is the step at reference speed. The faster of the two is used because
# the benchmark's own processes can slow one of them (a JVM that has just
# started compiles on every core). PROBE_REF_S is the probe's time on an
# otherwise idle 4-vCPU Xeon (Sapphire Rapids, KVM) box, so adjusted
# seconds read like that box's wall seconds when nothing else runs. The
# probe is part of the benchmark and never changes with the program, so
# a slower program still reads slower.
PROBE_REF_S = 0.0063
_PROBE_ARR = np.random.default_rng(0).integers(0, 1000, 100_000)


def _probe_s() -> float:
    t0 = time.perf_counter()
    d: dict[tuple[int, int], int] = {}
    for i in range(20_000):
        k = (i % 977, i % 131)
        d[k] = d.get(k, 0) + 1
    np.unique(_PROBE_ARR)
    np.sort(_PROBE_ARR)
    return time.perf_counter() - t0


def _timed(fn):
    """(fn(), wall seconds, speed factor), probing before and after."""
    before = _probe_s()
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    return out, dt, PROBE_REF_S / min(before, _probe_s())


def _tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct)."""
    xs = sorted(times)
    i = len(xs) - TAIL_BEYOND - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


# -------------------------------------------------------------- workload
def run_workload(args) -> int:
    from repro.experiments import _best_config
    from repro.nucleus import decomp
    from spans import PER_LAYER, Tracer
    from workloads import SPARK_SLICES, WORKLOADS, spark_conf, spark_status, start_spark, stop_spark

    w = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = w.default_seed
    meta = _metadata(args, w)
    _log("meta " + json.dumps(meta))
    problems: list[str] = []

    t0 = time.perf_counter()
    ovmat, ocore = _oracle(w, args.seed)
    _log(f"oracle: {time.perf_counter() - t0:.2f} s in a child process (not in setup_s)")

    cfg = _best_config(w.r, w.s)
    gen_times = []
    for _ in range(GEN_REPS):
        edges, dt, f = _timed(lambda: w.graph(args.seed))
        gen_times.append(dt * f)
    gen_s = statistics.median(gen_times)

    spark = None
    try:
        if w.spark:
            _log("spark_conf " + json.dumps({**spark_conf(WORK), "spark_slices": SPARK_SLICES}))
            local_ref = decomp.nucleus_decomposition(edges, w.r, w.s, cfg)  # untimed
            cfg.counting, cfg.spark_slices = "spark", SPARK_SLICES
            setups = []
            for _ in range(SPARK_SETUPS):
                if spark is not None:
                    spark.stop()  # keeps the JVM; the next session starts a new SparkContext
                # Raw wall time: the new JVM compiles on every core for a while,
                # which would slow the speed probe itself.
                t0 = time.perf_counter()
                spark = start_spark(SRC, WORK)
                ref = decomp.nucleus_decomposition(edges, w.r, w.s, cfg, spark=spark)
                setups.append(time.perf_counter() - t0)
                if not _same(ref, local_ref):
                    problems.append("spark result differs from local result")
            setup_s = gen_s + statistics.median(setups)
            _log("spark setups (session start + warm-up call): " + " ".join(f"{x:.2f}" for x in setups) + " s")
            for _ in range(SPARK_WARM_CALLS):  # the JVM keeps speeding up over the first calls
                decomp.nucleus_decomposition(edges, w.r, w.s, cfg, spark=spark)
        else:
            ref = decomp.nucleus_decomposition(edges, w.r, w.s, cfg)  # warm-up
            setup_s = gen_s

        # Later calls are compared with ``ref``, so a wrong ``ref`` fails them all.
        ref_ok = np.array_equal(ref.vmat, ovmat) and np.array_equal(ref.core, ocore)
        if not ref_ok:
            problems.append("warm-up cores differ from the brute-force oracle")

        def call():
            """One decomposition: (result, wall seconds, speed factor)."""
            gc.collect()
            return _timed(lambda: decomp.nucleus_decomposition(edges, w.r, w.s, cfg, spark=spark))

        tracer = Tracer()
        if spark is not None:
            tracer.spark_status = spark_status(spark)
        attempted, failed = 1, int(not ref_ok)  # the warm-up call counts
        plain: list[tuple[float, float]] = []  # (wall s, speed factor) per call
        traced: list[tuple[float, float]] = []
        layers: list[dict] = []
        fired: set[str] = set()
        deadline = time.perf_counter() + args.seconds
        min_calls = 1 if args.trace else MIN_CALLS
        while time.perf_counter() < deadline or (len(plain) < min_calls and not failed):
            for traced_call in (False, True) if args.trace else (False,):
                attempted += 1
                try:
                    if traced_call:
                        tracer.reset()
                        try:
                            tracer.install()
                            res, dt, f = call()
                        finally:
                            tracer.uninstall()
                        layers.append(
                            {k: v * f if PER_LAYER[k] == "s" else v for k, v in tracer.summarize(res).items()}
                        )
                        fired |= tracer.fired()
                    else:
                        res, dt, f = call()
                except Exception as exc:  # counted, reported, and fails the run
                    failed += 1
                    problems.append(f"call raised {type(exc).__name__}: {exc}")
                    continue
                if not (ref_ok and _same(res, ref)):
                    failed += 1
                    problems.append("result differs from the oracle-verified result")
                    continue
                (traced if traced_call else plain).append((dt, f))
    finally:
        if spark is not None:
            stop_spark(spark)

    adjusted = [dt * f for dt, f in plain]
    if args.trace:
        missing = sorted(set(w.spans) - fired)
        if missing:
            problems.append(f"declared spans never fired: {missing}")
        metrics = {}
        for name, unit in PER_LAYER.items():
            vals = [d[name] for d in layers if name in d]
            if unit == "count" and len(set(vals)) > 1 and not name.startswith("spark."):
                problems.append(f"count {name} did not repeat: {sorted(set(vals))}")
            median = statistics.median if unit == "s" else statistics.median_low  # counts stay whole
            metrics[name] = (median(vals) if vals else 0, unit)
        if traced and adjusted:
            overhead = statistics.median(dt * f for dt, f in traced) - statistics.median(adjusted)
            metrics["trace.overhead_s"] = (overhead, "s")
        _log(f"calls untraced={len(plain)} traced={len(traced)}")
    else:
        ok = attempted - failed
        tail, pct = _tail(adjusted) if len(adjusted) > TAIL_BEYOND else (float("nan"), float("nan"))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "decomp_s": (statistics.median(adjusted) if adjusted else float("nan"), "s"),
            "decomp_tail_s": (tail, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "ops_ok_frac": (ok / attempted if attempted else 0.0, "ratio"),
        }
        if len(plain) > 1:
            wall = statistics.quantiles([dt for dt, _ in plain], n=4)
            speed = statistics.quantiles([f for _, f in plain], n=4)
            _log(
                f"decomp_s: median of {len(plain)} warm calls, speed-adjusted; raw wall quartiles "
                f"{wall[0]:.4f} / {wall[1]:.4f} / {wall[2]:.4f} s; speed factor quartiles "
                f"{speed[0]:.3f} / {speed[1]:.3f} / {speed[2]:.3f}"
            )
        _log("decomp_s per call: " + " ".join(f"{x:.3f}" for x in adjusted))
        _log(f"decomp_tail_s: p{pct:.1f} of {len(plain)} calls ({TAIL_BEYOND} calls beyond it)")
        _log(
            f"setup_s: median of {GEN_REPS} graph generations"
            + ", speed-adjusted"
            + (f", + median of {SPARK_SETUPS} (SparkSession start + warm-up call), raw wall" if w.spark else "")
        )
        _log("peak_rss_mb: ru_maxrss of this Python process" + (", excluding the Spark JVM" if w.spark else ""))
        _log("exact counts " + json.dumps(_exact(ref)))

    for p in dict.fromkeys(problems):
        print(f"FAIL {p}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        _log(f"{name} = {value:.6g} {unit}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own child process; combined result last."""
    from workloads import WORKLOADS

    status, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            _log(f"[{name}] {line}")
        sys.stderr.write(proc.stderr)
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        status = status or proc.returncode or (0 if res["correct"] else 1)
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined), flush=True)
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=None, help="graph seed (default: the workload's)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--oracle", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "repro" / "nucleus" / "decomp.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    if args.oracle:
        _oracle_main(args.oracle, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
