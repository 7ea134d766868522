"""spiderlab benchmark: CLI workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload mc-small-n --seed 1 --seconds 30 --trace 0

Run it from a checkout that holds ``src/spiderlab``; nothing needs building.
A workload runs in this one process as a closed loop with a single client:
each job starts when the previous one has finished.  A job is an in-process
call of ``spiderlab.cli.main(argv)`` writing to a scratch file under
``bench/out/``, so a job's time is the CLI's wall time without interpreter
start; the import a fresh interpreter pays is measured on its own as
``setup_s``.  Every job is bracketed by timings of a fixed reference
loop, and ``job_ref.p50`` reports job time in units of that loop's time,
so that the host's drifting speed cancels out.  Every job's output is
checked (see ``checks.py``), and each job's ``--seed`` is derived from
``--seed``, so a seed fixes the inputs.

``--trace 0`` measures jobs with tracing off and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced jobs on the same
inputs and reports the per-layer metrics: per-job call counts and self
times of the layers (median over traced jobs), the import breakdown, and
the tracing overhead.  Both print a table, then one JSON line with the
metrics named in BENCHMARK.json, and save a full record with the run's
metadata to ``bench/out/``; ``bench/baseline.py`` collects those records.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

if __name__ == "__main__" and not (SRC / "spiderlab" / "__init__.py").is_file():
    sys.exit(f"bench/run.py: no spiderlab sources under {SRC}; run it from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spiderlab.cli as cli  # noqa: E402
from spiderlab import NAMED_INDICES, index_name, montecarlo  # noqa: E402
from spiderlab import verify as verify_mod  # noqa: E402

from checks import SPOT_CHECK_STRIDE, check_clt, check_simulate, check_verify  # noqa: E402
from tracing import Tracer, median_layer, per_job_layers  # noqa: E402

SETUP_IMPORTS = 7      # fresh interpreters timed for setup_s
IMPORTTIME_RUNS = 3    # `python -X importtime` children in a traced run
MIN_BEYOND = 10        # samples a percentile needs beyond it to be reported
REFERENCE_REPEATS = 4  # reference loops per timing, 25-45 ms


# -- workloads ---------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int                                   # --threads of a timed job
    argv: Callable[[int, str, int], list]          # (job seed, out path, threads)
    check: Callable[[int, str], list]              # (exit code, output) -> problems
    replicates: Optional[int] = None               # Monte Carlo replicates per job
    trees: int = 0                                 # trees grown per job
    indices: int = 0                               # indices a Monte Carlo job evaluates


MC_N, MC_P, MC_R = 201, 0.4, 2000
MC_INDICES = tuple(index_name(spec) for spec in NAMED_INDICES)
CLT_INDEX, CLT_N, CLT_P, CLT_R = "zagreb", 5000, 0.5, 20_000   # CLT_R is the CLI default
VERIFY_TREES = 10_000                                          # random trees at --level full


def _mc_argv(seed, out, threads):
    return ["simulate", "--model", f"uniform:{MC_P}", "--n", str(MC_N),
            "--replicates", str(MC_R), "--indices", ",".join(MC_INDICES),
            "--threads", str(threads), "--seed", str(seed), "--out", out]


def _clt_argv(seed, out, threads):
    return ["clt", "--index", CLT_INDEX, "--p", str(CLT_P), "--n", str(CLT_N),
            "--threads", str(threads), "--seed", str(seed), "--out", out]


def _verify_argv(seed, out, threads):
    return ["verify", "--level", "full", "--seed", str(seed), "--out", out]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="mc-small-n",
            why="small-n Monte Carlo: stream keying, the per-replicate loop, the 1% "
                "audit and the 7-index reduced pass dominate; no pool, no exact analytics",
            threads=1,
            argv=_mc_argv,
            check=lambda code, text: check_simulate(code, text, MC_N, MC_P, MC_INDICES, MC_R),
            replicates=MC_R, trees=MC_R, indices=len(MC_INDICES),
        ),
        Workload(
            name="clt-large-n",
            why="the documented clt example at the C5 horizon: uniform draws and the "
                "grow_legs bincount dominate, plus pool start-up and chunk pickling",
            threads=2,
            argv=_clt_argv,
            check=lambda code, text: check_clt(code, text, CLT_INDEX, CLT_N, CLT_P, CLT_R),
            replicates=CLT_R, trees=CLT_R, indices=1,
        ),
        Workload(
            name="verify-full",
            why="the exact side: rational pmf sums, catalog formulas, eval_reduced and "
                "eval_direct on grown trees, with no stream keying at scale and no pool",
            threads=1,
            argv=_verify_argv,
            check=check_verify,
            trees=VERIFY_TREES,
        ),
    )
}


def job_seeds(workload_seed: int):
    """Endless, reproducible job seeds drawn from the workload seed."""
    rng = random.Random(workload_seed)
    while True:
        yield rng.randrange(2 ** 31)


# -- reference loop --------------------------------------------------------------
#
# A shared host's speed can drift by up to 2x within minutes.  A fixed loop,
# timed before and after each job, drifts with the job, while a change to
# spiderlab leaves it alone.  It mixes the two kinds of work the workloads
# do: interpreter-bound rational and dict code, and large-array numpy.

_REFERENCE_RNG = np.random.default_rng(0)


def reference_loop() -> None:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    counts = {}
    for i in range(20_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for _ in range(8):
        u = _REFERENCE_RNG.random(25_000)
        np.bincount((u * 5000).astype(np.int64), minlength=5000)


def reference_seconds(repeats: int = REFERENCE_REPEATS) -> float:
    """Seconds per reference loop, over ``repeats`` loops in a row."""
    start = time.perf_counter()
    for _ in range(repeats):
        reference_loop()
    return (time.perf_counter() - start) / repeats


def relative_times(jobs: list[float], refs: list[float]) -> list[float]:
    """Each job's time over the median of the two reference timings before
    it and the two after it (fewer at the ends).  ``refs[i]`` is taken just
    before job ``i`` and ``refs[i + 1]`` just after it.  A median, because a
    single timing can catch a passing stall, such as a worker pool's exit."""
    assert len(refs) == len(jobs) + 1
    return [job / statistics.median(refs[max(0, i - 1):i + 3]) for i, job in enumerate(jobs)]


# -- measurement helpers -----------------------------------------------------

def tail_percentile(values, q: float, min_beyond: int = MIN_BEYOND):
    """Nearest-rank q-quantile of ``values``, or None when fewer than
    ``min_beyond`` samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(count: int = SETUP_IMPORTS) -> list[float]:
    """Seconds a fresh interpreter spends on ``import spiderlab``."""
    code = ("import time; t = time.perf_counter(); import spiderlab; "
            "print(repr(time.perf_counter() - t))")
    out = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.strip()))
    return out


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def import_breakdown(stderr: str) -> dict:
    """Import seconds of numpy, scipy and spiderlab from ``python -X
    importtime`` output.

    ``spiderlab`` is the whole ``import spiderlab``.  A module's own time
    goes to numpy or scipy when its outermost enclosing module (itself
    included) from either package belongs to it, so the two are disjoint
    and each is what the import would lose without that package, including
    the standard-library modules it pulls in.
    """
    lines = [(len(m.group(3)) // 2, m.group(4), int(m.group(1)), int(m.group(2)))
             for m in map(_IMPORTTIME.match, stderr.splitlines()) if m]
    out = {"numpy": 0, "scipy": 0, "spiderlab": 0}
    stack = []   # (depth, owning package) of the enclosing modules
    # importtime prints a module after the modules it imported, so the
    # reversed lines list every module before the ones it encloses.
    for depth, name, own, cumulative in reversed(lines):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        owner = stack[-1][1] if stack else None
        top = name.split(".", 1)[0]
        if owner is None and top in ("numpy", "scipy"):
            owner = top
        stack.append((depth, owner))
        if owner:
            out[owner] += own
        if name == "spiderlab":
            out["spiderlab"] = cumulative
    return {key: value / 1e6 for key, value in out.items()}


def measure_imports(count: int = IMPORTTIME_RUNS) -> dict:
    runs = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spiderlab"],
                              env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        runs.append(import_breakdown(done.stderr))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and its largest child's, in MB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload: Workload, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "loop": "closed, one client, one job at a time",
    }


# -- jobs ----------------------------------------------------------------------

@dataclass
class Job:
    seconds: float
    ok: bool
    output: bytes


def run_job(workload: Workload, seed: int, threads: int, out: Path, main=None) -> Job:
    """One CLI call; the timed span is ``main(argv)`` alone."""
    main = main or cli.main
    argv = workload.argv(seed, str(out), threads)
    out.unlink(missing_ok=True)
    err = io.StringIO()
    start = time.perf_counter()
    output = b""
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv)
        elapsed = time.perf_counter() - start
        output = out.read_bytes()
        problems = workload.check(code, output.decode())
    except Exception:
        elapsed = time.perf_counter() - start
        problems = ["exception:\n" + traceback.format_exc()]
    if problems:
        print(f"job failed: spiderlab {' '.join(argv)}\n  " + "\n  ".join(problems)
              + "\n  stderr: " + err.getvalue(), file=sys.stderr)
    return Job(elapsed, not problems, output)


def _metric(value, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def timed_run(workload: Workload, seed: int, seconds: int) -> dict:
    """End-to-end metrics with tracing off."""
    out = OUT / f"job-{workload.name}.out"
    setup = measure_setup()
    seeds = job_seeds(seed)
    reference_seconds()  # warm-up: the first loops run with cold caches
    jobs, refs = [], [reference_seconds()]
    deadline = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < deadline:
        jobs.append(run_job(workload, next(seeds), workload.threads, out))
        refs.append(reference_seconds())
    attempted, failed = len(jobs), sum(not j.ok for j in jobs)
    if workload.threads > 1:
        # Determinism guard: the first job again with one worker must give
        # byte-identical output.  Untimed.
        first_seed = next(job_seeds(seed))
        guard = run_job(workload, first_seed, 1, OUT / f"guard-{workload.name}.out")
        attempted += 1
        if not guard.ok or guard.output != jobs[0].output:
            failed += 1
            print("job failed: --threads 1 output differs from --threads "
                  f"{workload.threads} output for job seed {first_seed}", file=sys.stderr)

    times = [j.seconds for j in jobs]
    relative = relative_times(times, refs)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s", samples=len(setup)),
        "job_ref.p50": _metric(statistics.median(relative), "ref", samples=len(relative)),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }
    beyond = len(times) - math.ceil(0.9 * len(times))
    extra = {}
    p90 = tail_percentile(relative, 0.9)
    if p90 is not None:
        extra["job_ref.p90"] = _metric(p90, "ref", samples=len(relative), beyond=beyond)
    extra["job_s.p50"] = _metric(statistics.median(times), "s", samples=len(times))
    p90 = tail_percentile(times, 0.9)
    if p90 is not None:
        extra["job_s.p90"] = _metric(p90, "s", samples=len(times), beyond=beyond)
    extra["reference_s"] = _metric(statistics.median(refs), "s", samples=len(refs))
    if workload.replicates:
        extra["replicates_per_s"] = _metric(workload.replicates * len(times) / sum(times), "1/s",
                                            samples=len(times))
    extra["failed_frac"] = _metric(failed / attempted, "ratio", failed=failed, attempted=attempted)
    extra["job_times"] = times
    extra["reference_times"] = refs
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "extra": extra}


def trace_targets() -> list:
    """(module, imported name, layer) for every call into a layer that the
    workloads make; the calling module's name is what gets rebound."""
    mc, vf = montecarlo, verify_mod
    return [
        (cli, "run_experiment", "montecarlo.run_experiment"),
        (cli, "standardize", "montecarlo.standardize"),
        (cli, "ks_normal", "montecarlo.ks_normal"),
        (mc, "RngStream", "tree.RngStream"),
        (mc, "grow_legs", "tree.grow_legs"),
        (mc, "reduced_values", "indices.reduced_values"),
        (mc, "eval_direct", "indices.eval_direct"),
        (vf, "catalog_oracle_suite", "verify.catalog_oracle_suite"),
        (vf, "direct_reduced_suite", "verify.direct_reduced_suite"),
        (vf, "triangle_suite", "verify.triangle_suite"),
        (vf, "seed_degeneracy_suite", "verify.seed_degeneracy_suite"),
        (vf, "RngStream", "tree.RngStream"),
        (vf, "grow_legs", "tree.grow_legs"),
        (vf, "eval_direct", "indices.eval_direct"),
        (vf, "eval_reduced", "indices.eval_reduced"),
        (vf, "support_pmf", "analytics.support_pmf"),
    ]


# Layers reported with their call count as well as their self time.
COUNTED = ("tree.RngStream", "tree.grow_legs", "indices.reduced_values",
           "indices.eval_direct", "indices.eval_reduced", "analytics.support_pmf")
SELF_ONLY = ("montecarlo.run_experiment", "montecarlo.standardize", "montecarlo.ks_normal",
             "verify.catalog_oracle_suite", "verify.direct_reduced_suite",
             "verify.triangle_suite", "verify.seed_degeneracy_suite", "cli.main")


def traced_run(workload: Workload, seed: int, seconds: int) -> dict:
    """Per-layer metrics.  Each round runs one job untraced, the same job
    traced, and, for a Monte Carlo workload, the same job with two workers
    untraced.  Traced jobs use one worker, because spans inside forked
    workers are not collected."""
    out = OUT / f"job-{workload.name}.out"
    imports = measure_imports()
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    seeds = job_seeds(seed)
    plain, traced, pooled, ratios = [], [], [], []
    jobs = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        job_seed = next(seeds)
        base = run_job(workload, job_seed, 1, out)
        tracer.job = len(traced)
        with tracer.patched(trace_targets()):
            job = run_job(workload, job_seed, 1, out, main=traced_main)
        jobs += [base, job]
        plain.append(base.seconds)
        traced.append(job.seconds)
        ratios.append(job.seconds / base.seconds)
        if workload.replicates:
            two = run_job(workload, job_seed, 2, out)
            jobs.append(two)
            pooled.append(two.seconds)
    attempted, failed = len(jobs), sum(not j.ok for j in jobs)

    per_job = per_job_layers(tracer.spans)
    metrics = {}
    for name in COUNTED:
        calls, own = median_layer(per_job, name)
        metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics[f"{name}.self_s"] = _metric(own, "s")
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = _metric(median_layer(per_job, name)[1], "s")
    grow_calls = metrics["tree.grow_legs.calls"]["value"]
    metrics["tree.grow_ratio"] = _metric(grow_calls / workload.trees, "ratio")
    spot = 0.0
    if workload.indices:
        site = tracer.site_calls["montecarlo:indices.eval_direct"]
        spot = site / (workload.indices * len(traced))
        audited = -(-workload.replicates // SPOT_CHECK_STRIDE)
        if spot != audited:
            failed += 1
            print(f"job failed: {spot} audited replicates per job, expected {audited}",
                  file=sys.stderr)
    metrics["montecarlo.spot_checks"] = _metric(spot, "count")
    scaling = statistics.median(plain) / (2 * statistics.median(pooled)) if pooled else 0.0
    metrics["montecarlo.scaling_eff"] = _metric(scaling, "ratio")
    for package in ("numpy", "scipy", "spiderlab"):
        metrics[f"import.{package}_s"] = _metric(imports[package], "s")
    metrics["trace.overhead_frac"] = _metric(statistics.median(ratios) - 1.0, "ratio")
    metrics["trace.job_s"] = _metric(statistics.median(traced), "s", samples=len(traced))
    covered = [sum(own for _, own in per_job[j].values()) / t for j, t in enumerate(traced)]
    metrics["trace.self_cover"] = _metric(statistics.median(covered), "ratio")

    spans = OUT / f"spans-{workload.name}-seed{seed}.csv.gz"
    tracer.write(spans)
    extra = {"traced_jobs": len(traced), "spans": len(tracer.spans), "spans_file":
             str(spans.relative_to(ROOT)), "site_calls": dict(tracer.site_calls)}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "extra": extra}


# -- entry point ---------------------------------------------------------------

def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(record: dict) -> None:
    meta = record["metadata"]
    print(f"workload {meta['workload']}  seed {meta['seed']}  trace {meta['trace']}  "
          f"attempted {record['attempted']}  failed {record['failed']}")
    print("metadata " + json.dumps(meta, sort_keys=True))
    rows = dict(record["metrics"])
    rows.update({k: v for k, v in record["extra"].items() if isinstance(v, dict) and "unit" in v})
    for name, m in rows.items():
        notes = ", ".join(f"{k}={_format(v)}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"  {name:36s} {_format(m['value']):>14s} {m['unit']:6s} {notes}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    run = traced_run if args.trace else timed_run
    record = {"metadata": metadata(workload, args.seed, args.seconds, args.trace),
              **run(workload, args.seed, args.seconds)}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print_table(record)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
