"""twistgab benchmark: seeded CLI workloads, end-to-end metrics, a traced run per layer.

    python3 bench/run.py --workload sweep --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, one table

Run from the repository root.  Each job calls ``twistgab.cli.main(argv)``
in-process, taken from ``src/`` of the checkout the script sits in.  The load
is a closed loop: one client, each job starts when the previous one returns.
A run repeats whole passes of the workload's job list and stops at the pass
boundary nearest to ``--seconds``.

Before timing, the run warms up with one job of each kind.  A fixed reference
task (``reference.py``) runs before every job; the end-to-end job times are
reported normalized to the machine speed it measures, next to the raw wall
times.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run makes one untraced pass, then
the same pass traced, and reports the per-layer metrics.  Each run also writes
a record with the machine description, every job's time, outcome and report
sha256 to ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"

DEFAULT_SEED = 1  # the seed bench/digests.json was recorded with
SETUP_REPS = 10  # before the first job, and as often again after the last

from workloads import WORKLOADS, build  # noqa: E402
from runner import Runner  # noqa: E402
from tracer import Tracer  # noqa: E402
from reference import normalized, reference_s  # noqa: E402


def machine_record(seed: int) -> dict:
    import numpy

    cpu = l3 = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def fresh_import():
    """Import twistgab (and its CLI) from src/, executing its modules anew."""
    for name in [n for n in sys.modules if n == "twistgab" or n.startswith("twistgab.")]:
        del sys.modules[name]
    tg = importlib.import_module("twistgab")
    importlib.import_module("twistgab.cli")
    if not Path(tg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported twistgab from {tg.__file__}, not from {SRC}")
    return tg


def run_pass(runner: Runner, jobs, tracer: Tracer | None = None) -> float:
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.key
        reference = reference_s()
        runner.run(job).reference_s = reference
    return time.perf_counter() - start


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_workload(args) -> dict:
    import numpy  # noqa: F401  (loaded once, so every set-up repetition below costs the same)

    work = OUT / f"work-{args.workload}-{os.getpid()}"

    def set_up(workdir):
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        tg = fresh_import()
        jobs = build(args.workload, args.seed, tg, workdir)
        return time.perf_counter() - start, tg, jobs

    setup_s = []
    for _ in range(SETUP_REPS):
        seconds, tg, jobs = set_up(work)
        setup_s.append(seconds)

    recorded = None
    if args.seed == DEFAULT_SEED and not args.write_digests:
        recorded = json.loads(DIGESTS.read_text())["workloads"][args.workload]
    runner = Runner(sys.modules["twistgab.cli"], work, recorded)
    try:
        # one job of each kind, untimed: lazy set-up in numpy and the allocator's
        # state after the first large array (its mmap threshold) settle here
        warm_up = list({job.kind: job for job in reversed(jobs)}.values())
        run_pass(runner, warm_up)
        if args.trace:
            untraced = run_pass(runner, jobs)
            tracer = Tracer(tg)
            tracer.install()
            try:
                passes = [untraced, run_pass(runner, jobs, tracer)]
            finally:
                tracer.uninstall()
        else:
            passes = []
            while not passes or sum(passes) + passes[-1] / 2 <= args.seconds:
                passes.append(run_pass(runner, jobs))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # set up as often again after the passes, so that the median spans the run
        for _ in range(SETUP_REPS):
            setup_s.append(set_up(work / "again")[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = runner.results
    timed = results[len(warm_up):]
    failed = [r for r in results if r.failed]
    record = {"machine": machine_record(args.seed), "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "setup_s": setup_s, "warm_up_jobs": len(warm_up), "pass_s": passes}
    if args.trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (passes[1] - passes[0], "s")
        record["functions"] = tracer.functions()
        with open(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        times = [r.seconds for r in timed]
        norm = normalized(times, [r.reference_s for r in timed])
        metrics = {
            "norm_job_s.p50": (statistics.median(norm), "s"),
            "norm_job_s.p90": (p90(norm), "s"),
            "norm_jobs_per_s": (len(norm) / sum(norm), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_s), "s"),
            "ok_frac": (1 - len(failed) / len(results), "ratio"),
        }
        record["wall"] = {
            "job_s.p50": (statistics.median(times), "s"),
            "job_s.p90": (p90(times), "s"),
            "jobs_per_s": (len(times) / (sum(passes) - sum(r.reference_s for r in timed)), "1/s"),
            "reference_s.p50": (statistics.median(r.reference_s for r in timed), "s"),
        }
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["failed_frac"] = len(failed) / len(results)
    record["errors"] = sorted({r.error.split(":")[0] for r in failed if r.error})
    record["jobs"] = [r.to_json() for r in results]
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.write_digests:
        stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"workloads": {}}
        stored["seed"] = DEFAULT_SEED
        stored["workloads"][args.workload] = dict(sorted(runner.digests.items()))
        DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    print(f"# machine {json.dumps(record['machine'], sort_keys=True)}")
    print(f"# {args.workload} seed {args.seed}: {len(record['pass_s'])} passes, "
          f"{len(results)} jobs, {len(failed)} failed {record['errors']}")
    for r in failed:
        if r.problems:
            print(f"# check failed: {r.key}: {'; '.join(r.problems)}")
    for name, (value, unit) in [*metrics.items(), *record.get("wall", {}).items()]:
        print(f"{args.workload:9s} {name:32s} {value:14.6f} {unit}")
    print(f"{args.workload:9s} {'failed_frac':32s} {record['failed_frac']:14.6f} ratio")
    return {
        "correct": not any(r.problems for r in results),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": record["metrics"],
    }


def run_all(args) -> int:
    """Run every workload in its own process (so peak RSS is per workload)."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            status = 1
        print(f"# {workload}: {json.dumps(result)}", flush=True)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true",
                    help=f"record this run's report digests in {DIGESTS.name} (seed {DEFAULT_SEED} only)")
    args = ap.parse_args(argv)
    if args.write_digests and args.seed != DEFAULT_SEED:
        ap.error(f"--write-digests needs --seed {DEFAULT_SEED}")
    if not (SRC / "twistgab" / "__init__.py").is_file():
        print(f"bench: no twistgab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
