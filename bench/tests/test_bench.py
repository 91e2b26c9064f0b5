"""Tests of the benchmark's own code: workloads, job checks, tracer, output line.

Run from the repository root:  python -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from reference import REFERENCE_S, normalized
from runner import Runner, report_problems
from tracer import Tracer
from workloads import WORKLOADS, Job, build

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli():
    return sys.modules["twistgab.cli"]


def _is_known_defect(job: Job) -> bool:
    return job.kind == "classify-q3-m7"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_each_job_kind(workload, tmp_path):
    """One job of every kind in the pass runs and passes its output checks."""
    tg = run.fresh_import()
    jobs = build(workload, 3, tg, tmp_path)
    assert len({j.key for j in jobs}) == len(jobs)
    firsts = {}
    for job in jobs:
        firsts.setdefault(job.kind, job)
    runner = Runner(_cli(), tmp_path)
    for job in firsts.values():
        result = runner.run(job)
        assert not result.problems, (job.key, result.problems)
        assert (result.error is not None) == _is_known_defect(job), (job.key, result.error)


def test_same_seed_same_inputs(tmp_path):
    tg = run.fresh_import()
    a = build("oddp", 7, tg, tmp_path / "a")
    b = build("oddp", 7, tg, tmp_path / "b")
    c = build("oddp", 8, tg, tmp_path / "c")
    texts = [
        [(tmp_path / d / f"{j.key}.json").read_text() for j in jobs]
        for d, jobs in (("a", a), ("b", b), ("c", c))
    ]
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]
    assert [j.kind for j in a] == [j.kind for j in c]


def test_f3_7_job_counted_as_failed_not_raised(tmp_path):
    tg = run.fresh_import()
    job = next(j for j in build("oddp", 2, tg, tmp_path) if _is_known_defect(j))
    runner = Runner(_cli(), tmp_path)
    result = runner.run(job)
    assert result.failed
    assert result.error.startswith("NotImplementedError")
    assert not result.problems
    assert runner.results == [result]


def test_output_checks_flag_bad_reports():
    job = Job("c", "covering", ("covering",), "c", n_minus_k=2)
    good = {"report": {"rho": {"value": 2}, "lower_bound": {"value": 2}, "upper_bound": {"value": 2}}}
    assert report_problems(job, good) == []
    bad = {"report": {"rho": {"value": 1}, "lower_bound": {"value": 2}, "upper_bound": {"value": 2}}}
    assert report_problems(job, bad) == ["rho 1 != n-k = 2"]
    deep = Job("d", "deephole", ("deephole",), "d", n_minus_k=2)
    report = {"all_families_verified": False, "sampled_iff_checks": {"agree": 3, "total": 4},
              "rho": {"value": 2}}
    assert len(report_problems(deep, report)) == 2
    classify = Job("s", "classify", ("classify",), "s")
    assert report_problems(classify, {"entries": [{"routes_agree": True}, {"routes_agree": False}]})


def test_byte_difference_between_jobs_of_one_report_fails(tmp_path):
    tg = run.fresh_import()
    jobs = build("sweep", 4, tg, tmp_path)
    w1, w2 = jobs[0], jobs[1]
    assert w1.report == w2.report and w1.argv != w2.argv
    runner = Runner(_cli(), tmp_path)
    assert not runner.run(w1).failed
    runner.digests[w1.report] = "0" * 64
    assert "differs from an earlier job" in runner.run(w2).problems[0]


def test_normalized_times_cancel_a_slow_phase():
    """The host runs twice as slow for the second half, the reference task too."""
    seconds = [0.1] * 20 + [0.2] * 20
    reference = [REFERENCE_S] * 20 + [2 * REFERENCE_S] * 20
    assert normalized(seconds, reference) == pytest.approx([0.1] * 40)
    assert normalized([0.3], [REFERENCE_S / 2]) == pytest.approx([0.6])


def _small_spec(tg):
    t = tg.default_tower(2, 1, 4)
    return tg.CodeSpec(t, (1, 2, 4, 8), 2, 0, ((0, 3),))


def test_tracer_sees_wrapped_function_from_every_caller():
    tg = run.fresh_import()
    covering, mrdcheck, cli = tg.covering, tg.mrdcheck, _cli()
    spec = _small_spec(tg)
    u = next(
        [a, b, 0, 0] for a in range(16) for b in range(16)
        if not covering.contains(spec, [a, b, 0, 0])
    )
    originals = (covering.matrix_is_mrd, covering.generator_matrix, cli._COMMANDS["classify"])
    tracer = Tracer(tg)
    tracer.install()
    try:
        assert covering.matrix_is_mrd is mrdcheck.matrix_is_mrd is tg.matrix_is_mrd
        assert covering.matrix_is_mrd is not originals[0]
        assert cli._COMMANDS["classify"] is cli.cmd_classify
        covering.deep_hole_via_extension(u, spec)
        mrdcheck.is_mrd_subspace_criterion(spec)
    finally:
        tracer.uninstall()
    assert (covering.matrix_is_mrd, covering.generator_matrix, cli._COMMANDS["classify"]) == originals
    names = {sid: name for sid, _, _, name, _, _ in tracer.spans}
    callers = {
        (names.get(parent), name) for _, parent, _, name, _, _ in tracer.spans
        if name in ("mrdcheck.matrix_is_mrd", "codes.generator_matrix")
    }
    assert ("covering.deep_hole_via_extension", "mrdcheck.matrix_is_mrd") in callers
    assert ("mrdcheck.is_mrd_subspace_criterion", "mrdcheck.matrix_is_mrd") in callers
    assert ("covering.deep_hole_via_extension", "codes.generator_matrix") in callers
    assert ("mrdcheck.is_mrd_subspace_criterion", "codes.generator_matrix") in callers
    assert tracer.count("mrdcheck.subspaces") > 0
    assert tracer.count("fieldtower.mul") > 0


def _traced(tg, runner, jobs):
    tracer = Tracer(tg)
    tracer.install()
    try:
        run.run_pass(runner, jobs, tracer)
    finally:
        tracer.uninstall()
    return tracer


def test_self_times_of_a_job_sum_to_its_span(tmp_path):
    tg = run.fresh_import()
    jobs = build("sweep", 5, tg, tmp_path)[:2]  # one grid at --workers 1 and 2
    runner = Runner(_cli(), tmp_path)
    tracer = _traced(tg, runner, jobs)
    traced = [r.seconds for r in runner.results]
    spans = tracer.per_span()
    ids = {sid for sid, *_ in tracer.spans}
    for job, wall in zip(jobs, traced):
        # every span of the job hangs below its one cli.main span, pool threads included
        roots = [sid for sid, parent, j, *_ in tracer.spans if j == job.key and parent not in ids]
        assert len(roots) == 1 and spans[roots[0]][0] == "cli.main"
        root_s = spans[roots[0]][2]
        assert root_s <= wall
        if job.argv[-1] == "1":  # one thread: the self times partition the job's span
            mine = [s for name, j, dur, s in spans.values() if j == job.key]
            assert sum(mine) == pytest.approx(root_s, abs=1e-6 * len(mine))
    assert all(j is not None for _, _, j, *_ in tracer.spans)


def test_traced_counts_repeat_for_a_seed(tmp_path):
    tg = run.fresh_import()
    jobs = [j for j in build("subspace", 6, tg, tmp_path) if j.kind != "forbidden-m7"][-6:]
    runner = Runner(_cli(), tmp_path)
    counts = []
    for _ in range(2):
        metrics = _traced(tg, runner, jobs).metrics()
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["mrdcheck.subspaces"] > 0


def _run_script(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_has_every_metric(trace, section):
    proc = _run_script("--workload", "subspace", "--seed", str(run.DEFAULT_SEED),
                       "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_script("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                       cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
