"""Runs benchmark jobs in-process through ``twistgab.cli.main`` and checks them.

A job fails when it exits non-zero, when an exception escapes ``main`` (it is
caught here and recorded with its type, so the run goes on), or when its
report fails an output check:

* an invariant the report states about itself: ``routes_agree`` on every
  classify entry, ``all_families_verified`` and
  ``sampled_iff_checks.agree == total`` on deephole reports, ``verified_mrd``
  on construct reports;
* a covering radius other than n - k on a one-twist t = 0 code (the paper's
  exact radius), for the exhaustive value and for both theorem bounds;
* bytes that differ from another job writing the same report (the same job in
  an earlier pass, or the same sweep at another ``--workers``);
* for the seed the digests were recorded with, a sha256 that differs from the
  recorded one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Job


@dataclass
class JobResult:
    key: str
    kind: str
    seconds: float
    error: str | None = None  # non-zero exit or escaped exception
    problems: list[str] = field(default_factory=list)  # failed output checks
    sha256: str | None = None
    reference_s: float | None = None  # the reference task, timed just before the job

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)

    def to_json(self) -> dict:
        return {"key": self.key, "kind": self.kind, "seconds": self.seconds,
                "error": self.error, "problems": self.problems, "sha256": self.sha256,
                "reference_s": self.reference_s}


def report_problems(job: Job, report: dict) -> list[str]:
    """Output checks on one parsed report; an empty list means it passed."""
    command = job.argv[0]
    out = []
    if command == "classify":
        bad = [i for i, e in enumerate(report["entries"]) if e.get("routes_agree") is not True]
        if bad or not report["entries"]:
            out.append(f"routes_agree is not true on entries {bad}")
    elif command == "construct":
        if report.get("verified_mrd") is not True:
            out.append("construct report is not verified_mrd")
    elif command == "deephole":
        if report.get("all_families_verified") is not True:
            out.append("all_families_verified is not true")
        checks = report["sampled_iff_checks"]
        if checks["agree"] != checks["total"]:
            out.append(f"sampled_iff_checks agree {checks['agree']} of {checks['total']}")
        if report["rho"]["value"] != job.n_minus_k:
            out.append(f"rho {report['rho']['value']} != n-k = {job.n_minus_k}")
    elif command == "covering":
        r = report["report"]
        values = {"lower_bound": r["lower_bound"]["value"], "upper_bound": r["upper_bound"]["value"]}
        if r["rho"] is not None:
            values["rho"] = r["rho"]["value"]
        for name, value in values.items():
            if value != job.n_minus_k:
                out.append(f"{name} {value} != n-k = {job.n_minus_k}")
    return out


class Runner:
    """Runs jobs one after another and keeps one result per job run."""

    def __init__(self, cli, workdir: Path, recorded: dict[str, str] | None = None):
        self.cli = cli
        self.out_path = workdir / "report.out.json"
        self.recorded = recorded  # report name -> sha256, for the recorded seed only
        self.digests: dict[str, str] = {}  # report name -> first sha256 seen
        self.results: list[JobResult] = []

    def run(self, job: Job) -> JobResult:
        self.out_path.unlink(missing_ok=True)
        argv = [*job.argv, "--out", str(self.out_path)]
        captured = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = self.cli.main(argv)
            if code != 0:
                error = f"exit {code}: {captured.getvalue().strip()[-300:]}"
        except SystemExit as exc:
            error = f"exit {exc.code}: {captured.getvalue().strip()[-300:]}"
        except Exception as exc:  # the run records any escaped exception and goes on
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            error = (f"{type(exc).__name__}: {exc} "
                     f"[raised in {Path(frame.filename).name}:{frame.lineno} {frame.name}]")
        result = JobResult(job.key, job.kind, time.perf_counter() - start, error)
        if error is None:
            self._check(job, result)
        self.results.append(result)
        return result

    def _check(self, job: Job, result: JobResult) -> None:
        data = self.out_path.read_bytes()
        result.sha256 = hashlib.sha256(data).hexdigest()
        try:
            result.problems += report_problems(job, json.loads(data))
        except (ValueError, KeyError, TypeError) as exc:
            result.problems.append(f"malformed report: {type(exc).__name__}: {exc}")
        first = self.digests.setdefault(job.report, result.sha256)
        if first != result.sha256:
            result.problems.append(f"report {job.report} differs from an earlier job's bytes")
        if self.recorded is not None and self.recorded.get(job.report) != result.sha256:
            result.problems.append(f"report {job.report} differs from the recorded digest")
