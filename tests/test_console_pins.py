"""One table of console cases: every ``twistgab`` run whose exit code, report
bytes or report values the project pins, with the same check for each.

A case holds its argv, its expected exit code, the values the projection of
its command must give and, where one is pinned, the sha256 of its report, or
the error a refused run must write.  An argv entry that is not a string is an
input file: bytes are written as they are, any other value as JSON, and the
entry is replaced by the file's path.  Every case that exits 0 runs a second
time with ``--out FILE``, and the file must hold the bytes its stdout held.

Two drivers run the table through :func:`run_case`:

- pytest runs every case in process through ``cli.main``;
- ``python tests/test_console_pins.py`` runs every case through the
  ``twistgab`` found on PATH (the installed console script, which pytest and
  the bench never run), at most 20 s per call, and exits 1 if any case fails.
"""

import hashlib
import io
import json
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

from twistgab.cli import main
from twistgab.fieldtower import default_tower


class Case(NamedTuple):
    argv: list
    expect: Optional[dict] = None  # the projection of an exit-0 report
    exit: int = 0
    sha256: Optional[str] = None
    # a refused run's stderr line; {argv[i]} is the path of the input at argv[i]
    message: Optional[str] = None


def _classify(report: dict) -> dict:
    entries = report["entries"]
    return {
        "entries": len(entries),
        "routes_agree": all(e["routes_agree"] is True for e in entries),
        "labels": dict(Counter(e["hamming_class"]["label"] for e in entries)),
        "mrd": sum(e["report"]["is_mrd"] for e in entries),
        "nmds": sum(e["report"]["is_nmds"] for e in entries),
    }


# the values of a report that a case pins, one fixed function per command
PROJECTIONS = {
    "classify": _classify,
    "forbidden": lambda r: {
        name: r[name]["size"] for name in ("omega_one", "omega_one_prime", "ratio_set") if name in r
    } | {name: r[name] for name in ("omega_witness", "certifies_non_mrd") if name in r},
    "construct": lambda r: {"verified_mrd": r["verified_mrd"] is True},
    "covering": lambda r: {"rho": r["report"]["rho"]},
    "deephole": lambda r: {
        "rho": r["rho"],
        "all_families_verified": r["all_families_verified"] is True,
        "sampled_iff_checks": r["sampled_iff_checks"],
    },
}


def classified(entries: int, labels: dict, mrd: int = 0, nmds: int = 0) -> dict:
    return {"entries": entries, "routes_agree": True, "labels": labels, "mrd": mrd, "nmds": nmds}


def exact_rho(value: int) -> dict:
    return {"value": value, "method": "exhaustive"}


def deep_holes(rho: int, samples: int) -> dict:
    return {"rho": exact_rho(rho), "all_families_verified": True,
            "sampled_iff_checks": {"agree": samples, "total": samples}}


VERIFIED_MRD = {"verified_mrd": True}


def unit(rows: int, cols: int) -> list:
    return [[int(i == j) for j in range(cols)] for i in range(rows)]


F16 = {"p": 2, "e": 1, "m": 4, "top_modulus": [1, 1, 0, 0, 1]}
F32 = {"p": 2, "e": 1, "m": 5}
F128 = {"p": 2, "e": 1, "m": 7}
F256 = {"p": 2, "e": 1, "m": 8}
F2_16 = {"p": 2, "e": 1, "m": 16}
F34 = {"p": 3, "e": 1, "m": 4}
F81_OVER_F9 = {"p": 3, "e": 2, "m": 2}
F125 = {"p": 5, "e": 1, "m": 3}

CODE16 = {"alpha": unit(4, 4), "k": 2, "h": 0, "twists": [{"t": 0, "eta": [0, 1, 0, 0]}]}
CODE32 = {"alpha": unit(5, 5), "k": 2, "h": 0, "twists": [{"t": 0, "eta": [0, 1, 0, 0, 0]}]}
ONE32 = {"alpha": unit(5, 5), "k": 2, "h": 0, "ts": [0], "etas": [[[0, 1, 0, 0, 0]]]}
CODE256 = {"alpha": unit(4, 8), "k": 2, "h": 0,
           "twists": [{"t": 0, "eta": [0, 1, 0, 0, 0, 0, 0, 0]}]}
CODE128 = {"alpha": unit(7, 7), "k": 3, "h": 0,
           "twists": [{"t": 0, "eta": [0, 1, 0, 0, 0, 0, 0]}]}
CODE34 = {"alpha": unit(3, 4), "k": 1, "h": 0, "twists": [{"t": 0, "eta": [0, 1, 0, 0]}]}
# a sum-product-free task over F_16 < F_256: alpha is an F_2 basis of F_16, and the etas y,
# b y, b' y (b, b' in F_16^*) are 1-sum-product free over F_16
SPF256 = {
    "mode": "sum-product-free", "s": 4, "k": 1, "h": 0, "ts": [0, 1, 2],
    "etas": [[0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0, 0], [1, 0, 0, 1, 1, 1, 1, 0]],
    "alpha": [[1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0, 0, 0],
              [0, 0, 0, 0, 1, 0, 1, 0], [0, 0, 0, 0, 1, 1, 0, 1]],
}


def _spf_task_over_f2_16() -> dict:
    """Four sum-product-free etas over F_256 < F_2^16 (n=8 k=4): alpha is 1,
    b, ..., b^7 for b = g^257, which generates F_256^*, and the etas are y,
    b y, b^2 y, b^3 y."""
    t = default_tower(2, 1, 16)
    b = t.pow_(t.generator, 257)
    return {"mode": "sum-product-free", "s": 8, "k": 4, "h": 0, "ts": [0, 1, 2, 3],
            "alpha": [t.elements_to_json(t.pow_(b, i)) for i in range(8)],
            "etas": [t.elements_to_json(t.mul(t.pow_(b, i), 2)) for i in range(4)]}


CASES = {
    # the README's F_16 example through every command
    "classify-F16": Case(["classify", "--field", F16, "--code", CODE16],
                         classified(1, {"MDS": 1})),
    "forbidden-F16": Case(["forbidden", "--field", F16, "--code", CODE16],
                          {"omega_one": 6, "omega_one_prime": 6, "ratio_set": 15}),
    # two twists, (0, y) and (1, y + 1) at k = 1: forbidden gives the first
    # k-subset whose Omega scalar vanishes, checked against the column minors of G
    "forbidden-F16-two-twists": Case(
        ["forbidden", "--field", F16, "--code",
         {**CODE16, "k": 1, "twists": [{"t": 0, "eta": [0, 1, 0, 0]},
                                       {"t": 1, "eta": [1, 1, 0, 0]}]}],
        {"omega_witness": [0], "certifies_non_mrd": True}),
    # an explicit top modulus that Rabin's test refuses: trial division names its factor
    "classify-reducible-modulus": Case(
        ["classify", "--field", {**F16, "top_modulus": [1, 0, 1, 0, 1]}, "--code", CODE16],
        exit=2,
        message="error: top_modulus [1, 0, 1, 0, 1] is reducible over F_2: factor [1, 1, 1] found"),
    "covering-F16": Case(["covering", "--field", F16, "--code", CODE16], {"rho": exact_rho(2)}),
    "deephole-F16": Case(["deephole", "--seed", "7", "--field", F16, "--code", CODE16],
                         deep_holes(2, 63)),
    # a sample past the codeword cap is refused before any draw
    "deephole-F16-sample-past-cap": Case(
        ["deephole", "--sample", "1000000000", "--field", F16, "--code", CODE16], exit=3),
    # a two-twist code lies outside the one-twist t = 0 family: deephole
    # refuses it even when it asks for no family and no sample
    "deephole-F16-two-twists": Case(
        ["deephole", "--grid", "0", "--sample", "0", "--field", F16, "--code",
         {**CODE16, "twists": [{"t": 0, "eta": [0, 1, 0, 0]}, {"t": 1, "eta": [1, 1, 0, 0]}]}],
        exit=2),
    # JSON nested past the decoder's recursion limit is an input error
    "classify-nested-json-field": Case(
        ["classify", "--field", b"[" * 200_000, "--code", CODE16], exit=2),
    # inputs are UTF-8 whatever the locale: bytes that do not decode (here a
    # UTF-16 BOM, which json.loads of bytes would accept) and a UTF-8 BOM are
    # input errors that name the file
    "covering-undecodable-code": Case(
        ["covering", "--field", F16, "--code", b"\xff\xfe{"], exit=2,
        message="error: cannot read JSON from {argv[4]}: 'utf-8' codec can't decode byte 0xff"
                " in position 0: invalid start byte"),
    "classify-bom-field": Case(
        ["classify", "--field", b"\xef\xbb\xbf" + json.dumps(F16).encode(), "--code", CODE16],
        exit=2, message="error: cannot read JSON from {argv[2]}: Unexpected UTF-8 BOM"),
    # a nested construction over F_4 < F_16: alpha = (1, y^5) spans F_4, eta =
    # y lies outside it; construct re-checks it by mrd_membership_multi
    "construct-F4<F16": Case(
        ["construct", "--field", F16, "--task",
         {"mode": "nested", "degrees": [2], "etas": [[0, 1, 0, 0]],
          "alpha": [[1, 0, 0, 0], [0, 1, 1, 0]], "k": 1, "h": 0, "ts": [0]}],
        VERIFIED_MRD),
    "construct-spf-F16<F256": Case(["construct", "--field", F256, "--task", SPF256],
                                   VERIFIED_MRD),
    # the same task with ts one entry short is an input error
    "construct-spf-F16<F256-ts-short": Case(
        ["construct", "--field", F256, "--task", {**SPF256, "ts": [0, 1]}], exit=2),
    # the sum-product test is one F_2 rank, and mrd_membership_multi re-checks
    # the code over its [8, 4]_2 subspaces
    "construct-spf-F256<F2^16": Case(
        ["construct", "--field", F2_16, "--task", _spf_task_over_f2_16()],
        VERIFIED_MRD),
    # every eta of F_32 (n=5 k=2, h in {0, 1}: 62 specs), with a subspaces cap
    # of one spec's [5, 2]_2 = 155: the subspace route walks the generator
    # stack in stacks that fit the cap
    "sweep-F32-k2-cap155": Case(
        ["classify", "--field", F32, "--sweep",
         {"alpha": unit(5, 5), "k": 2, "h": [0, 1], "ts": [0], "etas": "all"},
         "--budget-subspaces", "155"],
        classified(62, {"MDS": 43, "NMDS": 19}, nmds=19)),
    # every eta of F_81 with F_q = F_9 (odd p, e = 2): alpha = (1, y), n=2 k=1
    "sweep-F9<=F81": Case(
        ["classify", "--field", F81_OVER_F9, "--sweep",
         {"alpha": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "k": 1, "h": 0, "ts": [0],
          "etas": "all"}],
        classified(80, {"MDS": 78, "NMDS": 2}, mrd=70, nmds=2)),
    # every eta of F_32 with k=3 and h in {0, 1, 2} (93 specs): at the middle
    # h = 1 the Omega theorem confirms AMDS only, and the enumeration finds
    # those codes NMDS, so the AMDS rule is exercised
    "sweep-F32-k3": Case(
        ["classify", "--field", F32, "--sweep",
         {"alpha": unit(5, 5), "k": 3, "h": [0, 1, 2], "ts": [0], "etas": "all"}],
        classified(93, {"MDS": 63, "NMDS": 20, "AMDS": 10}, nmds=30)),
    # the codeword cap counts the code's 33 and the dual's 1057 message classes
    # together, for --code as for a one-spec sweep: both refuse a cap of 1089
    # and both report at 1090
    "classify-F32-cap1089": Case(
        ["classify", "--field", F32, "--code", CODE32, "--budget-codewords", "1089"], exit=3),
    "classify-F32-cap1090": Case(
        ["classify", "--field", F32, "--code", CODE32, "--budget-codewords", "1090"],
        classified(1, {"MDS": 1})),
    "sweep-F32-one-spec-cap1089": Case(
        ["classify", "--field", F32, "--sweep", ONE32, "--budget-codewords", "1089"], exit=3),
    "sweep-F32-one-spec-cap1090": Case(
        ["classify", "--field", F32, "--sweep", ONE32, "--budget-codewords", "1090"],
        classified(1, {"MDS": 1})),
    # a one-twist F_2^7 code, n=7 k=3: its 11 811 subspaces span 35 pivot sets,
    # so the subspace routes eliminate many blocks in one run
    "classify-F2^7": Case(["classify", "--field", F128, "--code", CODE128],
                          classified(1, {"MDS": 1})),
    "forbidden-F2^7": Case(["forbidden", "--field", F128, "--code", CODE128],
                           {"omega_one": 32, "omega_one_prime": 32, "ratio_set": 127}),
    # 2^32 ambient vectors, past the default ambient cap, but the leader walk
    # reaches every coset at rank 2 and so reports the exact radius
    "covering-F256": Case(["covering", "--field", F256, "--code", CODE256],
                          {"rho": exact_rho(2)}),
    # odd p and layer 3: the F_3^4 code with n=3, k=1 has rho = 2, and the F_16
    # code with n=4, k=1 has rho = 3, so its walk forms sums from prefixes of
    # length 2
    "covering-F3^4": Case(["covering", "--field", F34, "--code", CODE34],
                          {"rho": exact_rho(2)}),
    "covering-F16-k1": Case(["covering", "--field", F16, "--code", {**CODE16, "k": 1}],
                            {"rho": exact_rho(3)}),
    # odd-p deep holes: the families and the 64 samples of the same F_3^4
    # code, each sample outside the code checked by both the extension and
    # the distance route
    "deephole-F3^4": Case(
        ["deephole", "--seed", "7", "--field", F34, "--code", CODE34],
        deep_holes(2, 64),
        sha256="458e6cdaa7621f76e708f36b865e47ae82ef57a5de5d7241b267645839dcbe45"),
    # every eta of F_3^4 (n=4 k=2, h in {0, 1}: 160 specs, whose NMDS specs
    # walk their duals); the bench digests cover q = 2 sweeps only
    "sweep-F3^4": Case(
        ["classify", "--field", F34, "--sweep",
         {"alpha": unit(4, 4), "k": 2, "h": [0, 1], "ts": [0], "etas": "all"}],
        classified(160, {"MDS": 148, "NMDS": 12}, mrd=40, nmds=12),
        sha256="182f6f8af161314384a40003e0eb9d69e7271d42ae2bc8b5460cab7868e2f5a3"),
    # the ratio set and Omega_1 at t = 1, n=4 k=2 h=1; the bench digests cover
    # only q = 2 forbidden and construct reports
    "forbidden-F3^4": Case(
        ["forbidden", "--field", F34, "--code",
         {"alpha": unit(4, 4), "k": 2, "h": 1, "twists": [{"t": 1, "eta": [0, 1, 0, 0]}]}],
        {"omega_one": 6, "ratio_set": 40},
        sha256="1932aceeb1fd01725178790bf25dfc87b1c07fc352bd42f860f67f6f9a1ba36a"),
    # a nested F_9 < F_81 chain, n=2 k=1, re-checked by mrd_membership_multi
    "construct-F9<F81": Case(
        ["construct", "--field", F34, "--task",
         {"mode": "nested", "degrees": [2], "etas": [[0, 1, 0, 0]],
          "alpha": [[1, 0, 0, 0], [0, 2, 1, 1]], "k": 1, "h": 0, "ts": [0]}],
        VERIFIED_MRD,
        sha256="bcfced5339050e212afd3474d76617db4a69411a689a8c8a42a1f24da28cd889"),
    # every eta of F_125 (q = 5; n=3 k=2, h in {0, 1}: 248 specs): rank weights
    # at q >= 5, where each pivot of the F_p echelon reduces by its four
    # non-zero F_p-multiples
    "sweep-F125": Case(
        ["classify", "--field", F125, "--sweep",
         {"alpha": unit(3, 3), "k": 2, "h": [0, 1], "ts": [0], "etas": "all"}],
        classified(248, {"MDS": 242, "NMDS": 6}, mrd=186, nmds=6),
        sha256="3d3c583efad26208a08bf62d1ab4926f62ca045163591ba557caff9082030091"),
    # a one-twist F_2^16 code, n=3 k=2, eta = the element 65 535: its 65 537
    # message classes reach index 65 535, the top of the 16-bit codeword blocks
    "classify-F2^16": Case(
        ["classify", "--field", F2_16, "--code",
         {"alpha": unit(3, 16), "k": 2, "h": 0, "twists": [{"t": 0, "eta": [1] * 16}]}],
        classified(1, {"MDS": 1}, mrd=1),
        sha256="a68aa9183c49ad6c68e12f68388ad1ef550b63e7c24bdd82f8997f715159bdbe"),
    # each vector has 65 536 codewords, so the batched distance route spans
    # several message blocks
    "deephole-F256": Case(
        ["deephole", "--grid", "2", "--sample", "3", "--seed", "7", "--field", F256,
         "--code", CODE256],
        deep_holes(2, 3)),
}


def write_inputs(case: Case, directory: Path) -> list:
    """case.argv with each input written to a file in directory and replaced by its path."""
    argv = []
    for i, arg in enumerate(case.argv):
        if not isinstance(arg, str):
            path = directory / f"input{i}.json"
            path.write_bytes(arg if isinstance(arg, bytes) else json.dumps(arg).encode())
            arg = str(path)
        argv.append(arg)
    return argv


def check(case: Case, argv: list, code: int, stdout: str, stderr: str) -> None:
    """Every check of a case on one run of argv: its exit code, stdout and stderr."""
    assert code == case.exit, f"exit {code}, expected {case.exit}; stderr: {stderr[-2000:]}"
    if code != 0:
        assert "Traceback" not in stderr, stderr
        assert stdout == "", "a refused run writes no report"
        assert case.message is None or case.message.format(argv=argv) in stderr, stderr
        return
    report = json.loads(stdout)
    assert stdout == json.dumps(report, sort_keys=True, indent=2) + "\n", "not canonical JSON"
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    assert case.sha256 in (None, digest), f"report sha256 {digest}"
    values = PROJECTIONS[case.argv[0]](report)
    assert values == case.expect, f"report values {values}"


def run_in_process(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_installed(argv: list) -> tuple:
    done = subprocess.run(["twistgab", *argv], capture_output=True, timeout=20)
    return done.returncode, done.stdout.decode(), done.stderr.decode()


def run_case(case: Case, run, directory: Path) -> None:
    """Run a case by run (in process or installed) with its inputs in
    directory and check it; a case that exits 0 runs again with --out, whose
    file must hold the bytes of the first run's stdout."""
    argv = write_inputs(case, directory)
    code, stdout, stderr = run(argv)
    check(case, argv, code, stdout, stderr)
    if code == 0:
        out = directory / "report.out.json"
        code, again, stderr = run([*argv, "--out", str(out)])
        assert (code, again) == (0, ""), f"--out run: exit {code}; stderr: {stderr[-2000:]}"
        assert out.read_bytes() == stdout.encode(), "the --out file differs from stdout"


PINNED = sorted(name for name, case in CASES.items() if case.sha256 is not None)


# the digest-pinned cases, under a test name of their own
@pytest.mark.parametrize("name", PINNED)
def test_report_matches_the_ci_sha256(tmp_path, name):
    run_case(CASES[name], run_in_process, tmp_path)


@pytest.mark.parametrize("name", sorted(CASES.keys() - set(PINNED)))
def test_console_case(tmp_path, name):
    run_case(CASES[name], run_in_process, tmp_path)


def run_all_installed() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, case in CASES.items():
            print(f"== {name}", flush=True)
            try:
                run_case(case, run_installed, Path(tmp))
            except (AssertionError, subprocess.TimeoutExpired) as exc:
                print(f"FAILED: {exc!r}", flush=True)
                failed.append(name)
    print(f"{len(CASES) - len(failed)} of {len(CASES)} console cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    if not __debug__:
        sys.exit("the checks are assert statements: run without -O")
    sys.exit(run_all_installed())
