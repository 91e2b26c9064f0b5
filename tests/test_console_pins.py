"""The five reports the CI ``Console script`` step pins by sha256, run in
process through ``cli.main``: the same inputs, argv and recorded digests, so a
change that moves one of these bytes fails here and not only in CI.  The two
sweeps are the only pinned classify reports at odd p (3 and 5)."""

import hashlib
import json

import pytest

from twistgab.cli import main

FIELD34 = {"p": 3, "e": 1, "m": 4}
FIELD125 = {"p": 5, "e": 1, "m": 3}
UNIT4 = [[int(i == j) for j in range(4)] for i in range(4)]

CASES = {
    "deephole-F3^4": (
        FIELD34, "code",
        {"alpha": UNIT4[:3], "k": 1, "h": 0, "twists": [{"t": 0, "eta": [0, 1, 0, 0]}]},
        ["deephole", "--seed", "7"],
        "458e6cdaa7621f76e708f36b865e47ae82ef57a5de5d7241b267645839dcbe45",
    ),
    "sweep-F3^4": (
        FIELD34, "sweep",
        {"alpha": UNIT4, "k": 2, "h": [0, 1], "ts": [0], "etas": "all"},
        ["classify"],
        "182f6f8af161314384a40003e0eb9d69e7271d42ae2bc8b5460cab7868e2f5a3",
    ),
    "forbidden-F3^4": (
        FIELD34, "code",
        {"alpha": UNIT4, "k": 2, "h": 1, "twists": [{"t": 1, "eta": [0, 1, 0, 0]}]},
        ["forbidden"],
        "1932aceeb1fd01725178790bf25dfc87b1c07fc352bd42f860f67f6f9a1ba36a",
    ),
    "construct-F9<F81": (
        FIELD34, "task",
        {"mode": "nested", "degrees": [2], "etas": [[0, 1, 0, 0]],
         "alpha": [[1, 0, 0, 0], [0, 2, 1, 1]], "k": 1, "h": 0, "ts": [0]},
        ["construct"],
        "bcfced5339050e212afd3474d76617db4a69411a689a8c8a42a1f24da28cd889",
    ),
    "sweep-F125": (
        FIELD125, "sweep",
        {"alpha": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "k": 2, "h": [0, 1], "ts": [0],
         "etas": "all"},
        ["classify"],
        "3d3c583efad26208a08bf62d1ab4926f62ca045163591ba557caff9082030091",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_the_ci_sha256(tmp_path, name):
    field, flag, data, argv, digest = CASES[name]
    (tmp_path / "field.json").write_text(json.dumps(field))
    (tmp_path / "input.json").write_text(json.dumps(data))
    out = tmp_path / "report.json"
    argv = [*argv, "--field", str(tmp_path / "field.json"),
            f"--{flag}", str(tmp_path / "input.json"), "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
