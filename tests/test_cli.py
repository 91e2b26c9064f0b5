import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistgab import cli
from twistgab.cli import canonical_json, main

FIELD16 = {"p": 2, "e": 1, "m": 4, "top_modulus": [1, 1, 0, 0, 1]}
ALPHA16 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
CODE16 = {"alpha": ALPHA16, "k": 2, "h": 0, "twists": [{"t": 0, "eta": [0, 1, 0, 0]}]}


@pytest.fixture
def files(tmp_path):
    field = tmp_path / "field.json"
    field.write_text(json.dumps(FIELD16))
    code = tmp_path / "code.json"
    code.write_text(json.dumps(CODE16))
    return tmp_path, field, code


def run_main(args):
    return main([str(a) for a in args])


@pytest.fixture
def tables_built(monkeypatch):
    """The (alpha, k) of every KSubsetTable built, in build order; a table
    holds the annihilators of all its k-subsets."""
    from twistgab.mrdcheck import KSubsetTable

    calls = []
    init = KSubsetTable.__init__

    def counted(self, tower, alpha, k, *rest):
        calls.append((tuple(alpha), k))
        init(self, tower, alpha, k, *rest)

    monkeypatch.setattr(KSubsetTable, "__init__", counted)
    return calls


class TestClassify:
    def test_single_code(self, files, capsys):
        _, field, code = files
        assert run_main(["classify", "--field", field, "--code", code]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "twistgab/1"
        entry = report["entries"][0]
        assert entry["routes_agree"] and entry["report"]["d_rank"] == 2
        assert entry["hamming_class"]["label"] == "MDS"

    def test_sweep_to_file(self, files):
        tmp, field, _ = files
        sweep = tmp / "sweep.json"
        sweep.write_text(json.dumps({"alpha": ALPHA16, "k": 2, "h": [0, 1], "ts": [0], "etas": "all"}))
        out = tmp / "report.json"
        assert run_main(["classify", "--field", field, "--sweep", sweep, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert len(report["entries"]) == 30
        assert not any(e["report"]["is_mrd"] for e in report["entries"])

    def test_sweep_entries_match_specs_classified_alone(self, files, capsys):
        # the sweep shares one k-subset table across h and eta; a spec run on
        # its own builds a fresh one, so a cache keyed without h shows up here
        tmp, field, _ = files
        sweep = tmp / "sweep.json"
        sweep.write_text(json.dumps({"alpha": ALPHA16, "k": 2, "h": [0, 1], "ts": [0], "etas": "all"}))
        assert run_main(["classify", "--field", field, "--sweep", sweep]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert {e["spec"]["h"] for e in entries} == {0, 1} and len(entries) == 30
        code = tmp / "alone.json"
        for entry in entries:
            code.write_text(json.dumps(entry["spec"]))
            assert run_main(["classify", "--field", field, "--code", code]) == 0
            assert json.loads(capsys.readouterr().out)["entries"] == [entry]

    def test_sweep_builds_each_annihilator_once(self, files, capsys, tables_built):
        tmp, field, _ = files
        sweep = tmp / "sweep.json"
        sweep.write_text(json.dumps({"alpha": ALPHA16, "k": 2, "h": [0, 1], "ts": [0, 1], "etas": "all"}))
        assert run_main(["classify", "--field", field, "--sweep", sweep]) == 0
        assert len(json.loads(capsys.readouterr().out)["entries"]) == 2 * 15 * 15
        assert len(tables_built) == 1  # one table holds the C(4, 2) annihilators

    def test_sweep_with_explicit_eta_list(self, files, capsys):
        tmp, field, _ = files
        sweep = tmp / "explicit.json"
        sweep.write_text(json.dumps({
            "alpha": ALPHA16, "k": 1, "h": [0], "ts": [0, 1],
            "etas": [[[0, 1, 0, 0], [0, 0, 1, 0]], [[1, 0, 0, 0], [1, 1, 0, 0]]],
        }))
        assert run_main(["classify", "--field", field, "--sweep", sweep]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["entries"]) == 2
        assert all(len(e["spec"]["twists"]) == 2 for e in report["entries"])

    def test_sweep_refuses_over_budget_grid(self, files):
        tmp, field, _ = files
        sweep = tmp / "sweep.json"
        sweep.write_text(json.dumps({"alpha": ALPHA16, "k": 2, "h": [0, 1], "ts": [0], "etas": "all"}))
        assert run_main([
            "classify", "--field", field, "--sweep", sweep, "--budget-codewords", "100",
        ]) == 3

    def test_sweep_counts_eta_tuples_before_listing_them(self, files):
        # 15^6 eta tuples: the budget refuses them before any is built
        tmp, field, _ = files
        sweep = tmp / "sweep.json"
        sweep.write_text(json.dumps({"alpha": ALPHA16, "k": 2, "ts": [0, 1, 2, 3, 4, 5]}))
        t0 = time.perf_counter()
        assert run_main(["classify", "--field", field, "--sweep", sweep]) == 3
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("field_obj", [
        {"p": 2, "e": 1, "m": 17},
        {"p": 2, "e": 1, "m": 40},
        {"p": 2, "e": 1000000000, "m": 1},
        {"p": 1000000000000000003, "e": 1, "m": 1},
    ])
    def test_oversize_field_is_refused_before_any_work(self, files, capsys, field_obj):
        tmp, _, code = files
        field = tmp / "big.json"
        field.write_text(json.dumps(field_obj))
        t0 = time.perf_counter()
        assert run_main(["classify", "--field", field, "--code", code]) == 2
        assert time.perf_counter() - t0 < 1
        err = capsys.readouterr().err
        assert "up to order 65536" in err and "Traceback" not in err

    def test_odd_p_tower_above_order_1024(self, tmp_path, capsys):
        # F_3^7 (order 2187): vectorized addition must cover every odd-p tower
        field = tmp_path / "f3_7.json"
        field.write_text(json.dumps({"p": 3, "e": 1, "m": 7}))
        alpha = [[int(i == j) for i in range(7)] for j in range(4)]
        code = tmp_path / "code.json"
        code.write_text(json.dumps({
            "alpha": alpha, "k": 2, "h": 0, "twists": [{"t": 0, "eta": [0, 1, 0, 0, 0, 0, 0]}],
        }))
        assert run_main(["classify", "--field", field, "--code", code]) == 0
        assert json.loads(capsys.readouterr().out)["entries"][0]["routes_agree"]

    def test_missing_code(self, files):
        _, field, _ = files
        assert run_main(["classify", "--field", field]) == 2

    def test_malformed_json(self, files):
        tmp, field, _ = files
        bad = tmp / "bad.json"
        bad.write_text("{не json")
        assert run_main(["classify", "--field", field, "--code", bad]) == 2

    def test_nesting_past_the_recursion_limit_is_an_input_error(self, files, capsys):
        tmp, _, code = files
        field = tmp / "nested.json"
        field.write_text("[" * 200_000)
        assert run_main(["classify", "--field", field, "--code", code]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read JSON from {field}") and "Traceback" not in err

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_out_is_an_input_error(self, files, capsys, target):
        # a missing directory, then a directory itself
        tmp, field, code = files
        out = tmp / target
        assert run_main(["covering", "--field", field, "--code", code, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write report to {out}" in err and "Traceback" not in err

    def test_invalid_spec(self, files):
        tmp, field, _ = files
        code = tmp / "zero_eta.json"
        code.write_text(json.dumps({**CODE16, "twists": [{"t": 0, "eta": [0, 0, 0, 0]}]}))
        assert run_main(["classify", "--field", field, "--code", code]) == 2

    @pytest.mark.parametrize("field_obj, alpha", [
        ({"p": 2, "e": 1, "m": 4}, [*ALPHA16[:3], [0, 0, 1, None]]),
        ({"p": 2, "e": 2, "m": 2, "base_modulus": [1, None, 1]}, ALPHA16),
    ], ids=["null-coordinate", "null-modulus-coefficient"])
    def test_json_null_is_an_input_error(self, tmp_path, capsys, field_obj, alpha):
        field = tmp_path / "field.json"
        field.write_text(json.dumps(field_obj))
        code = tmp_path / "code.json"
        code.write_text(json.dumps({**CODE16, "alpha": alpha}))
        assert run_main(["classify", "--field", field, "--code", code]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("field_obj, code_obj", [
        ([1, 2], CODE16),
        ({**FIELD16, "base_modulus": 5}, CODE16),
        (FIELD16, {"alpha": 5, "k": 1}),
        (FIELD16, [1]),
        (FIELD16, {**CODE16, "k": 2.7}),
        (FIELD16, {**CODE16, "k": "2"}),
        (FIELD16, {**CODE16, "alpha": [[True, 0, 0, 0], *ALPHA16[1:]]}),
        ({**FIELD16, "m": 4.0}, CODE16),
    ], ids=[
        "field-array", "base-modulus-number", "alpha-number", "code-array",
        "k-float", "k-string", "coordinate-bool", "m-float",
    ])
    def test_json_of_wrong_shape_is_an_input_error(self, tmp_path, capsys, field_obj, code_obj):
        field = tmp_path / "field.json"
        field.write_text(json.dumps(field_obj))
        code = tmp_path / "code.json"
        code.write_text(json.dumps(code_obj))
        assert run_main(["classify", "--field", field, "--code", code]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_budget_exit_code(self, files):
        _, field, code = files
        assert run_main(["classify", "--field", field, "--code", code, "--budget-codewords", "3"]) == 3

    def test_code_and_one_spec_sweep_share_the_codeword_cap(self, tmp_path, capsys):
        # F_32, n=5, k=2: 33 message classes of the code and 1057 of its dual;
        # the cap counts their sum, 1090, for --code as for a one-spec sweep
        field = tmp_path / "field5.json"
        field.write_text(json.dumps({"p": 2, "e": 1, "m": 5}))
        alpha = [[int(i == j) for j in range(5)] for i in range(5)]
        code = tmp_path / "code.json"
        code.write_text(json.dumps({"alpha": alpha, "k": 2, "h": 0,
                                    "twists": [{"t": 0, "eta": [0, 1, 0, 0, 0]}]}))
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"alpha": alpha, "k": 2, "h": 0, "ts": [0],
                                     "etas": [[[0, 1, 0, 0, 0]]]}))
        for cap, status in ((1089, 3), (1090, 0)):
            outs = []
            for source in (["--code", code], ["--sweep", sweep]):
                args = ["classify", "--field", field, *source, "--budget-codewords", cap]
                assert run_main(args) == status, (cap, source)
                captured = capsys.readouterr()
                assert ("1090" in captured.err) == (status == 3)
                outs.append(captured.out)
            assert outs[0] == outs[1]

    def test_environment_sets_no_budget(self, files, capsys, monkeypatch):
        # budgets come from the flags alone; a cap in the environment is ignored
        _, field, code = files
        assert run_main(["classify", "--field", field, "--code", code]) == 0
        report = capsys.readouterr().out
        monkeypatch.setenv("TWISTGAB_BUDGET_CODEWORDS", "1")
        assert run_main(["classify", "--field", field, "--code", code]) == 0
        assert capsys.readouterr().out == report

    def test_timings_flag(self, files, capsys):
        # the time goes to stderr only; --timings, which put it in the report, is gone
        _, field, code = files
        assert run_main(["classify", "--field", field, "--code", code]) == 0
        captured = capsys.readouterr()
        assert "[timing] classify: " in captured.err
        assert "timing_ms" not in json.loads(captured.out)
        with pytest.raises(SystemExit):
            run_main(["classify", "--field", field, "--code", code, "--timings"])

    def test_gabidulin_code(self, files, capsys):
        tmp, field, _ = files
        code = tmp / "gab.json"
        code.write_text(json.dumps({"alpha": ALPHA16, "k": 2, "twists": []}))
        assert run_main(["classify", "--field", field, "--code", code]) == 0
        entry = json.loads(capsys.readouterr().out)["entries"][0]
        assert entry["report"]["is_mrd"] and entry["hamming_class"]["label"] == "MDS"

    def test_consistency_failure_exits_4(self, files, monkeypatch):
        from twistgab import cli
        from twistgab.errors import ConsistencyError

        _, field, code = files

        def boom(*args, **kwargs):
            raise ConsistencyError("forced for the exit-code contract")

        # classify runs and cross-checks every route over the stack of specs
        monkeypatch.setattr(cli.mrdcheck, "classify_many", boom)
        assert run_main(["classify", "--field", field, "--code", code]) == 4

    def test_deephole_route_disagreement_exits_4_naming_the_sample(self, files, capsys, monkeypatch):
        # the routes run once over one stack, the two family vectors and then
        # the samples outside the code; of the two disagreements (stack rows 3
        # and 5), the message names the first in stack order, the second
        # sample outside the code, as the one-vector-at-a-time check did
        import random

        from twistgab import covering
        from twistgab.codes import CodeSpec
        from twistgab.fieldtower import tower_from_json

        _, field, code = files
        extension = covering.deep_hole_via_extension_many

        def flipped(spec, U, budgets):
            verdicts = extension(spec, U, budgets)
            verdicts[[3, 5]] = ~verdicts[[3, 5]]
            return verdicts

        monkeypatch.setattr(covering, "deep_hole_via_extension_many", flipped)
        assert run_main([
            "deephole", "--field", field, "--code", code, "--seed", 7, "--grid", 2, "--sample", 8,
        ]) == 4
        # the draws: f (k = 2 elements) per family, then n = 4 entries per sample
        rng = random.Random(7)
        for _ in range(2 * 2):
            rng.randrange(16)
        samples = [[rng.randrange(16) for _ in range(4)] for _ in range(8)]
        spec = CodeSpec.from_json_dict(tower_from_json(FIELD16), CODE16)
        outside = [u for u in samples if not covering.contains(spec, u)]
        err = capsys.readouterr().err
        assert f"extension route and distance route disagree on u = {outside[1]}" in err
        assert "Traceback" not in err

    # the F_32, n = 5, k = 2 grid: h in {0, 1}, one twist at t = 0, all 31 eta
    FIELD32 = {"p": 2, "e": 1, "m": 5}
    GRID32 = {"alpha": [[int(i == j) for j in range(5)] for i in range(5)], "k": 2,
              "h": [0, 1], "ts": [0], "etas": "all"}

    def grid32(self, tmp):
        field, sweep = tmp / "field32.json", tmp / "grid32.json"
        field.write_text(json.dumps(self.FIELD32))
        sweep.write_text(json.dumps(self.GRID32))
        return field, sweep

    def test_subspaces_cap_of_one_spec_admits_the_whole_sweep(self, files):
        # [5, 2]_2 = 155 representatives per spec: the subspace route walks the
        # 62 generators in stacks that fit the cap, and the report is unchanged
        tmp = files[0]
        field, sweep = self.grid32(tmp)
        outs = {}
        for budget in (None, 155):
            out = tmp / f"report-{budget}.json"
            flags = [] if budget is None else ["--budget-subspaces", budget]
            argv = ["classify", "--field", field, "--sweep", sweep, "--out", out, *flags]
            assert run_main(argv) == 0
            outs[budget] = out.read_bytes()
        assert outs[155] == outs[None]
        entries = json.loads(outs[None])["entries"]
        assert len(entries) == 62 and all(e["routes_agree"] for e in entries)
        assert run_main([
            "classify", "--field", field, "--sweep", sweep, "--budget-subspaces", 154,
        ]) == 3

    def test_first_disagreement_in_sweep_order_is_raised(self, files, capsys, monkeypatch):
        # the Omega route's label is wrong for the third spec (and the fifth):
        # the message names the third, as the one-spec-at-a-time walk did
        from twistgab import cli
        from twistgab.fieldtower import tower_from_json

        tmp = files[0]
        field, sweep = self.grid32(tmp)
        specs = cli._sweep_specs(tower_from_json(self.FIELD32), self.GRID32, cli.Budgets())
        wrong = {(s.h, s.twists) for s in (specs[2], specs[4])}
        hamming_class_many = cli.mrdcheck.hamming_class_many

        def mislabelled(table, cases):
            out = hamming_class_many(table, cases)
            for (h, twists), hclass in zip(cases, out):
                if (h, tuple(twists)) in wrong:
                    hclass.label = "none" if hclass.label == "MDS" else "MDS"
            return out

        monkeypatch.setattr(cli.mrdcheck, "hamming_class_many", mislabelled)
        assert run_main(["classify", "--field", field, "--sweep", sweep]) == 4
        err = capsys.readouterr().err
        assert f"route disagreement for spec {specs[2].to_json_dict()}:" in err
        assert str(specs[4].to_json_dict()) not in err and "Traceback" not in err

    def test_audit_counts_present(self, files, capsys):
        _, field, code = files
        assert run_main(["classify", "--field", field, "--code", code]) == 0
        entry = json.loads(capsys.readouterr().out)["entries"][0]
        assert entry["enumerated"]["subspace_representatives"] == 35
        assert entry["enumerated"]["message_classes"] == 17


class TestDeterminism:
    def test_workers_do_not_change_bytes(self, files):
        tmp, field, _ = files
        sweep = tmp / "sweep.json"
        sweep.write_text(json.dumps({"alpha": ALPHA16, "k": 2, "h": [0, 1], "ts": [0], "etas": "all"}))
        outs = []
        for workers in (1, 3, 7):
            out = tmp / f"r{workers}.json"
            assert run_main([
                "classify", "--field", field, "--sweep", sweep,
                "--workers", workers, "--out", out,
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_deephole_seed_stability(self, files):
        tmp, field, code = files
        a = tmp / "a.json"
        b = tmp / "b.json"
        for out in (a, b):
            assert run_main([
                "deephole", "--field", field, "--code", code,
                "--seed", 7, "--grid", 4, "--sample", 8, "--out", out,
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_parser_is_built_once_and_keeps_no_parse_state(self, files, capsys):
        # each call writes the bytes of the same command in a fresh process
        from twistgab import cli

        _, field, code = files
        calls = [
            ["deephole", "--field", field, "--code", code, "--grid", 2, "--sample", 3],
            ["deephole", "--field", field, "--code", code],
        ]
        alone = [
            subprocess.run(
                [sys.executable, "-m", "twistgab", *map(str, args)], capture_output=True, text=True
            ).stdout
            for args in calls
        ]
        outs = []
        for args in calls:
            assert run_main(args) == 0
            outs.append(capsys.readouterr().out)
        assert outs == alone and alone[0] != alone[1]
        assert cli.build_parser() is cli.build_parser()

    def test_subprocess_entry_point(self, files):
        # the installed console script must behave like main()
        tmp, field, code = files
        proc = subprocess.run(
            [sys.executable, "-m", "twistgab", "classify", "--field", str(field), "--code", str(code)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["schema"] == "twistgab/1"
        assert "[timing]" in proc.stderr


class TestForbidden:
    def test_one_twist_sets(self, files, capsys, tables_built):
        _, field, code = files
        assert run_main(["forbidden", "--field", field, "--code", code]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ratio_set"]["size"] == 15  # every eta forbidden at q = 2
        assert report["omega_one"]["size"] >= 1
        assert "omega_one_prime" in report
        # omega_one and omega_one_prime read one k-subset table
        assert len(tables_built) == 1

    def test_omega_one_outside_the_ratio_set_exits_4(self, files, capsys, monkeypatch):
        # mrdcheck.forbidden_sets_one_twist holds the rule that Omega_1 lies in
        # the ratio set; over F_32 with n = 4 the ratio set misses some values
        from twistgab import mrdcheck
        from twistgab.codes import CodeSpec
        from twistgab.fieldtower import tower_from_json

        tmp = files[0]
        field, code = tmp / "field32.json", tmp / "code32.json"
        field_obj = {"p": 2, "e": 1, "m": 5}
        code_obj = {"alpha": [[int(i == j) for j in range(5)] for i in range(4)], "k": 2,
                    "h": 0, "twists": [{"t": 1, "eta": [0, 1, 0, 0, 0]}]}
        field.write_text(json.dumps(field_obj))
        code.write_text(json.dumps(code_obj))
        spec = CodeSpec.from_json_dict(tower_from_json(field_obj), code_obj)
        ratio = mrdcheck.forbidden_sets_one_twist(spec)["ratio_set"]
        stray = min(v for v in spec.tower.nonzero_elements() if (v,) not in ratio)
        omega_one = mrdcheck.omega_one

        def widened(table, h, t):
            out = omega_one(table, h, t)
            out.entries[(stray,)] = [0, 1]
            return out

        monkeypatch.setattr(mrdcheck, "omega_one", widened)
        assert run_main(["forbidden", "--field", field, "--code", code]) == 4
        err = capsys.readouterr().err
        assert f"Omega_1 value {spec.tower.elements_to_json(stray)} (k-subset [0, 1])" in err
        assert "Traceback" not in err

    def test_gabidulin_rejected(self, files):
        tmp, field, _ = files
        code = tmp / "gab.json"
        code.write_text(json.dumps({"alpha": ALPHA16, "k": 2, "twists": []}))
        assert run_main(["forbidden", "--field", field, "--code", code]) == 2

    def test_two_twist_witness(self, files, capsys):
        tmp, field, _ = files
        code = tmp / "two.json"
        code.write_text(json.dumps({
            "alpha": ALPHA16, "k": 1, "h": 0,
            "twists": [{"t": 0, "eta": [0, 1, 0, 0]}, {"t": 1, "eta": [0, 1, 0, 0]}],
        }))
        assert run_main(["forbidden", "--field", field, "--code", code]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "omega_witness" in report
        flags = ["--budget-subspaces", "100", "--budget-codewords", "100", "--budget-ambient", "100"]
        assert run_main(["forbidden", "--field", field, "--code", code, *flags]) == 0
        assert json.loads(capsys.readouterr().out) == report


class TestConstructAndCovering:
    def test_construct_then_classify_roundtrip(self, tmp_path, capsys):
        field = tmp_path / "f256.json"
        field.write_text(json.dumps({"p": 2, "e": 1, "m": 8}))
        from twistgab.fieldtower import default_tower

        t = default_tower(2, 1, 8)
        basis = []
        for x in t.subfield_elements(4):
            if x and t.fq_rank(basis + [x]) == len(basis) + 1:
                basis.append(x)
            if len(basis) == 4:
                break
        eta = next(x for x in t.nonzero_elements() if not t.subfield_membership(x, 4))
        task = tmp_path / "task.json"
        task.write_text(json.dumps({
            "mode": "nested", "degrees": [4],
            "etas": [t.elements_to_json(eta)],
            "alpha": [t.elements_to_json(a) for a in basis],
            "k": 2, "h": 0, "ts": [0],
        }))
        spec_out = tmp_path / "constructed.json"
        assert run_main(["construct", "--field", field, "--task", task, "--out", spec_out]) == 0
        constructed = json.loads(spec_out.read_text())
        assert constructed["verified_mrd"] is True
        assert run_main(["classify", "--field", field, "--code", spec_out]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entries"][0]["report"]["is_mrd"]

    @pytest.mark.parametrize("command, flag, obj", [
        ("classify", "--sweep", [1]),
        ("classify", "--sweep", {"alpha": ALPHA16, "k": 1, "ts": [0, 1], "etas": [[[0, 1, 0, 0]]]}),
        ("construct", "--task", [1]),
        ("construct", "--task", {
            "mode": "scalar", "degrees": [], "etas": [], "alpha": ALPHA16[:2], "k": 1, "ts": [0],
        }),
        # k outside [1, n) is refused before the enumeration steps are counted
        ("classify", "--sweep", {"alpha": ALPHA16[:3], "k": 20, "etas": [[[0, 1, 0, 0]]]}),
        ("classify", "--sweep", {"alpha": ALPHA16[:3], "k": 400, "etas": [[[0, 1, 0, 0]]]}),
        ("classify", "--sweep", {"alpha": ALPHA16[:3], "k": 0, "etas": [[[0, 1, 0, 0]]]}),
        ("construct", "--task", {
            "mode": "sum-product-free", "s": 0, "etas": [[0, 1, 0, 0]],
            "alpha": ALPHA16[:2], "k": 1, "ts": [0],
        }),
        # alpha = (1, y^5) spans F_4; (y, y^6 = y^5 * y) is 1-sum-product free
        # over F_4, so only the length of ts or of degrees is wrong below
        ("construct", "--task", {
            "mode": "sum-product-free", "s": 2, "etas": [[0, 1, 0, 0], [0, 0, 1, 1]],
            "alpha": [[1, 0, 0, 0], [0, 1, 1, 0]], "k": 1, "ts": [0],
        }),
        ("construct", "--task", {
            "mode": "sum-product-free", "s": 2, "etas": [[0, 1, 0, 0]],
            "alpha": [[1, 0, 0, 0], [0, 1, 1, 0]], "k": 1, "ts": [0, 1, 2],
        }),
        ("construct", "--task", {
            "mode": "scalar", "degrees": [2, 4], "etas": [[0, 1, 0, 0], [0, 0, 1, 1]],
            "alpha": [[1, 0, 0, 0], [0, 1, 1, 0]], "k": 1, "ts": [0],
        }),
    ], ids=[
        "sweep-array", "sweep-short-eta-tuple", "task-array", "task-empty-degrees",
        "sweep-k-20", "sweep-k-400", "sweep-k-0", "task-s-0",
        "task-spf-short-ts", "task-spf-long-ts", "task-scalar-two-degrees",
    ])
    def test_sweep_and_task_of_wrong_shape(self, files, capsys, command, flag, obj):
        tmp, field, _ = files
        path = tmp / "input.json"
        path.write_text(json.dumps(obj))
        assert run_main([command, "--field", field, flag, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_sum_product_free_mode(self, tmp_path):
        field = tmp_path / "f256.json"
        field.write_text(json.dumps({"p": 2, "e": 1, "m": 8}))
        from twistgab.fieldtower import default_tower

        t = default_tower(2, 1, 8)
        basis = []
        for x in t.subfield_elements(4):
            if x and t.fq_rank(basis + [x]) == len(basis) + 1:
                basis.append(x)
            if len(basis) == 4:
                break
        eta1 = next(x for x in t.nonzero_elements() if not t.subfield_membership(x, 4))
        sub = t.subfield_elements(4)
        etas = [eta1, t.mul(sub[2], eta1), t.mul(sub[9], eta1)]
        task = tmp_path / "spf.json"
        task.write_text(json.dumps({
            "mode": "sum-product-free", "s": 4,
            "etas": [t.elements_to_json(e) for e in etas],
            "alpha": [t.elements_to_json(a) for a in basis],
            "k": 1, "h": 0, "ts": [0, 1, 2],
        }))
        out = tmp_path / "spf_out.json"
        assert run_main(["construct", "--field", field, "--task", task, "--out", out]) == 0
        assert json.loads(out.read_text())["verified_mrd"] is True

    def test_covering_report(self, files, capsys):
        _, field, code = files
        assert run_main(["covering", "--field", field, "--code", code]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["report"]["rho"] == {"value": 2, "method": "exhaustive"}

    def test_covering_subspaces_cap_leaves_report_exact(self, files, capsys):
        # the leader walk's RREF blocks count against the ambient cap only
        _, field, code = files
        assert run_main(["covering", "--field", field, "--code", code]) == 0
        exact = json.loads(capsys.readouterr().out)["report"]
        assert run_main([
            "covering", "--field", field, "--code", code, "--budget-subspaces", "1",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["report"] == exact
        assert exact["rho"] == {"value": 2, "method": "exhaustive"}

    def test_covering_budget_gives_bounds_only(self, files, capsys):
        _, field, code = files
        assert run_main([
            "covering", "--field", field, "--code", code, "--budget-ambient", "10",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["report"]["rho"] is None
        assert report["report"]["lower_bound"]["value"] == 2

    @pytest.mark.parametrize("flag", ["--budget-subspaces", "--budget-codewords", "--budget-ambient"])
    def test_zero_budget_is_an_input_error(self, files, capsys, flag):
        _, field, code = files
        assert run_main(["covering", "--field", field, "--code", code, flag, "0"]) == 2
        err = capsys.readouterr().err
        assert "must be positive" in err and "Traceback" not in err

    def test_deephole_report(self, files, capsys):
        _, field, code = files
        assert run_main([
            "deephole", "--field", field, "--code", code, "--grid", 6, "--sample", 20,
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_families_verified"]
        assert report["sampled_iff_checks"]["agree"] == report["sampled_iff_checks"]["total"]
        assert report["rho"] == {"value": 2, "method": "exhaustive"}

    def test_deephole_grid_zero_lists_no_family(self, files, capsys):
        _, field, code = files
        assert run_main([
            "deephole", "--field", field, "--code", code, "--grid", 0, "--sample", 0,
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["families"] == []
        assert report["sampled_iff_checks"] == {"agree": 0, "total": 0}

    def test_deephole_with_no_vector_reports_a_bounds_only_radius(self, files, capsys):
        # no family and no sample: nothing is weighed against rho, so a radius
        # past the ambient cap is reported as unknown, not refused
        _, field, code = files
        assert run_main([
            "deephole", "--field", field, "--code", code, "--grid", 0, "--sample", 0,
            "--budget-ambient", 10,
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rho"] == {"value": None, "method": None}
        assert report["families"] == [] and report["all_families_verified"] is True

    def test_deephole_weighs_families_and_samples_in_one_distance_walk(self, files, capsys, monkeypatch):
        from twistgab import covering

        _, field, code = files
        distance, stacks = covering.distance_to_code_many, []

        def spy(spec, U, budgets):
            stacks.append(len(U))
            return distance(spec, U, budgets)

        monkeypatch.setattr(covering, "distance_to_code_many", spy)
        assert run_main([
            "deephole", "--field", field, "--code", code, "--seed", 7, "--grid", 6, "--sample", 20,
        ]) == 0
        checks = json.loads(capsys.readouterr().out)["sampled_iff_checks"]
        assert checks["total"] > 0 and stacks == [6 + checks["total"]]

    def test_deephole_builds_the_generator_once(self, files, capsys, monkeypatch):
        # every route reads generator_matrix(spec) and the walk and every
        # membership pass parity_check_matrix(spec), each built once for the
        # one spec
        from twistgab import codes, moore

        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def spy(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(module, name, spy)

        counted(codes, "_generators")
        counted(moore, "nullspace_fqm")
        _, field, code = files
        assert run_main([
            "deephole", "--field", field, "--code", code, "--seed", 7, "--grid", 4, "--sample", 8,
        ]) == 0
        assert json.loads(capsys.readouterr().out)["sampled_iff_checks"]["total"] > 0
        assert sorted(calls) == ["_generators", "nullspace_fqm"]

    def test_deephole_sample_over_the_codeword_cap_exits_3_before_any_draw(
        self, files, capsys, monkeypatch
    ):
        # (16 families + 10^9 samples) * 16^2 codewords: refused before the
        # covering walk and before a single vector is drawn
        from twistgab import covering
        from twistgab.fieldtower import FieldTower

        def boom(*args, **kwargs):
            raise AssertionError("work before the codeword cap was checked")

        monkeypatch.setattr(covering, "covering_radius_exhaustive", boom)
        monkeypatch.setattr(FieldTower, "random_element", boom)
        _, field, code = files
        assert run_main([
            "deephole", "--field", field, "--code", code, "--sample", 10**9,
        ]) == 3
        err = capsys.readouterr().err
        assert f"codeword enumeration needs {(16 + 10**9) * 16**2} steps" in err
        # the same count at the cap is admitted
        monkeypatch.undo()
        cap = (4 + 8) * 16**2
        for budget, status in ((cap, 0), (cap - 1, 3)):
            assert run_main([
                "deephole", "--field", field, "--code", code, "--grid", 4, "--sample", 8,
                "--budget-codewords", budget,
            ]) == status

    def test_deephole_out_of_reach_radius_walks_once(self, files, capsys, monkeypatch):
        # 256 cosets fit the ambient cap, but the rank-2 layer, where rho = 2
        # lies, does not: the bounds-only report is not walked for again
        from twistgab import covering

        walk, calls = covering._walk, []

        def counted(spec, budgets):
            calls.append(spec)
            return walk(spec, budgets)

        monkeypatch.setattr(covering, "_walk", counted)
        _, field, code = files
        assert run_main([
            "deephole", "--field", field, "--code", code, "--budget-ambient", 1000,
        ]) == 3
        err = capsys.readouterr().err
        assert "covering radius unknown" in err and "Traceback" not in err
        assert len(calls) == 1

    @pytest.mark.parametrize("twists, flags", [
        ([{"t": 0, "eta": [0, 1, 0, 0]}, {"t": 1, "eta": [1, 1, 0, 0]}], []),
        ([{"t": 1, "eta": [0, 1, 0, 0]}], []),
        # no family and no sample: the refusal still comes first
        ([{"t": 0, "eta": [0, 1, 0, 0]}, {"t": 1, "eta": [1, 1, 0, 0]}],
         ["--grid", 0, "--sample", 0]),
    ], ids=["two-twists", "t1", "two-twists-grid0-sample0"])
    def test_deephole_refuses_a_code_outside_the_family_before_the_walk(
        self, files, capsys, monkeypatch, twists, flags
    ):
        from twistgab import covering

        def boom(*args, **kwargs):
            raise AssertionError("covering walk before the family refusal")

        monkeypatch.setattr(covering, "covering_radius_exhaustive", boom)
        tmp, field, _ = files
        code = tmp / "outside.json"
        code.write_text(json.dumps({"alpha": ALPHA16, "k": 2, "h": 0, "twists": twists}))
        assert run_main(["deephole", "--field", field, "--code", code, *flags]) == 2
        err = capsys.readouterr().err
        assert covering.FAMILY_REFUSAL in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--grid", "--sample"])
    def test_negative_deephole_count_is_an_input_error(self, files, capsys, flag):
        _, field, code = files
        assert run_main(["deephole", "--field", field, "--code", code, flag, "-1"]) == 2
        err = capsys.readouterr().err
        assert "must be >= 0" in err and "Traceback" not in err


class TestCoveringMemory:
    # F_2^8, n = 3, k = 1, one twist at t = 0: 2^24 ambient vectors, the
    # largest scan inside the default budget.  Report pinned from the
    # whole-space scan, which needed about 2.2 GB.
    FIELD = {"p": 2, "e": 1, "m": 8}
    CODE = {
        "alpha": [[int(i == j) for i in range(8)] for j in range(3)],
        "k": 1, "h": 0, "twists": [{"t": 0, "eta": [1, 1, 0, 0, 0, 0, 0, 0]}],
    }
    DEEP_HOLES = [(i, 1, 0) for i in (2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18)]
    SHA256 = "58f9c6fddfdb5ad4dbed785419df5931a40044bf7887336a17715a48f6e6381e"

    def test_largest_default_scan_fits_in_one_gib(self, tmp_path):
        field, code = tmp_path / "field.json", tmp_path / "code.json"
        field.write_text(json.dumps(self.FIELD))
        code.write_text(json.dumps(self.CODE))

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "twistgab", "covering", "--field", str(field), "--code", str(code)],
            capture_output=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=cap_address_space, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        report = json.loads(proc.stdout)["report"]
        assert report["rho"] == {"value": 2, "method": "exhaustive"}
        assert report["maximal_coset_count"] == 63750
        holes = [tuple(sum(b << i for i, b in enumerate(c)) for c in u) for u in report["deep_holes"]]
        assert holes == self.DEEP_HOLES
        assert hashlib.sha256(proc.stdout).hexdigest() == self.SHA256


def json_oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# strings and keys with non-ASCII, quote, backslash and control characters
json_text = st.text(st.sampled_from(['a', 'Z', '"', '\\', '/', '\n', '\t', '\x00', '\x1f', '\x7f',
                                     'é', 'η', '\u2028', '\ud800', '😀']), max_size=6)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), json_text,
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
)
NEAR_MISSES = ["ragged row", "empty inner list", "bool leaf", "int beyond 64 bits", "mixed rows"]


def _rows_as(obj, kind, odd=None):
    """obj with every list rebuilt as kind, and the row that is odd as the other kind."""
    if not isinstance(obj, list):
        return obj
    rows = [_rows_as(x, kind, odd) for x in obj]
    return ({list: tuple, tuple: list}[kind] if obj is odd else kind)(rows)


@st.composite
def int_blocks(draw, near_miss: bool = False):
    """A rectangular 2-D or 3-D block of exact ints, its rows all lists or all
    tuples; with near_miss, one innermost row or leaf is changed by one of
    NEAR_MISSES (every dimension at least 2, so that a longer row is ragged)."""
    shape = draw(st.lists(st.integers(1 + near_miss, 4), min_size=2, max_size=3))
    leaf = st.integers(-(2**63), 2**63 - 1)

    def build(dims):
        return [build(dims[1:]) for _ in range(dims[0])] if dims else draw(leaf)

    block, odd = build(shape), None
    if near_miss:
        parent = block
        for size in shape[:-2]:
            parent = parent[draw(st.integers(0, size - 1))]
        i = draw(st.integers(0, shape[-2] - 1))
        row, j = parent[i], draw(st.integers(0, shape[-1] - 1))
        kind = draw(st.sampled_from(NEAR_MISSES))
        if kind == "ragged row":
            row.append(draw(leaf))
        elif kind == "empty inner list":
            parent[i] = []
        elif kind == "bool leaf":
            row[j] = draw(st.booleans())
        elif kind == "int beyond 64 bits":
            row[j] = draw(st.sampled_from([2**64, -(2**64) - 1, 2**70 + 3]))
        else:
            odd = row
    return _rows_as(block, draw(st.sampled_from([list, tuple])), odd)


json_trees = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.integers(-(2**66), 2**66), max_size=5),
        int_blocks(),
        int_blocks(near_miss=True),
        st.dictionaries(json_text, children, max_size=4),
        # keys of other types, or of mixed types that do not sort
        st.dictionaries(st.one_of(st.integers(-3, 3), st.booleans(), st.none(), json_text),
                        children, max_size=3),
    ),
    max_leaves=25,
)


class TestCanonicalJson:
    @settings(max_examples=300, deadline=None)
    @given(obj=json_trees)
    def test_matches_json_dumps(self, obj):
        try:
            want = json_oracle(obj)
        except TypeError:
            with pytest.raises(TypeError):
                canonical_json(obj)
        else:
            assert canonical_json(obj) == want

    @pytest.mark.parametrize("obj", [
        np.int64(3), [np.int64(3)], [1, np.int64(3)], {"a": np.bool_(True)}, {"a": [np.uint8(1)]},
        {np.int64(1): 2}, {(1, 2): 3}, {1: 2, "a": 3}, object(),
    ])
    def test_unserializable_values_and_keys_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            json_oracle(obj)
        with pytest.raises(TypeError):
            canonical_json(obj)

    def test_a_deep_hole_block_is_one_template_fill(self, files, monkeypatch):
        tmp, field, code = files
        fills = []

        class Template(str):
            def __mod__(self, leaves):
                fills.append((self.shape, self.newline, len(leaves)))
                return str.__mod__(self, leaves)

        def spy(shape, newline):
            template = Template(block_template(shape, newline))
            template.shape, template.newline = shape, newline
            return template

        block_template = cli._int_block_template
        monkeypatch.setattr(cli, "_int_block_template", spy)
        out = tmp / "report.json"
        assert run_main(["covering", "--field", field, "--code", code, "--out", out]) == 0
        holes = json.loads(out.read_text())["report"]["deep_holes"]
        # deep holes, alpha and eta: one fill each, none per row or per digit
        assert fills == [
            ((len(holes), 4, 4), "\n    ", len(holes) * 16),
            ((4, 4), "\n    ", 16),
            ((4,), "\n        ", 4),
        ]

    def test_every_command_report(self, files, capsys, monkeypatch):
        # the report objects of the README example, as the commands build them
        tmp, field, code = files
        reports = []

        def spy(obj):
            reports.append(obj)
            return canonical_json(obj)

        monkeypatch.setattr(cli, "canonical_json", spy)
        sweep = tmp / "sweep.json"
        sweep.write_text(json.dumps({"alpha": ALPHA16, "k": 2, "h": [0, 1], "ts": [0], "etas": "all"}))
        task = tmp / "task.json"
        task.write_text(json.dumps({
            "mode": "nested", "degrees": [2], "etas": [[0, 1, 0, 0]],
            "alpha": [[1, 0, 0, 0], [0, 1, 1, 0]], "k": 1, "h": 0, "ts": [0],
        }))
        for args in (
            ["classify", "--code", code], ["classify", "--sweep", sweep], ["forbidden", "--code", code],
            ["construct", "--task", task], ["covering", "--code", code],
            ["deephole", "--code", code, "--seed", 7],
        ):
            assert run_main([*args, "--field", field]) == 0
        assert len(reports) == 6
        for obj in reports:
            assert canonical_json(obj) == json_oracle(obj)
        golden = json.loads((Path(__file__).parent / "golden_sweep_q2_m4_k2.json").read_text())
        assert canonical_json(golden) == json_oracle(golden)


# values that no well-formed input holds where a small integer or an element is due
BAD_VALUES = [True, False, None, 2.0, 0.5, "2", [], [1, 1], {}, 2**70, -(2**70), 10**9, -1, 0, 17, 40]
# towers (p, e, m) small enough for any run under the fuzz's budgets
FUZZ_TOWERS = [(2, 1, 4), (2, 1, 5), (3, 1, 3), (2, 2, 2), (5, 1, 2)]


@st.composite
def fuzz_run(draw):
    """One command line with its field, code, sweep and task files: well-formed
    inputs in which each value, key, file and flag is broken at a drawn rate."""
    rnd = draw(st.randoms(use_true_random=True))
    rate = draw(st.sampled_from([0.0, 0.03, 0.1, 0.3]))
    p, e, m = rnd.choice(FUZZ_TOWERS)

    def bad():
        return rnd.choice(BAD_VALUES) if rnd.random() < 0.7 else rnd.randint(-3, 20)

    def maybe(value):
        return bad() if rnd.random() < rate else value

    def broken(obj):  # each key dropped or given a bad value at the rate
        for key in list(obj):
            if rnd.random() < rate:
                del obj[key]
        return {key: maybe(value) for key, value in obj.items()}

    def element():
        length = m + rnd.choice([0, 0, 0, -1, 1]) if rnd.random() < rate else m
        digits = [[rnd.randrange(p) for _ in range(e)] if e > 1 else rnd.randrange(p)
                  for _ in range(length)]
        return maybe([maybe(d) for d in digits])

    def ints(lo, hi, size):
        return [maybe(rnd.randint(lo, hi)) for _ in range(rnd.randint(0, size))]

    def count(lo, hi):  # a flag value, below lo at the rate
        return rnd.randint(lo - 2, lo - 1) if rnd.random() < rate else rnd.randint(lo, hi)

    n = rnd.randint(2, m + (rnd.random() < rate))
    unit = [[int(i == j) for j in range(m)] for i in range(n)]
    alpha = unit if rnd.random() < 0.7 else [element() for _ in range(n)]
    k = rnd.randint(1, max(1, n - 1))
    ts = sorted(rnd.sample(range(max(1, n - k)), rnd.choice([0, 1, 1, 1, 2]) if n - k > 1 else 1))
    ts = [maybe(t) for t in ts]
    k = maybe(k)
    moduli = {key: ints(0, p - 1, m + 1) for key in ("top_modulus", "base_modulus") if rnd.random() < rate}
    field = broken({"p": p, "e": e, "m": m, **moduli})
    twists = [broken({"t": t, "eta": element()}) for t in ts]
    code = broken({"alpha": alpha, "k": k, "h": 0, "twists": twists})
    if not twists:
        code.pop("h", None)
    etas = rnd.choice(["all", [[element() for _ in ts] for _ in range(rnd.randint(1, 3))]])
    sweep = broken({"alpha": alpha, "k": k, "h": rnd.choice([0, [0, 1], ints(0, 2, 3)]),
                    "ts": ts, "etas": etas})
    task = {
        "mode": rnd.choice(["nested", "scalar", "sum-product-free", "bogus"]),
        "alpha": alpha, "k": k, "h": 0, "ts": ts, "degrees": ints(1, m, 2),
        "etas": [element() for _ in range(rnd.randint(1, 2))],
        "scalars": [element() for _ in range(rnd.randint(0, 2))], "s": rnd.randint(1, m),
    }
    if (p, e, m) == (2, 1, 4) and rnd.random() < 0.5:  # the README's nested task over F_4 < F_16
        task.update(mode="nested", degrees=[2], etas=[[0, 1, 0, 0]], alpha=[[1, 0, 0, 0], [0, 1, 1, 0]],
                    k=1, ts=[0])
    task = broken(task)
    docs = {"field": field, "code": code, "sweep": sweep, "task": task}
    docs = {name: maybe(doc) for name, doc in docs.items()}
    command = rnd.choice(["classify", "forbidden", "construct", "covering", "deephole"])
    flags = [f"--{name}" for name in docs if rnd.random() >= rate]
    options = [x for flag in ("--budget-subspaces", "--budget-codewords", "--budget-ambient")
               for x in (flag, count(1, 3000))]
    options += ["--grid", count(0, 20), "--sample", count(0, 70), "--seed", rnd.randint(0, 3)]
    return command, docs, flags, options


class TestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(run=fuzz_run())
    def test_every_input_ends_in_a_documented_exit(self, run):
        command, docs, flags, options = run
        with tempfile.TemporaryDirectory() as tmp:
            args = [command]
            for flag in flags:
                path = Path(tmp) / f"{flag[2:]}.json"
                path.write_text(json.dumps(docs[flag[2:]]))
                args += [flag, path]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = run_main([*args, *options])
        assert status in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
