"""Command-line front end.

One pipeline serves every subcommand: :func:`main` parses the flags, builds
the tower from ``--field`` and the ``Budgets`` from the three ``--budget-*``
flags (default ``DEFAULT_*`` of :mod:`twistgab.budget`; the only way to set
the enumeration caps, and the environment is not read), calls the command with
both, and writes its body inside the envelope ``{"schema": "twistgab/1",
"command": ...}`` as canonical JSON.  A command reads only its own inputs
(code spec, sweep grid, construction task) and returns the body.  No command
holds a rule by which two routes must agree; each hands its work to the
library function that holds the rules and only parses, draws and formats.
``classify`` hands the stack of its specs (a ``--sweep`` grid, or the one
``--code`` spec as a stack of one) to ``mrdcheck.classify_many``;
``forbidden`` hands a one-twist spec to ``mrdcheck.forbidden_sets_one_twist``;
``deephole`` draws its vectors and hands the family vectors and the samples
outside the code, as one stack, to ``covering.is_deep_hole_many``.  Reports are
byte-stable for a fixed seed: collections are sorted and JSON keys are
sorted, and :func:`canonical_json` writes each rectangular block of exact ints
(a vector, a matrix, a stack of deep holes) with one ``%d`` template.  Input
files are UTF-8 JSON whatever the locale, and one that starts with a BOM is
refused; a report is ASCII with ``\\n`` line ends, so an ``--out`` file holds
the bytes stdout gets, on every platform.  Every command runs in one thread;
``--workers`` is accepted for compatibility and ignored, because the work is
CPU-bound Python that a thread pool only slowed down.  The wall-clock time of
a command goes to stderr as a ``[timing]`` line, never into the report.

Exit codes: 0 success, 2 input error, 3 budget exceeded, 4 internal
consistency failure (two verification routes disagreed -- the most important
signal this tool can emit).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from itertools import chain, islice, product
from json.encoder import encode_basestring_ascii
from math import comb
from typing import Optional, Sequence

import numpy as np

from . import codes, covering, mrdcheck
from .budget import DEFAULT_AMBIENT, DEFAULT_CODEWORDS, DEFAULT_SUBSPACES, Budgets, check_budget
from .errors import BudgetExceededError, ConsistencyError, SpecInvariantError
from .fieldtower import FieldTower, exact_int, json_array, json_object, tower_from_json

SCHEMA = "twistgab/1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_CONSISTENCY = 4


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, written directly:
    with an indent, ``json`` falls back to its pure-Python encoder.  A
    rectangular block of exact ints at any depth (a vector, a generator
    matrix, a stack of deep holes: most nodes of a report) fills one ``%d``
    template cached per shape and indent; other values dispatch on their
    exact type first.  The text is ASCII: ``json`` escapes every other
    character."""
    return _json_value(obj, "\n") + "\n"


def _json_key(key) -> str:
    """A dict key as ``json`` writes it: a string, or a number, bool or null in quotes."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _json_value(key, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


@functools.lru_cache(maxsize=256)
def _int_block_template(shape: tuple, newline: str) -> str:
    """The layout of a rectangular int block of this shape, one ``%d`` per leaf."""
    if not shape:
        return "%d"
    inner = newline + "  "
    row = _int_block_template(shape[1:], inner)
    return "[" + inner + ("," + inner).join([row] * shape[0]) + newline + "]"


def _int_block(obj) -> Optional[tuple]:
    """(shape, leaves) of a non-empty list or tuple whose every level is
    non-empty, made of lists or tuples of one length, and whose leaves all have
    type exactly ``int`` (so no bool and no numpy int); None otherwise."""
    shape, level = [len(obj)], obj
    while True:
        kinds = {*map(type, level)}
        if kinds == {int}:
            return tuple(shape), level
        if not kinds <= {list, tuple}:
            return None
        lengths = {*map(len, level)}
        if len(lengths) != 1 or 0 in lengths:
            return None
        shape.append(lengths.pop())
        level = [*chain.from_iterable(level)]


# writers by exact type (json's float layout, NaN and Infinity included); a
# subclass of str, int or float goes to its base's
_EXACT = {str: encode_basestring_ascii, int: int.__repr__, float: json.dumps,
          bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _json_value(obj, newline: str) -> str:
    """obj in the layout of ``json.dumps(obj, sort_keys=True, indent=2)``, its
    lines after the first starting with ``newline``."""
    kind = type(obj)
    if kind in _EXACT:
        return _EXACT[kind](obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if (block := _int_block(obj)) is not None:  # one template fill
            shape, leaves = block
            return _int_block_template(shape, newline) % tuple(leaves)
        items = [_json_value(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            _json_key(key) + ": " + _json_value(value, inner)
            for key, value in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    for base in (str, int, float):
        if isinstance(obj, base):
            return _EXACT[base](obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _load_json(path: str):
    """The JSON document in a file, decoded as strict UTF-8 whatever the
    locale; a BOM is kept, so ``json`` refuses it."""
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's recursion limit
        raise ValueError(f"cannot read JSON from {path}: {exc}") from exc


def _load_tower(args) -> FieldTower:
    if not args.field:
        raise ValueError("--field is required")
    return tower_from_json(_load_json(args.field))


def _load_spec(tower: FieldTower, path: str) -> codes.CodeSpec:
    obj = _load_json(path)
    if isinstance(obj, dict) and "code" in obj:  # output of `construct`
        obj = obj["code"]
    return codes.CodeSpec.from_json_dict(tower, obj)


def _write_report(args, report: dict) -> None:
    text = canonical_json(report)
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "wb") as fh:  # ASCII bytes, "\n" line ends on every platform
            fh.write(text.encode("ascii"))
    except OSError as exc:
        raise ValueError(f"cannot write report to {args.out}: {exc}") from exc


def _code(args, tower: FieldTower) -> codes.CodeSpec:
    """The --code spec of a command that needs one code."""
    if not args.code:
        raise ValueError(f"{args.command} needs --code")
    return _load_spec(tower, args.code)


def _classify_entries(
    tower: FieldTower, specs: list[codes.CodeSpec], budgets: Budgets
) -> list[dict]:
    """The classify entries of specs that share alpha and k (a sweep, or one
    --code spec), from ``mrdcheck.classify_many``, which raises on the first
    spec whose routes disagree."""
    n, k = specs[0].n, specs[0].k
    enumerated = {
        "message_classes": codes.projective_class_count(tower.order, k),
        "dual_message_classes": codes.projective_class_count(tower.order, n - k),
        "subspace_representatives": mrdcheck.gaussian_binomial(n, k, tower.q),
        "k_subsets": comb(n, k),
    }
    results = mrdcheck.classify_many(specs, budgets)
    return [
        {
            "spec": spec.to_json_dict(),
            "report": report.to_json_dict(tower),
            "subspace_mrd": subspace_mrd,
            "omega_witness": list(w) if (w := hclass.vanishing_subset) is not None else None,
            "hamming_class": hclass.to_json_dict(),
            "routes_agree": True,
            "enumerated": enumerated,
        }
        for spec, (report, subspace_mrd, hclass) in zip(specs, results)
    ]


def _elements(tower: FieldTower, obj, what: str) -> list:
    return [tower.element_from_json(e) for e in json_array(obj, what)]


def _sweep_specs(tower: FieldTower, grid: dict, budgets: Budgets) -> list[codes.CodeSpec]:
    grid = json_object(grid, "a sweep grid")
    alpha = tuple(_elements(tower, grid["alpha"], "alpha"))
    k = exact_int(grid["k"])
    if not 1 <= k < len(alpha):
        # checked before the class counts below, which k outside [1, n) breaks
        raise ValueError(f"need 1 <= k < n, got k={k}, n={len(alpha)}")
    hs = grid.get("h", [0])
    hs = [exact_int(h) for h in ([hs] if isinstance(hs, int) else json_array(hs, "h"))]
    ts = tuple(exact_int(x) for x in json_array(grid.get("ts", [0]), "ts"))
    etas = grid.get("etas", "all")
    if etas == "all":
        # counted here, listed only once the budget admits them
        eta_tuples = product(tower.nonzero_elements(), repeat=len(ts))
        n_etas = (tower.order - 1) ** len(ts)
    else:
        eta_tuples = [
            tuple(_elements(tower, tup, "an eta tuple")) for tup in json_array(etas, "etas")
        ]
        if any(len(tup) != len(ts) for tup in eta_tuples):
            raise ValueError(f"each eta tuple needs one eta per entry of ts = {list(ts)}")
        n_etas = len(eta_tuples)
    needed = codes.distance_class_count(len(hs) * n_etas, tower.order, len(alpha), k)
    check_budget("codeword", needed, budgets.codewords)
    return [
        codes.CodeSpec(tower, alpha, k, h, tuple(zip(ts, tup)))
        for h, tup in product(hs, eta_tuples)
    ]


def cmd_classify(args, tower: FieldTower, budgets: Budgets) -> dict:
    if args.sweep:
        specs = _sweep_specs(tower, _load_json(args.sweep), budgets)
    elif args.code:
        specs = [_load_spec(tower, args.code)]
    else:
        raise ValueError("classify needs --code or --sweep")
    return {"entries": _classify_entries(tower, specs, budgets) if specs else []}


def cmd_forbidden(args, tower: FieldTower, budgets: Budgets) -> dict:
    spec = _code(args, tower)
    out = {"spec": spec.to_json_dict()}
    if spec.ell == 1:
        sets = mrdcheck.forbidden_sets_one_twist(spec, budgets)
        out.update((name, fset.to_json_dict(tower)) for name, fset in sets.items())
    elif spec.ell >= 2:
        witness = mrdcheck.omega_witness(spec, budgets)
        out["omega_witness"] = list(witness) if witness is not None else None
        out["certifies_non_mrd"] = witness is not None
    else:
        raise ValueError("forbidden sets are defined for twisted codes (l >= 1)")
    return out


def cmd_construct(args, tower: FieldTower, budgets: Budgets) -> dict:
    if not args.task:
        raise ValueError("construct needs --task with the construction description")
    task = json_object(_load_json(args.task), "a construction task")
    mode = task.get("mode", "nested")
    alpha = tuple(_elements(tower, task["alpha"], "alpha"))
    k = exact_int(task["k"])
    h = exact_int(task.get("h", 0))
    ts = [exact_int(x) for x in json_array(task["ts"], "ts")]
    if mode not in ("nested", "scalar", "sum-product-free"):
        raise ValueError(f"unknown construction mode {mode!r}")
    if mode == "sum-product-free":
        degrees = [exact_int(task["s"])]
    else:
        degrees = [exact_int(s) for s in json_array(task["degrees"], "degrees")]
    etas = _elements(tower, task["etas"], "etas")
    if mode == "scalar":
        if len(degrees) != 1 or len(etas) != 1:
            raise ValueError("scalar mode needs exactly one degree and one eta")
        etas += _elements(tower, task.get("scalars", []), "scalars")
    chain = mrdcheck.SubfieldChain(mode, tuple(degrees), tuple(etas))
    spec, verified = mrdcheck.construct_chain_mrd(tower, chain, alpha, k, h, ts, budgets)
    return {
        "mode": mode,
        "code": spec.to_json_dict(),
        "verified_mrd": verified,
        "verification_method": "subspace-criterion" if verified else "theorem-only",
    }


def cmd_covering(args, tower: FieldTower, budgets: Budgets) -> dict:
    spec = _code(args, tower)
    report = covering.covering_radius_exhaustive(spec, budgets)
    return {"spec": spec.to_json_dict(), "report": report.to_json_dict(tower)}


def cmd_deephole(args, tower: FieldTower, budgets: Budgets) -> dict:
    if args.grid < 0 or args.sample < 0:
        raise ValueError("--grid and --sample must be >= 0")
    spec = _code(args, tower)
    if not covering.in_one_twist_t0_family(spec):
        # whatever --grid and --sample ask for, before any draw or walk
        raise SpecInvariantError(covering.FAMILY_REFUSAL)
    grid = list(islice(product(sorted(tower.nonzero_elements()), ("x^[k]", "x^[h]")), args.grid))
    # every vector the distance route may weigh, counted before the walk and the draws
    covering.check_distance_budget(spec, len(grid) + args.sample, budgets)
    rng = random.Random(args.seed)
    # all vectors are drawn first, each family's f and then each sample
    families = [(g, fl, [tower.random_element(rng) for _ in range(spec.k)]) for g, fl in grid]
    us = [covering.deep_hole_family(spec, *family) for family in families]
    draws = [[tower.random_element(rng) for _ in range(spec.n)] for _ in range(args.sample)]
    samples = np.reshape(draws, (-1, spec.n))
    outside = samples[~covering.contains_many(spec, samples)]
    report = covering.covering_radius_exhaustive(spec, budgets)
    # one stack for the distance and extension routes, which is_deep_hole_many
    # cross-checks: the family vectors, then the samples outside the code
    stack = np.array([*us, *outside], dtype=np.int64).reshape(-1, spec.n)
    verified = covering.is_deep_hole_many(spec, stack, report, budgets)[: len(us)]
    gs = tower.elements_to_json([g for g, _, _ in families])
    fs = tower.elements_to_json(np.reshape([f for _, _, f in families], (-1, spec.k)))
    vectors = tower.elements_to_json(np.reshape(us, (-1, spec.n)))
    family_entries = [
        {"flavor": flavor, "g": g, "f": f, "vector": vector, "verified": bool(ok)}
        for (_, flavor, _), g, f, vector, ok in zip(families, gs, fs, vectors, verified)
    ]
    return {
        "spec": spec.to_json_dict(),
        "rho": {"value": report.rho, "method": report.rho_method},
        "families": family_entries,
        "all_families_verified": all(e["verified"] for e in family_entries),
        "sampled_iff_checks": {"agree": len(outside), "total": len(outside)},
    }


_COMMANDS = {
    "classify": cmd_classify,
    "forbidden": cmd_forbidden,
    "construct": cmd_construct,
    "covering": cmd_covering,
    "deephole": cmd_deephole,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use; parsing
    does not change it."""
    ap = argparse.ArgumentParser(
        prog="twistgab",
        description="Construct twisted Gabidulin codes and verify their "
        "MRD/MDS/AMDS/NMDS and covering-radius properties.",
    )
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--field", help="field-spec JSON path", required=False)
    ap.add_argument("--code", help="code-spec JSON path")
    ap.add_argument("--sweep", help="sweep-grid JSON path (classify only)")
    ap.add_argument("--task", help="construction description JSON path (construct only)")
    ap.add_argument("--budget-subspaces", type=int, default=DEFAULT_SUBSPACES)
    ap.add_argument("--budget-codewords", type=int, default=DEFAULT_CODEWORDS)
    ap.add_argument("--budget-ambient", type=int, default=DEFAULT_AMBIENT)
    ap.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted and ignored: every command runs in a single thread",
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--grid", type=int, default=16, help="deephole family grid size")
    ap.add_argument("--sample", type=int, default=64, help="deephole sampled iff checks")
    ap.add_argument("--out", help="report output path (stdout when omitted)")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        tower = _load_tower(args)
        budgets = Budgets(args.budget_subspaces, args.budget_codewords, args.budget_ambient)
        body = _COMMANDS[args.command](args, tower, budgets)
        print(f"[timing] {args.command}: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
        _write_report(args, {"schema": SCHEMA, "command": args.command, **body})
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
