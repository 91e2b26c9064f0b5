"""Seeded inputs for the four benchmark workloads.

A workload is a *pass*: a fixed list of CLI jobs that the benchmark runs in a
closed loop, one job after another.  The seed picks the alpha bases (random
F_q-independent n-tuples), the eta values, h, t and the deephole ``--seed``.
The field, n and k of every job are fixed per workload, so the work in a pass
hardly changes from seed to seed.  The program only ever sees the JSON files
written here.

The job counts below are chosen so that, with the job times measured on a
2-core Xeon VM, the median and the 90th percentile of job wall time each land
inside one job class and not on the edge between two (see README.md).
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sweep", "subspace", "covering", "oddp")


@dataclass(frozen=True)
class Job:
    """One CLI invocation of a pass.

    ``report`` names the report the job must write: jobs that share it (the
    same job in another pass, or a sweep at another worker count) must write
    the same bytes.  ``n_minus_k`` is the covering radius the paper gives for
    a one-twist t = 0 code, or None when the job computes no radius.
    """

    key: str
    kind: str
    argv: tuple[str, ...]
    report: str
    n_minus_k: int | None = None


@dataclass
class _Field:
    """A field F_(q^m) over F_q = F_(p^e), as the program's JSON sees it."""

    p: int
    e: int
    m: int
    small: object  # the program's FieldTower for F_q itself (m = 1)
    path: str
    q: int = field(init=False)
    order: int = field(init=False)

    def __post_init__(self):
        self.q = self.p**self.e
        self.order = self.q**self.m

    def digits(self, x: int) -> list[int]:
        return [(x // self.q**j) % self.q for j in range(self.m)]

    def to_json(self, x: int):
        ds = self.digits(x)
        if self.e == 1:
            return ds
        return [[(d // self.p**i) % self.p for i in range(self.e)] for d in ds]

    def independent(self, rng: random.Random, n: int) -> list[int]:
        """A uniformly random F_q-independent n-tuple of F_(q^m)."""
        while True:
            xs = [rng.randrange(1, self.order) for _ in range(n)]
            pivots, _ = self.small.fq_echelon([self.digits(x) for x in xs])
            if len(pivots) == n:
                return xs

    def nonzero(self, rng: random.Random) -> int:
        return rng.randrange(1, self.order)


class _Writer:
    """Writes the JSON inputs of one workload into a directory."""

    def __init__(self, tg, workdir: Path, seed: int):
        self.tg = tg
        self.dir = workdir
        self.rng = random.Random(seed)
        self.jobs: list[Job] = []
        self._fields: dict[tuple[int, int, int], _Field] = {}

    def write(self, name: str, obj) -> str:
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(obj, sort_keys=True))
        return str(path)

    def field(self, p: int, e: int, m: int) -> _Field:
        if (p, e, m) not in self._fields:
            ft = self.tg.fieldtower
            small = ft.FieldTower(ft.TowerParams(p, e, 1))
            spec = {"p": p, "e": e, "m": m}
            if e > 1:
                spec["base_modulus"] = list(small.base_modulus)
            path = self.write(f"field-{p}-{e}-{m}", spec)
            self._fields[(p, e, m)] = _Field(p, e, m, small, path)
        return self._fields[(p, e, m)]

    def code(self, name: str, f: _Field, n: int, k: int, h: int, t: int) -> str:
        alpha = f.independent(self.rng, n)
        return self.write(name, {
            "alpha": [f.to_json(a) for a in alpha],
            "k": k,
            "h": h,
            "twists": [{"t": t, "eta": f.to_json(f.nonzero(self.rng))}],
        })

    def twisted(self, name: str, f: _Field, n: int, k: int) -> str:
        """One-twist code with seeded h and t."""
        h = self.rng.randrange(k)
        t = self.rng.randrange(n - k)
        return self.code(name, f, n, k, h, t)

    def add(self, key: str, kind: str, argv: list[str], report: str | None = None,
            n_minus_k: int | None = None) -> None:
        self.jobs.append(Job(key, kind, tuple(argv), report or key, n_minus_k))


# -- sweep ------------------------------------------------------------------------
# classify --sweep over F_2^5 and F_2^6 (n = 5, k = 2, one twist at t = 0,
# h in {0, 1}, a seeded block of eta), each grid at --workers 1 and 2.
# With 10 F_2^6 grids to 6 F_2^5 grids the median job falls inside the F_2^6
# --workers 1 jobs and the 90th percentile inside the F_2^6 --workers 2 jobs.
# Normalized times of --workers 2 jobs move more with the host's load than
# those of --workers 1 jobs, so the median is kept off them.
SWEEP_GRIDS = ((5, 6, 4), (6, 10, 2))  # (m, grids per pass, etas per grid)


def _sweep(w: _Writer) -> None:
    for m, grids, block in SWEEP_GRIDS:
        f = w.field(2, 1, m)
        for g in range(grids):
            alpha = f.independent(w.rng, 5)
            etas = w.rng.sample(range(1, f.order), block)
            path = w.write(f"grid-m{m}-{g}", {
                "alpha": [f.to_json(a) for a in alpha],
                "k": 2,
                "h": [0, 1],
                "ts": [0],
                "etas": [[f.to_json(x)] for x in etas],
            })
            for workers in (1, 2):
                w.add(f"grid-m{m}-{g}-w{workers}", f"classify-sweep-m{m}-w{workers}",
                      ["classify", "--field", f.path, "--sweep", path,
                       "--workers", str(workers)], report=f"grid-m{m}-{g}")


# -- subspace ---------------------------------------------------------------------
# forbidden on one-twist codes over F_2^6 (n = 6, k = 3: 1 395 subspaces) and
# F_2^7 (n = 7, k = 3: 11 811 subspaces), plus construct jobs over F_2^8 whose
# MRD claim is re-verified by mrd_membership_multi.
SUBSPACE_FORBIDDEN = ((6, 6, 3, 18), (7, 7, 3, 1))  # (m, n, k, jobs per pass)
SUBSPACE_CONSTRUCT = 4  # jobs per pass, alternating nested / sum-product-free


def _subspace(w: _Writer) -> None:
    for m, n, k, count in SUBSPACE_FORBIDDEN:
        f = w.field(2, 1, m)
        for i in range(count):
            code = w.twisted(f"forbidden-m{m}-{i}", f, n, k)
            w.add(f"forbidden-m{m}-{i}", f"forbidden-m{m}",
                  ["forbidden", "--field", f.path, "--code", code])
    f = w.field(2, 1, 8)
    tower = w.tg.fieldtower.tower_from_json({"p": 2, "e": 1, "m": 8})
    sub = [x for x in tower.subfield_elements(4) if x]
    outside = [x for x in tower.nonzero_elements() if not tower.subfield_membership(x, 4)]
    for i in range(SUBSPACE_CONSTRUCT):
        while True:
            alpha = w.rng.sample(sub, 4)
            if tower.fq_rank(alpha) == 4:
                break
        eta = w.rng.choice(outside)
        if i % 2 == 0:
            task = {"mode": "nested", "degrees": [4], "etas": [f.to_json(eta)],
                    "k": 2, "h": w.rng.randrange(2), "ts": [w.rng.randrange(2)]}
        else:
            b = w.rng.choice(sub)
            task = {"mode": "sum-product-free", "s": 4,
                    "etas": [f.to_json(eta), f.to_json(tower.mul(b, eta))],
                    "k": 2, "h": w.rng.randrange(2), "ts": [0, 1]}
        task["alpha"] = [f.to_json(a) for a in alpha]
        path = w.write(f"construct-{i}", task)
        w.add(f"construct-{i}", f"construct-{task['mode']}",
              ["construct", "--field", f.path, "--task", path])


# -- covering ---------------------------------------------------------------------
# covering and deephole jobs on one-twist t = 0 codes.  (p, e, m, n, k, command,
# jobs per pass); deephole runs with a small family grid and sample.
COVERING_JOBS = (
    (2, 1, 6, 3, 1, "covering", 50),   # 2^18 ambient vectors
    (2, 1, 7, 3, 1, "covering", 1),    # 2^21 ambient vectors, about 330 MB
    (2, 1, 5, 4, 2, "deephole", 8),    # 2^10 codewords per distance call
    (2, 2, 3, 3, 1, "covering", 1),    # F_4 <= F_64: the scalar q > 2 scan
)
DEEPHOLE_ARGS = ("--grid", "4", "--sample", "8")


def _covering(w: _Writer) -> None:
    for p, e, m, n, k, command, count in COVERING_JOBS:
        f = w.field(p, e, m)
        for i in range(count):
            name = f"{command}-q{f.q}-m{m}-n{n}-{i}"
            code = w.code(name, f, n, k, w.rng.randrange(k), 0)
            argv = [command, "--field", f.path, "--code", code]
            if command == "deephole":
                argv += [*DEEPHOLE_ARGS, "--seed", str(w.rng.randrange(1 << 16))]
            w.add(name, f"{command}-q{f.q}-m{m}-n{n}", argv, n_minus_k=n - k)


# -- oddp -------------------------------------------------------------------------
# Odd-characteristic towers, rebuilt by the CLI on every job.  (p, e, m, n, k,
# command, jobs per pass).  The F_3^7 classify jobs die today with
# NotImplementedError from FieldTower.add_many (vectorized addition stops at
# order 1024 for odd p); they stay in the pass and count as failed.
ODDP_JOBS = (
    (3, 1, 4, 4, 2, "classify", 5),
    (3, 1, 4, 4, 2, "forbidden", 4),
    (5, 1, 3, 3, 1, "classify", 4),
    (5, 1, 3, 3, 1, "forbidden", 3),
    (3, 1, 7, 4, 2, "classify", 2),
    (3, 1, 4, 2, 1, "covering", 1),
    (5, 1, 3, 2, 1, "covering", 1),
    (3, 1, 5, 4, 2, "classify", 1),
    (3, 1, 5, 4, 2, "forbidden", 1),
    (7, 1, 3, 3, 1, "classify", 1),
    (7, 1, 3, 3, 1, "forbidden", 1),
    (3, 2, 3, 3, 1, "classify", 1),
    (3, 2, 3, 3, 1, "forbidden", 1),
)


def _oddp(w: _Writer) -> None:
    for p, e, m, n, k, command, count in ODDP_JOBS:
        f = w.field(p, e, m)
        for i in range(count):
            name = f"{command}-q{f.q}-m{m}-n{n}-{i}"
            if command == "covering":
                code = w.code(name, f, n, k, 0, 0)
            else:
                code = w.twisted(name, f, n, k)
            w.add(name, f"{command}-q{f.q}-m{m}", [command, "--field", f.path, "--code", code],
                  n_minus_k=n - k if command == "covering" else None)


_BUILDERS = {"sweep": _sweep, "subspace": _subspace, "covering": _covering, "oddp": _oddp}


def _spread(jobs: list[Job]) -> list[Job]:
    """Order a pass so that the jobs of every kind are spread evenly over it.

    The machine's speed drifts over seconds; spreading each kind over the
    whole pass makes its times sample that drift instead of one window of it.
    """
    total, seen = Counter(j.kind for j in jobs), Counter()
    keyed = []
    for job in jobs:
        keyed.append(((seen[job.kind] + 0.5) / total[job.kind], job))
        seen[job.kind] += 1
    return [job for _, job in sorted(keyed, key=lambda kj: kj[0])]


def build(name: str, seed: int, tg, workdir: Path) -> list[Job]:
    """Write the inputs of workload `name` for `seed` and return its pass.

    `tg` is the imported twistgab package; its FieldTower supplies F_q
    arithmetic for the independence checks.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    w = _Writer(tg, workdir, seed)
    _BUILDERS[name](w)
    return _spread(w.jobs)
