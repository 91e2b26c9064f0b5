"""Covering radii and deep holes in the rank metric.

The exhaustive covering radius walks the whole ambient space once, grouped by
syndrome: the distance from a vector to the code is the minimum rank weight in
its coset, so one weight per ambient vector suffices.  The pass is one numpy
scan for every field: syndromes come from the vectorized field operations,
rank weights from :meth:`FieldTower.fq_rank_many`.  The distance route
(:func:`distance_to_code`) stays scalar and independent of the scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Optional, Sequence

import numpy as np

from . import moore
from .budget import Budgets, check_budget
from .codes import CodeSpec, _codewords, encode, generator_matrix
from .errors import BudgetExceededError, ConsistencyError, SpecInvariantError
from .fieldtower import Element, FieldTower
from .mrdcheck import matrix_is_mrd


@dataclass
class CoveringReport:
    """Covering radius with per-number provenance and a deep-hole sample."""

    n: int
    k: int
    rho: Optional[int]
    rho_method: Optional[str]  # "exhaustive" or None when only bounds are known
    lower_bound: int
    upper_bound: int
    bounds_method: str  # "theorem-bound"
    deep_holes: list[tuple[Element, ...]] = field(default_factory=list)
    maximal_coset_count: Optional[int] = None
    coset_count: Optional[int] = None

    def __post_init__(self):
        if self.rho is not None:
            if not self.lower_bound <= self.rho <= self.upper_bound:
                raise ConsistencyError(
                    f"exhaustive rho = {self.rho} violates theorem bounds "
                    f"[{self.lower_bound}, {self.upper_bound}]"
                )

    def to_json_dict(self, tower: FieldTower) -> dict:
        def tagged(value, method):
            return {"value": value, "method": method}

        return {
            "n": self.n,
            "k": self.k,
            "rho": tagged(self.rho, self.rho_method) if self.rho is not None else None,
            "lower_bound": tagged(self.lower_bound, self.bounds_method),
            "upper_bound": tagged(self.upper_bound, self.bounds_method),
            "deep_holes": [
                [tower.element_to_json(c) for c in u] for u in self.deep_holes
            ],
            "maximal_coset_count": self.maximal_coset_count,
            "coset_count": self.coset_count,
        }


def contains(spec: CodeSpec, u: Sequence[Element]) -> bool:
    """True iff u lies in the code's row space."""
    t = spec.tower
    G = generator_matrix(spec)
    stacked = np.vstack([G, np.asarray(u, dtype=np.int64)])
    return moore.rank_fqm(t, stacked) == spec.k


def distance_to_code(u: Sequence[Element], spec: CodeSpec, budgets: Budgets = Budgets()) -> int:
    """Exact min over all q^(mk) codewords of the rank weight of u - c."""
    t = spec.tower
    check_budget("codeword", t.order**spec.k, budgets.codewords)
    u = [int(x) for x in u]
    best = spec.n
    messages = iproduct(range(t.order), repeat=spec.k)
    for c in _codewords(t, generator_matrix(spec), messages):
        diff = [t.sub(a, b) for a, b in zip(u, c)]
        w = t.fq_rank(diff)
        if w < best:
            best = w
            if best == 0:
                break
    return best


def covering_bounds(spec: CodeSpec) -> tuple[int, int]:
    """Theorem bounds on the covering radius.

    Contiguous twist exponents (0, 1, ..., l-1) give
    n-k-l+1 <= rho <= n-k (exact n-k for a single twist at 0); anything else
    gets the generic 0 <= rho <= n-k.
    """
    n, k = spec.n, spec.k
    ts = tuple(tj for tj, _ in spec.twists)
    if ts and ts == tuple(range(len(ts))):
        return max(0, n - k - len(ts) + 1), n - k
    return 0, n - k


def _scan(spec: CodeSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ambient pass: per-vector syndrome and rank weight, per-coset minimum.

    Vectors are visited in index order (component j is digit j of the index
    in base q^m).  The syndrome H.u^T packs its n-k entries base q^m, so it is
    already a dense coset id in [0, q^(m(n-k))).
    """
    t = spec.tower
    N = t.order
    H = moore.nullspace_fqm(t, generator_matrix(spec))
    idx = np.arange(N**spec.n, dtype=np.int64)
    comps = [idx // N**j % N for j in range(spec.n)]
    # peak memory: free the index, and let the rank elimination's slot arrays
    # go before the syndrome arrays are built
    del idx
    rank = t.fq_rank_many(comps)
    synd = np.zeros_like(rank)
    for row in H:
        s_i = np.zeros_like(rank)
        for hj, col in zip(row, comps):
            s_i = t.add_many(s_i, t.mul_many(np.int64(hj), col))
        synd = synd * N + s_i
    coset_count = N ** (spec.n - spec.k)
    hits = np.bincount(synd, minlength=coset_count)
    if len(hits) != coset_count or not hits.all():
        raise ConsistencyError("syndromes do not cover the q^(m(n-k)) cosets exactly")
    coset_min = np.full(coset_count, spec.n + 1, dtype=np.int64)
    np.minimum.at(coset_min, synd, rank)
    return synd, rank, coset_min


# deep holes listed per report, to keep reports small
MAX_DEEP_HOLES = 16


def _unpack_vector(order: int, n: int, u_idx: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(u_idx % order)
        u_idx //= order
    return tuple(out)


def covering_radius_exhaustive(spec: CodeSpec, budgets: Budgets = Budgets()) -> CoveringReport:
    """Exact covering radius by one ambient pass grouped by syndrome.

    Reported deep holes are coset leaders (minimum-weight vectors of maximal
    cosets) in ascending vector order, capped at ``MAX_DEEP_HOLES``.  If the
    ambient space exceeds the budget the report carries theorem bounds only.
    """
    t = spec.tower
    n, k = spec.n, spec.k
    lo, hi = covering_bounds(spec)
    total = t.order**n
    if total > budgets.ambient:
        return CoveringReport(
            n=n, k=k, rho=None, rho_method=None,
            lower_bound=lo, upper_bound=hi, bounds_method="theorem-bound",
        )
    synd, rank, coset_min = _scan(spec)
    rho = int(coset_min.max())
    # one representative per maximal coset: the first minimum-weight vector,
    # capped to keep reports small
    is_leader = (rank == rho) & (coset_min[synd] == rho)
    deep_holes = []
    seen = set()
    for i in np.flatnonzero(is_leader):
        s = int(synd[i])
        if s in seen:
            continue
        seen.add(s)
        deep_holes.append(_unpack_vector(t.order, n, int(i)))
        if len(deep_holes) >= MAX_DEEP_HOLES:
            break
    return CoveringReport(
        n=n, k=k, rho=rho, rho_method="exhaustive",
        lower_bound=lo, upper_bound=hi, bounds_method="theorem-bound",
        deep_holes=deep_holes,
        maximal_coset_count=int((coset_min == rho).sum()),
        coset_count=len(coset_min),
    )


def is_deep_hole(
    u: Sequence[Element],
    spec: CodeSpec,
    report: Optional[CoveringReport] = None,
    budgets: Budgets = Budgets(),
) -> bool:
    """True iff the distance from u to the code equals the covering radius."""
    if report is None or report.rho is None:
        report = covering_radius_exhaustive(spec, budgets)
    if report.rho is None:
        raise BudgetExceededError(
            "covering radius unknown: ambient space too large for brute force"
        )
    return distance_to_code(u, spec, budgets) == report.rho


def deep_hole_via_extension(
    u: Sequence[Element], spec: CodeSpec, budgets: Budgets = Budgets()
) -> bool:
    """Deep-hole test for the single-twist t = 0 family via code extension.

    Stacks u under the generator and tests the (k+1)-row matrix for MRD; by
    the extension theorem this is equivalent to u being a deep hole.
    """
    if spec.ell != 1 or spec.twists[0][0] != 0:
        raise SpecInvariantError("extension test applies to a single twist with t = 0")
    t = spec.tower
    if contains(spec, u):
        raise SpecInvariantError("u lies in the code; the extension would be degenerate")
    G = generator_matrix(spec)
    stacked = np.vstack([G, np.asarray(u, dtype=np.int64)])
    return matrix_is_mrd(t, stacked, budgets)


def deep_hole_family(
    spec: CodeSpec,
    g: Element,
    flavor: str,
    f_coeffs: Sequence[Element] = (),
) -> np.ndarray:
    """Evaluation vector of g * x^[k] + f(x) (or g * x^[h] + f(x)), f in the twist family.

    Both families are guaranteed deep holes of the single-twist t = 0 code;
    flavor is "x^[k]" or "x^[h]".
    """
    if spec.ell != 1 or spec.twists[0][0] != 0:
        raise SpecInvariantError("deep-hole families are defined for one twist with t = 0")
    if g == 0:
        raise SpecInvariantError("g must be non-zero (g = 0 would land in the code)")
    if flavor not in ("x^[k]", "x^[h]"):
        raise ValueError("flavor must be 'x^[k]' or 'x^[h]'")
    t = spec.tower
    f_coeffs = list(f_coeffs) or [0] * spec.k
    if len(f_coeffs) != spec.k:
        raise ValueError(f"f needs {spec.k} coefficients")
    exponent = spec.k if flavor == "x^[k]" else spec.h
    a = np.asarray(spec.alpha, dtype=np.int64)
    u = t.mul_many(np.int64(int(g)), t.frob_many(a, exponent))
    return t.add_many(u, encode(spec, f_coeffs))
