"""Covering radii and deep holes in the rank metric.

The exhaustive covering radius walks F_(q^m)^n once as (components 1..n-1, the
prefix) x (component 0), grouped by syndrome: a vector's distance to the code is
the least rank weight in its coset.  A prefix's F_q-span is scattered into a
membership grid, so rank(u) = rank(prefix) + [u_0 not in span(prefix)] needs no
elimination; a syndrome entry is a sum of q^m-entry tables h_ij * c.  Chunks of
whole prefixes fold into one int64 per coset, min(rank * q^(mn) + index): its
minimum and first minimum-weight vector.  Memory is O(prefix tables + chunk +
cosets).  Scalar ``fq_rank`` and H.u^T are the scan's test oracles.

The distance route (:func:`distance_to_code`) shares nothing with the scan: it
walks the coset u + C as the message classes of the stacked matrix [u; G] led
by u, in the numpy blocks of the distance enumeration, encodes them with
``moore.matmul`` and weighs them with ``fq_rank_many``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import moore
from .budget import Budgets, check_budget
from .codes import CodeSpec, _class_message_blocks, encode, generator_matrix
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
        if self.rho is not None and not self.lower_bound <= self.rho <= self.upper_bound:
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


def _vector(spec: CodeSpec, u: Sequence[Element]) -> np.ndarray:
    """u as an int64 array, once it is known to be a vector of F_(q^m)^n; every
    public function takes u after the spec, f(spec, u, ...)."""
    v, order = np.asarray(u, dtype=np.int64), spec.tower.order
    if v.shape != (spec.n,) or ((v < 0) | (v >= order)).any():
        raise ValueError(f"u must have length n = {spec.n} and entries in [0, {order})")
    return v


def contains(spec: CodeSpec, u: Sequence[Element]) -> bool:
    """True iff u lies in the code's row space."""
    stacked = np.vstack([generator_matrix(spec), _vector(spec, u)])
    return moore.rank_fqm(spec.tower, stacked) == spec.k


def distance_to_code(spec: CodeSpec, u: Sequence[Element], budgets: Budgets = Budgets()) -> int:
    """Exact min over all q^(mk) codewords c of the rank weight of u - c.

    The message classes of [u; G] led by u's coordinate, messages (1, m), are
    the vectors u + c, c in C, and come first in the enumeration; the walk
    stops at the first block without one, or at distance 0.
    """
    stacked = np.vstack([_vector(spec, u), generator_matrix(spec)])
    t = spec.tower
    check_budget("codeword", t.order**spec.k, budgets.codewords)
    best = spec.n
    for msgs in _class_message_blocks(t.order, spec.k + 1):
        msgs = msgs[msgs[:, 0] == 1]
        if not len(msgs):
            break
        best = min(best, int(t.fq_rank_many(list(moore.matmul(t, msgs, stacked).T)).min()))
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


# ambient vectors per chunk of the scan, rounded down to whole prefixes
_CHUNK_VECTORS = 1 << 14


def _scan_blocks(spec: CodeSpec):
    """(index, syndrome, rank) per chunk.  Component j is digit j of the index base
    q^m; the syndrome H.u^T packs its n-k entries base q^m, a dense coset id."""
    t, n, N, q = spec.tower, spec.n, spec.tower.order, spec.tower.q
    H = moore.nullspace_fqm(t, generator_matrix(spec))
    x = np.arange(N, dtype=np.int64)
    tables = [[t.mul_many(np.int64(h), x) for h in row] for row in H]  # h_ij * c
    multiples = t.mul_many(x[:, None], np.arange(q, dtype=np.int64))  # [c, a] = a * c
    prefixes, step = N ** (n - 1), max(1, _CHUNK_VECTORS // N)
    for lo in range(0, prefixes, step):
        pre = np.arange(lo, min(lo + step, prefixes), dtype=np.int64)
        comps = [pre // N**j % N for j in range(n - 1)]
        span = np.zeros((len(pre), 1), dtype=np.int64)
        for c in comps:
            span = t.add_many(span[:, :, None], multiples[c][:, None, :]).reshape(len(pre), -1)
        member = np.zeros((len(pre), N), dtype=bool)
        member[np.arange(len(pre))[:, None], span] = True
        prefix_rank = np.searchsorted(q ** np.arange(n), np.count_nonzero(member, axis=1))
        rank = prefix_rank[:, None] + ~member
        synd = np.zeros_like(rank)
        for row in tables:
            s_pre = np.zeros_like(pre)
            for tab, c in zip(row[1:], comps):
                s_pre = t.add_many(s_pre, tab[c])
            synd = synd * N + t.add_many(s_pre[:, None], row[0])
        yield np.arange(lo * N, (lo + len(pre)) * N), synd.ravel(), rank.ravel()


def _scan(spec: CodeSpec) -> np.ndarray:
    """Per coset, min(rank * q^(mn) + index) over its vectors: the quotient is the
    coset's distance to the code, the remainder its first minimum-weight vector."""
    total = spec.tower.order**spec.n
    coset_count = spec.tower.order ** (spec.n - spec.k)
    best = np.full(coset_count, (spec.n + 1) * total, dtype=np.int64)
    hits = np.zeros(coset_count, dtype=np.int64)
    uncovered = ConsistencyError("syndromes do not cover the q^(m(n-k)) cosets exactly")
    for index, synd, rank in _scan_blocks(spec):
        chunk_hits = np.bincount(synd, minlength=coset_count)
        if len(chunk_hits) != coset_count:
            raise uncovered
        hits += chunk_hits
        np.minimum.at(best, synd, rank * total + index)
    if not hits.all():
        raise uncovered
    return best


# deep holes listed per report, to keep reports small
MAX_DEEP_HOLES = 16


def _unpack_vector(order: int, n: int, u_idx: int) -> tuple[int, ...]:
    return tuple(u_idx // order**j % order for j in range(n))


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
    best = _scan(spec)
    coset_min = best // total
    rho = int(coset_min.max())
    leaders = np.sort(best[coset_min == rho] % total)
    return CoveringReport(
        n=n, k=k, rho=rho, rho_method="exhaustive",
        lower_bound=lo, upper_bound=hi, bounds_method="theorem-bound",
        deep_holes=[_unpack_vector(t.order, n, int(i)) for i in leaders[:MAX_DEEP_HOLES]],
        maximal_coset_count=len(leaders),
        coset_count=len(best),
    )


def is_deep_hole(
    spec: CodeSpec,
    u: Sequence[Element],
    report: Optional[CoveringReport] = None,
    budgets: Budgets = Budgets(),
) -> bool:
    """True iff the distance from u to the code equals the covering radius."""
    _vector(spec, u)
    if report is None or report.rho is None:
        report = covering_radius_exhaustive(spec, budgets)
    if report.rho is None:
        raise BudgetExceededError(
            "covering radius unknown: ambient space too large for brute force"
        )
    return distance_to_code(spec, u, budgets) == report.rho


def deep_hole_via_extension(
    spec: CodeSpec, u: Sequence[Element], budgets: Budgets = Budgets()
) -> bool:
    """Deep-hole test for the single-twist t = 0 family via code extension.

    Stacks u under the generator and tests the (k+1)-row matrix for MRD; by
    the extension theorem this is equivalent to u being a deep hole.
    """
    v = _vector(spec, u)
    if spec.ell != 1 or spec.twists[0][0] != 0:
        raise SpecInvariantError("extension test applies to a single twist with t = 0")
    if contains(spec, v):
        raise SpecInvariantError("u lies in the code; the extension would be degenerate")
    return matrix_is_mrd(spec.tower, np.vstack([generator_matrix(spec), v]), budgets)


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
