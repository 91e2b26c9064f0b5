"""Gabidulin and twisted Gabidulin codes: construction, encoding, brute-force
distances, and Hamming-metric classification.

A single :class:`CodeSpec` covers the plain Gabidulin code (empty twist list)
and the one-, two- and many-twist families: the twisted generator row is
alpha^[h] + sum_j eta_j alpha^[k+t_j], all other rows are plain Moore rows.

Distance enumeration walks one representative per scalar class of non-zero
messages (both weights are invariant under scaling by F_(q^m)^*), with budgets
enforced up front.  :func:`_class_message_blocks` yields the classes as numpy
blocks of at most ``_BLOCK_ROWS`` messages, ``moore.matmul`` encodes a block,
so memory stays bounded whatever the budget, and each block is folded once per
weight asked for: the code is weighed by rank (:meth:`FieldTower.fq_rank_many`)
and by Hamming weight, its dual and :func:`min_hamming_distance` by Hamming
weight alone.  The same blocks, taken over the stacked matrix [u; G] and led
by u, are the codewords that ``covering.distance_to_code_many`` adds to every
vector of a stack.

The structural route, :func:`nmds_conditions`, reads column ranks of the
generator by batched elimination (:meth:`FieldTower.rank_many`,
:meth:`FieldTower.det_many`) over the stack of column subsets, and nothing
from the enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from . import moore
from .budget import Budgets, check_budget
from .errors import ConsistencyError, SpecInvariantError
from .fieldtower import Element, FieldTower, json_array, json_int, json_object


@dataclass(frozen=True)
class CodeSpec:
    """Evaluation points, dimension and twist data of one code.

    twists is an ordered tuple of (t_j, eta_j) with 0 <= t_1 < ... < t_l <= n-k-1
    and eta_j != 0; an empty tuple (with h = None) is the plain Gabidulin code.
    """

    tower: FieldTower
    alpha: tuple[Element, ...]
    k: int
    h: Optional[int] = None
    twists: tuple[tuple[int, Element], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(int(a) for a in self.alpha))
        object.__setattr__(
            self, "twists", tuple((int(t), int(e)) for t, e in self.twists)
        )
        t = self.tower
        n, k = self.n, self.k
        if not 1 <= k < n:
            raise SpecInvariantError(f"need 1 <= k < n, got k={k}, n={n}")
        if n > t.m:
            raise SpecInvariantError(f"need n <= m, got n={n}, m={t.m}")
        if t.fq_rank(self.alpha) != n:
            raise SpecInvariantError("alpha components must be F_q-independent (rank n)")
        if self.twists:
            if self.h is None or not 0 <= self.h <= k - 1:
                raise SpecInvariantError(f"twist position h must satisfy 0 <= h <= {k - 1}")
            ts = [t_ for t_, _ in self.twists]
            if any(e == 0 for _, e in self.twists):
                raise SpecInvariantError("twist scalars eta_j must be non-zero")
            if sorted(set(ts)) != ts or ts[0] < 0 or ts[-1] > n - k - 1:
                raise SpecInvariantError(
                    f"twist exponents must satisfy 0 <= t_1 < ... < t_l <= {n - k - 1}"
                )
        elif self.h is not None:
            raise SpecInvariantError("h is only meaningful when twists are present")

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def ell(self) -> int:
        return len(self.twists)

    @property
    def is_gabidulin(self) -> bool:
        return not self.twists

    def to_json_dict(self) -> dict:
        t = self.tower
        out = {
            "alpha": [t.element_to_json(a) for a in self.alpha],
            "k": self.k,
            "twists": [
                {"t": tj, "eta": t.element_to_json(ej)} for tj, ej in self.twists
            ],
        }
        if self.h is not None:
            out["h"] = self.h
        return out

    @classmethod
    def from_json_dict(cls, tower: FieldTower, obj: dict) -> "CodeSpec":
        obj = json_object(obj, "a code spec")
        alpha = tuple(tower.element_from_json(a) for a in json_array(obj["alpha"], "alpha"))
        twists = []
        for tw in json_array(obj.get("twists", []), "twists"):
            tw = json_object(tw, "a twist")
            twists.append((json_int(tw["t"]), tower.element_from_json(tw["eta"])))
        h = obj.get("h")
        h = None if h is None else json_int(h)
        return cls(tower, alpha, json_int(obj["k"]), h, tuple(twists))


@dataclass
class DistanceReport:
    """Exact distances plus the MRD/MDS/AMDS/NMDS verdicts for one code."""

    n: int
    k: int
    d_rank: int
    d_hamming: int
    is_mrd: bool
    is_mds: bool
    is_amds: bool
    is_nmds: bool
    rank_witness: tuple[Element, ...]
    hamming_witness: tuple[Element, ...]

    def __post_init__(self):
        if not self.d_rank <= self.d_hamming <= self.n - self.k + 1:
            raise ConsistencyError(
                f"distance sandwich violated: d_R={self.d_rank}, "
                f"d_H={self.d_hamming}, n-k+1={self.n - self.k + 1}"
            )
        if self.is_mrd and not self.is_mds:
            raise ConsistencyError("MRD without MDS contradicts rank <= Hamming weight")

    def to_json_dict(self, tower: FieldTower) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "d_rank": self.d_rank,
            "d_hamming": self.d_hamming,
            "is_mrd": self.is_mrd,
            "is_mds": self.is_mds,
            "is_amds": self.is_amds,
            "is_nmds": self.is_nmds,
            "rank_witness": [tower.element_to_json(c) for c in self.rank_witness],
            "hamming_witness": [tower.element_to_json(c) for c in self.hamming_witness],
        }


def generator_matrix(spec: CodeSpec) -> np.ndarray:
    """k x n generator with the twist terms folded into row h."""
    t = spec.tower
    G = moore.moore_matrix(t, spec.alpha, spec.k)
    if spec.twists:
        a = np.asarray(spec.alpha, dtype=np.int64)
        row = G[spec.h].copy()
        for tj, ej in spec.twists:
            term = t.mul_many(np.int64(ej), t.frob_many(a, spec.k + tj))
            row = t.add_many(row, term)
        G[spec.h] = row
    return G


def encode(spec: CodeSpec, message: Sequence[Element]) -> np.ndarray:
    """Evaluate the message polynomial (twist coefficients tied to f_h) at alpha."""
    return moore.matmul(spec.tower, message, generator_matrix(spec))


# rows per message block of the distance enumeration
_BLOCK_ROWS = 1 << 14


def _class_message_blocks(order: int, k: int):
    """One representative per F_(q^m)^*-class of non-zero messages, lexicographic,
    as int64 arrays of at most ``_BLOCK_ROWS`` rows.

    The leading non-zero coordinate is normalized to 1; later coordinates run
    through all values in counting order, the first of them fastest.  Block b
    holds classes [b * _BLOCK_ROWS, (b + 1) * _BLOCK_ROWS) of the sequence.
    """
    total = projective_class_count(order, k)
    for start in range(0, total, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, total)
        parts, first = [], 0  # first: sequence index of this lead's first class
        for lead in range(k):
            size = order ** (k - 1 - lead)
            lo, hi = max(start, first), min(stop, first + size)
            if lo < hi:
                idx = np.arange(lo - first, hi - first, dtype=np.int64)
                msgs = np.zeros((hi - lo, k), dtype=np.int64)
                msgs[:, lead] = 1
                for pos in range(lead + 1, k):
                    msgs[:, pos] = idx % order
                    idx //= order
                parts.append(msgs)
            first += size
        yield np.concatenate(parts)


def projective_class_count(order: int, k: int) -> int:
    return (order**k - 1) // (order - 1)


def _rank_weights(tower: FieldTower, words: np.ndarray) -> np.ndarray:
    return tower.fq_rank_many(list(words.T))


def _hamming_weights(tower: FieldTower, words: np.ndarray) -> np.ndarray:
    return np.count_nonzero(words, axis=1)


def _min_weights_of_matrix(
    tower: FieldTower, G: np.ndarray, budget: int, weights=(_rank_weights, _hamming_weights)
) -> tuple:
    """Exact minimum and witness of the row space under each weight, flattened:
    (d_rank, rank_witness, d_hamming, hamming_witness) for the default weights.

    The class blocks are encoded once and folded per weight.  A witness is the
    first codeword, in class enumeration order, of minimum weight: a later
    block replaces it only with a strictly smaller weight.
    """
    k, n = G.shape
    check_budget("codeword", projective_class_count(tower.order, k), budget)
    best = [(n + 1, None)] * len(weights)
    for msgs in _class_message_blocks(tower.order, k):
        words = moore.matmul(tower, msgs, G)
        for j, weigh in enumerate(weights):
            w = weigh(tower, words)
            i = int(np.argmin(w))
            if w[i] < best[j][0]:
                best[j] = (int(w[i]), tuple(int(c) for c in words[i]))
    return tuple(x for pair in best for x in pair)


def min_rank_distance(
    spec: CodeSpec, budgets: Budgets = Budgets(), *, G: Optional[np.ndarray] = None
) -> DistanceReport:
    """Exact minimum rank distance by scalar-class enumeration; fills all flags.

    The NMDS flag needs the dual's minimum Hamming distance, which is obtained
    by the same enumeration on a dual basis, weighed by Hamming weight only.
    G, when given, is ``generator_matrix(spec)``, built once by the caller.
    """
    t = spec.tower
    n, k = spec.n, spec.k
    if G is None:
        G = generator_matrix(spec)
    d_r, wit_r, d_h, wit_h = _min_weights_of_matrix(t, G, budgets.codewords)
    H = moore.nullspace_fqm(t, G)
    d_h_dual, _ = _min_weights_of_matrix(t, H, budgets.codewords, (_hamming_weights,))
    return DistanceReport(
        n=n,
        k=k,
        d_rank=d_r,
        d_hamming=d_h,
        is_mrd=(d_r == n - k + 1),
        is_mds=(d_h == n - k + 1),
        is_amds=(d_h == n - k),
        is_nmds=(d_h == n - k and d_h_dual == k),
        rank_witness=wit_r,
        hamming_witness=wit_h,
    )


def min_hamming_distance(spec: CodeSpec, budgets: Budgets = Budgets()) -> int:
    G = generator_matrix(spec)
    d_h, _ = _min_weights_of_matrix(spec.tower, G, budgets.codewords, (_hamming_weights,))
    return d_h


def _column_stack(G: np.ndarray, size: int) -> np.ndarray:
    """The k x size column submatrices of G, one per size-subset in
    lexicographic order, as a (C(n, size), k, size) stack."""
    subsets = list(combinations(range(G.shape[1]), size))
    cols = np.array(subsets, dtype=np.int64).reshape(len(subsets), size)
    return G[:, cols].transpose(1, 0, 2)


def nmds_conditions(tower: FieldTower, G: np.ndarray) -> tuple[bool, bool, bool]:
    """The three column-rank conditions classifying NMDS/AMDS.

    (i) every k-1 columns independent, (ii) some k columns dependent,
    (iii) every k+1 columns of rank k.  NMDS iff i and ii and iii;
    AMDS iff ii and iii; MDS iff not ii.  Each condition is one batched
    elimination over the stack of its column subsets.
    """
    k, n = G.shape
    if tower.rank_many(G[None])[0] != k:
        raise SpecInvariantError("generator matrix must have full rank k")
    cond_i = bool((tower.rank_many(_column_stack(G, k - 1)) == k - 1).all())
    cond_ii = bool((tower.det_many(_column_stack(G, k)) == 0).any())
    cond_iii = bool((tower.rank_many(_column_stack(G, k + 1)) == k).all())
    return cond_i, cond_ii, cond_iii


def classify(spec: CodeSpec, budgets: Budgets = Budgets()) -> DistanceReport:
    """Full report with the brute-force and structural routes cross-checked.

    The enumeration route computes exact distances (code and dual); the
    structural route classifies via column ranks of the generator matrix.
    Any disagreement raises ConsistencyError with a witness description.
    """
    G = generator_matrix(spec)
    report = min_rank_distance(spec, budgets, G=G)
    cond_i, cond_ii, cond_iii = nmds_conditions(spec.tower, G)
    structural = {
        "is_mds": not cond_ii,
        "is_amds": cond_ii and cond_iii,
        "is_nmds": cond_i and cond_ii and cond_iii,
    }
    brute = {
        "is_mds": report.is_mds,
        "is_amds": report.is_amds,
        "is_nmds": report.is_nmds,
    }
    if structural != brute:
        raise ConsistencyError(
            f"column-rank route {structural} disagrees with enumeration route {brute} "
            f"for spec {spec.to_json_dict()}"
        )
    return report
