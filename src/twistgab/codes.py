"""Gabidulin and twisted Gabidulin codes: construction, encoding, brute-force
distances, and Hamming-metric classification.

A single :class:`CodeSpec` covers the plain Gabidulin code (empty twist list)
and the one-, two- and many-twist families: the twisted generator row is
alpha^[h] + sum_j eta_j alpha^[k+t_j], all other rows are plain Moore rows.

Distance enumeration walks one representative per scalar class of non-zero
messages (both weights are invariant under scaling by F_(q^m)^*), with budgets
enforced up front: the codeword cap counts the code's and the dual's classes of
every spec together (:func:`distance_class_count`), but only a spec with
d_H = n - k, the one case a dual's distance decides, has its dual enumerated.
:func:`_class_segments` lists the classes as ``moore.counter_blocks`` segments.
Every route here runs over a stack of specs sharing the tower, n and k, as the
specs of a sweep do, and the one-spec forms (:func:`min_rank_distance`,
:func:`nmds_conditions`) are its stack of one; ``mrdcheck.classify_many``
cross-checks them with the subspace and Omega routes.
``moore.span_blocks`` builds the codewords of the whole stack as broadcast sums
of the tables c * G[p], at most max(``moore.BLOCK_ROWS``, S) codewords per
block for a stack of S, and each block is folded once per weight: the code is
weighed by rank (:meth:`FieldTower.fq_rank_many`) and by Hamming weight, a dual
by Hamming weight alone.  The blocks are
``fieldtower.ELEMENT_DTYPE`` (uint16) and weighed in that dtype; generators,
witnesses and every other array of elements here are int64.

The structural route, :func:`nmds_conditions_many`, reads column ranks of the
generators, and nothing from the enumeration: all (k-1)-, k- and (k+1)-column
subsets of the stack in one batched elimination (:meth:`FieldTower.rank_many`).
A stack's generators are built in one broadcast and kept in their specs, as
are parity-check matrices (:func:`generator_matrix`, :func:`parity_check_matrix`).
Every field of a :class:`CodeSpec` passes ``fieldtower.exact_int``, its alpha
and etas and every message of :func:`encode` pass ``fieldtower.element_array``,
and every route over a stack of specs gives an empty result for an empty stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Optional, Sequence

import numpy as np

from . import moore
from .budget import Budgets, check_budget
from .errors import ConsistencyError, SpecInvariantError
from .fieldtower import Element, FieldTower, element_array, exact_int, json_array, json_object


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
        # every field by ``fieldtower.exact_int``, alpha and the etas by
        # ``fieldtower.element_array``: a bool or float is refused, never truncated
        t = self.tower
        object.__setattr__(self, "alpha", tuple(element_array(t, self.alpha, "alpha").tolist()))
        object.__setattr__(self, "k", exact_int(self.k))
        object.__setattr__(self, "h", None if self.h is None else exact_int(self.h))
        etas = element_array(t, [e for _, e in self.twists], "eta").tolist()
        object.__setattr__(
            self, "twists", tuple((exact_int(t_), e) for (t_, _), e in zip(self.twists, etas))
        )
        n, k = self.n, self.k
        if not 1 <= k < n:
            raise SpecInvariantError(f"need 1 <= k < n, got k={k}, n={n}")
        if n > t.m:
            raise SpecInvariantError(f"need n <= m, got n={n}, m={t.m}")
        if t.points_rank(self.alpha) != n:
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

    @cached_property
    def _generator(self) -> np.ndarray:
        """:func:`generator_matrix`, cached in the instance (not a field): the
        stack of one of :func:`_generators`, unless a stack stored it first."""
        return _generators([self])[0]

    @cached_property
    def _parity_check(self) -> np.ndarray:
        """:func:`parity_check_matrix`, cached in the instance (not a field)."""
        H = moore.nullspace_fqm(self.tower, self._generator)
        H.flags.writeable = False
        return H

    def to_json_dict(self) -> dict:
        t = self.tower
        etas = t.elements_to_json([ej for _, ej in self.twists])
        out = {
            "alpha": t.elements_to_json(self.alpha),
            "k": self.k,
            "twists": [{"t": tj, "eta": eta} for (tj, _), eta in zip(self.twists, etas)],
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
            twists.append((tw["t"], tower.element_from_json(tw["eta"])))
        return cls(tower, alpha, obj["k"], obj.get("h"), tuple(twists))


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
            "rank_witness": tower.elements_to_json(self.rank_witness),
            "hamming_witness": tower.elements_to_json(self.hamming_witness),
        }


def generator_matrix(spec: CodeSpec) -> np.ndarray:
    """k x n generator with the twist terms folded into row h; built once per
    spec and read-only."""
    return spec._generator


def parity_check_matrix(spec: CodeSpec) -> np.ndarray:
    """(n - k) x n basis of the dual code (``moore.nullspace_fqm`` of the
    generator); built once per spec and read-only."""
    return spec._parity_check


def encode(spec: CodeSpec, message: Sequence[Element]) -> np.ndarray:
    """Evaluate the message polynomial (twist coefficients tied to f_h) at
    alpha; the message's entries pass ``fieldtower.element_array``."""
    message = element_array(spec.tower, message, "message")
    return moore.matmul(spec.tower, message, generator_matrix(spec))


def _class_segments(k: int):
    """One representative per F_(q^m)^*-class of non-zero messages, lexicographic,
    as ``moore.counter_blocks`` segments, one per lead: the leading non-zero
    coordinate is 1 and later ones count base q^m, the first fastest."""
    return [((lead,), range(lead + 1, k)) for lead in range(k)]


def projective_class_count(order: int, k: int) -> int:
    return (order**k - 1) // (order - 1)


def distance_class_count(size: int, order: int, n: int, k: int) -> int:
    """Message classes the codeword cap counts for the distances of a stack
    of ``size`` [n, k] codes: the code's and the dual's, per spec."""
    return size * (projective_class_count(order, k) + projective_class_count(order, n - k))


def _rank_weights(tower: FieldTower, words: np.ndarray) -> np.ndarray:
    S, n, items = words.shape
    return tower.fq_rank_many(words.transpose(1, 0, 2).reshape(n, -1)).reshape(S, items)


def _hamming_weights(tower: FieldTower, words: np.ndarray) -> np.ndarray:
    return (words != 0).sum(1)


def _min_weights_of_matrix(
    tower: FieldTower, Gs: np.ndarray, budget: int, weights=(_rank_weights, _hamming_weights)
) -> list[tuple]:
    """Per generator of an (S, k, n) stack, the exact minimum and witness of
    its row space under each weight, flattened: (d_rank, rank_witness,
    d_hamming, hamming_witness) for the default weights.

    The stack shares one enumeration, whose S * (classes) steps must fit the
    codeword cap.  ``moore.span_blocks`` builds the codewords of every
    generator, (S, n, items) at a time, and each block is folded once per
    weight.  A witness is the first codeword, in class enumeration order, of
    minimum weight: the first minimum of a block (``argmin``), and a later
    block replaces it only with a strictly smaller weight.
    """
    Gs = np.asarray(Gs, dtype=np.int64)
    S, k, n = Gs.shape
    check_budget("codeword", S * projective_class_count(tower.order, k), budget)
    at = np.arange(S)
    best = np.full((len(weights), S), n + 1)
    witness = np.zeros((len(weights), S, n), dtype=np.int64)
    for words in moore.span_blocks(tower, Gs.transpose(1, 0, 2), _class_segments(k)):
        for j, weigh in enumerate(weights):
            w = weigh(tower, words)
            i = np.argmin(w, axis=1)
            better = np.flatnonzero(w[at, i] < best[j])
            best[j, better] = w[better, i[better]]
            witness[j, better] = words[better, :, i[better]]
    return [
        tuple(x for d, wit in zip(ds, wits) for x in (d, tuple(wit)))
        for ds, wits in zip(best.T.tolist(), witness.transpose(1, 0, 2).tolist())
    ]


def _generators(specs: Sequence[CodeSpec]) -> np.ndarray:
    """The read-only (S, k, n) generators of specs sharing the tower, n and k,
    built at once from the powers alpha^[i], i < n: Moore rows, and row h plus
    eta_j alpha^[k+t_j] per twist index j (eta_j = 0 past a spec's twists)."""
    t, n, k, at = specs[0].tower, specs[0].n, specs[0].k, np.arange(len(specs))
    A = np.array([s.alpha for s in specs], dtype=np.int64)
    P = np.stack([t.frob_many(A, i) for i in range(n)], axis=1)  # P[s, i] = alpha_s^[i]
    G, h = P[:, :k].copy(), np.array([s.h or 0 for s in specs])
    row = G[at, h]
    for j in range(max(s.ell for s in specs)):
        tj, ej = np.array([s.twists[j] if j < s.ell else (0, 0) for s in specs]).T
        row = t.add_many(row, t.mul_many(ej[:, None], P[at, k + tj]))
    G[at, h] = row
    G.flags.writeable = False
    return G


def _generator_stack(specs: Sequence[CodeSpec]) -> np.ndarray:
    """The (S, k, n) stack of generators of specs over one tower with one n
    and one k; those not cached yet are built in one :func:`_generators`."""
    if not specs:
        raise ValueError("a stack of specs needs at least one spec")
    t, n, k = specs[0].tower, specs[0].n, specs[0].k
    if any(s.tower is not t or s.n != n or s.k != k for s in specs):
        raise ValueError("the specs of a stack must share the tower, n and k")
    todo = [s for s in specs if "_generator" not in vars(s)]
    for s, G in zip(todo, _generators(todo) if todo else ()):
        vars(s)["_generator"] = G  # where the cached property keeps it
    return np.stack([generator_matrix(s) for s in specs])


def min_rank_distance_many(
    specs: Sequence[CodeSpec], budgets: Budgets = Budgets()
) -> list[DistanceReport]:
    """Per spec of a stack (one tower, n and k), the exact minimum rank
    distance by scalar-class enumeration, with all flags.

    One enumeration weighs every generator by rank and by Hamming weight.
    NMDS needs d_H = n - k and a dual with d_H = k, so one more, by Hamming
    weight only, takes the dual bases (:func:`parity_check_matrix`) of the
    specs with d_H = n - k alone, if any.  The codeword cap counts every spec's
    dual before either runs (:func:`distance_class_count`).  An empty stack
    gets an empty list.
    """
    specs = list(specs)
    return _min_rank_distance_stack(specs, _generator_stack(specs), budgets) if specs else []


def _min_rank_distance_stack(
    specs: Sequence[CodeSpec], Gs: np.ndarray, budgets: Budgets
) -> list[DistanceReport]:
    """:func:`min_rank_distance_many` on the specs' generator stack Gs."""
    S, k, n = Gs.shape
    t = specs[0].tower
    check_budget("codeword", distance_class_count(S, t.order, n, k), budgets.codewords)
    code = _min_weights_of_matrix(t, Gs, budgets.codewords)
    near = [i for i, (_, _, d_h, _) in enumerate(code) if d_h == n - k]
    dual = {}
    if near:
        Hs = np.stack([parity_check_matrix(specs[i]) for i in near])
        dual_weights = _min_weights_of_matrix(t, Hs, budgets.codewords, (_hamming_weights,))
        dual = dict(zip(near, dual_weights))
    return [
        DistanceReport(
            n=n,
            k=k,
            d_rank=d_r,
            d_hamming=d_h,
            is_mrd=(d_r == n - k + 1),
            is_mds=(d_h == n - k + 1),
            is_amds=(d_h == n - k),
            is_nmds=(i in dual and dual[i][0] == k),
            rank_witness=wit_r,
            hamming_witness=wit_h,
        )
        for i, (d_r, wit_r, d_h, wit_h) in enumerate(code)
    ]


def min_rank_distance(spec: CodeSpec, budgets: Budgets = Budgets()) -> DistanceReport:
    """Exact minimum rank distance and all flags: the stack of one of
    :func:`min_rank_distance_many`."""
    return min_rank_distance_many([spec], budgets)[0]


def _column_stack(Gs: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """The k x size column submatrices of each G of an (S, k, n) stack, per
    size of ``sizes`` one per size-subset in lexicographic order, zero-padded
    on the right to the largest size w, as an (S * subsets, k, w) stack."""
    (S, k, n), w = Gs.shape, max(sizes)
    subsets = [s for size in sizes for s in combinations(range(n), size)]
    cols = np.array([s + (n,) * (w - len(s)) for s in subsets], dtype=np.int64)  # n: zeros
    padded = np.concatenate([Gs, np.zeros((S, k, 1), dtype=np.int64)], axis=2)
    return padded[:, :, cols].transpose(0, 2, 1, 3).reshape(S * len(subsets), k, w)


def nmds_conditions_many(tower: FieldTower, Gs: np.ndarray) -> np.ndarray:
    """Per generator of an (S, k, n) stack of full-rank matrices, the three
    column-rank conditions of :func:`nmds_conditions`, as an (S, 3) bool array.

    Per step of ``moore.blocks`` whole generators, one batched elimination
    ranks all their (k-1)-, k- and (k+1)-column subsets, zero-padded to k + 1
    columns.  The first generator, in stack order, none of whose k-subsets
    has rank k is not of full rank and raises SpecInvariantError.  An empty
    stack gets an empty (0, 3) array.
    """
    Gs = np.asarray(Gs, dtype=np.int64)
    S, k, n = Gs.shape
    lo, hi = comb(n, k - 1), comb(n, k - 1) + comb(n, k)
    out = []
    for step in moore.blocks(S, hi + comb(n, k + 1)):
        G = Gs[step]
        ranks = tower.rank_many(_column_stack(G, (k - 1, k, k + 1))).reshape(len(G), -1)
        full = (ranks[:, lo:hi] == k).any(axis=1)
        if not full.all():
            first = step.start + int(full.argmin())
            raise SpecInvariantError(f"generator matrix {first} of the stack must have full rank k")
        out.append(np.column_stack([
            (ranks[:, :lo] == k - 1).all(axis=1),
            (ranks[:, lo:hi] < k).any(axis=1),
            (ranks[:, hi:] == k).all(axis=1),
        ]))
    return np.concatenate(out) if out else np.zeros((0, 3), dtype=bool)


def nmds_conditions(tower: FieldTower, G: np.ndarray) -> tuple[bool, bool, bool]:
    """The three column-rank conditions classifying NMDS/AMDS.

    (i) every k-1 columns independent, (ii) some k columns dependent,
    (iii) every k+1 columns of rank k.  NMDS iff i and ii and iii;
    AMDS iff ii and iii; MDS iff not ii.  The stack of one of
    :func:`nmds_conditions_many`.
    """
    cond_i, cond_ii, cond_iii = nmds_conditions_many(tower, np.asarray(G)[None])[0].tolist()
    return cond_i, cond_ii, cond_iii

