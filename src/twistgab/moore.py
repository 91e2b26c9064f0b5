"""Moore matrices and exact linear algebra over F_(q^m).

Matrices, tables and the products ``mul_many`` gathers are numpy int64 arrays
of element indices; the owning tower is passed explicitly.  Codeword blocks
are the one exception: :func:`span_blocks` yields them as
``fieldtower.ELEMENT_DTYPE`` (uint16, exact since every tower has order at
most 2^16), so the sums and rank weights streamed over them move a quarter of
the bytes.  Row/column indices are 0-based here; reports and docs speaking of
"the (h+1)-th row" follow the 1-based convention of the generator layouts.

:func:`matmul` is the one matrix product, batched over leading axes.
:func:`det_fqm`, :func:`rank_fqm` and :func:`nullspace_fqm` eliminate one
matrix with the scalar ``_gauss_jordan``; stacks of matrices go through
:meth:`FieldTower.rank_many` and :meth:`FieldTower.det_many`, which these
scalar forms check in the tests.  ``det_fqm`` is itself checked against the
closed-form Moore determinant, a product over F_q-combinations of alpha that
lives in the tests as its oracle.  The block policy of every batched route is
here too: :data:`BLOCK_ROWS`, the step slices :func:`blocks`, the block
enumerator :func:`counter_blocks` and the one codeword enumerator
:func:`span_blocks`, whose test oracle is ``matmul`` of ``counter_blocks``.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Iterator, Sequence

import numpy as np

from .fieldtower import ELEMENT_DTYPE, Element, FieldTower, _gauss_jordan, _nullspace

# rows per block of every batched route
BLOCK_ROWS = 1 << 14


def blocks(total: int, width: int = 1) -> Iterator[slice]:
    """Slices of range(total), each of max(1, BLOCK_ROWS // width) items (an
    empty width counts as 1): a step of items ``width`` rows wide holds at most
    max(BLOCK_ROWS, width) rows."""
    step = max(1, BLOCK_ROWS // max(1, width))
    for lo in range(0, total, step):
        yield slice(lo, min(lo + step, total))


def counter_blocks(shape: tuple[int, ...], segments: Iterable, base: int) -> Iterator[np.ndarray]:
    """The items of every segment in order, as int64 arrays of ``shape``, in
    blocks of ``BLOCK_ROWS`` items filled across segments; only the last block
    may hold fewer.  A segment (ones, digits) holds base ** len(digits) items:
    flat positions ``ones`` are 1, flat positions ``digits`` count base
    ``base``, the first fastest, and all others are 0."""
    rows, pieces, held = BLOCK_ROWS, [], 0
    for ones, digits in segments:
        count, start = base ** len(digits), 0
        while start < count:
            stop = min(count, start + rows - held)
            idx = np.arange(start, stop, dtype=np.int64)
            piece = np.zeros((stop - start, prod(shape)), dtype=np.int64)
            piece[:, list(ones)] = 1
            for pos in digits:
                piece[:, pos] = idx % base
                idx //= base
            pieces.append(piece.reshape(stop - start, *shape))
            held, start = held + stop - start, stop
            if held == rows:
                yield pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
                pieces, held = [], 0
    if pieces:
        yield pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def span_blocks(tower: FieldTower, B: np.ndarray, segments: Iterable) -> Iterator[np.ndarray]:
    """The words sum_(o in ones) B[o] + sum_i d_i B[digits[i]] of a (K, S, n)
    stack B over the items of :func:`counter_blocks` segments (base q^m,
    disjoint ones and digits), in their order, as (S, n, items) blocks of at
    most max(1, BLOCK_ROWS // S) items.  No message is multiplied by B: the
    fastest j digits of a segment, whose q^(mj) items fit a block, run over
    the tables c * B[p] in a broadcast sum, and each slower digit adds one
    product per q^(mj) items.  The blocks, the sums and the tables they add
    are ``ELEMENT_DTYPE``; B and the products ``mul_many`` gathers are int64."""
    B = np.asarray(B, dtype=np.int64).transpose(1, 2, 0)  # (S, n, K)
    S, n, _ = B.shape
    N, step, pieces, held = tower.order, max(1, BLOCK_ROWS // max(1, S)), [], 0
    for ones, digits in segments:
        digits, low = list(digits), np.zeros((S, n, 1), dtype=np.int64)
        for o in ones:
            low = tower.add_many(low, B[:, :, o, None])
        low = low.astype(ELEMENT_DTYPE)
        j = 0
        while j < len(digits) and N ** (j + 1) <= step:
            j += 1
        for p in reversed(digits[:j]):  # the first digit fastest
            table = tower.mul_many(B[:, :, p, None, None], np.arange(N)).astype(ELEMENT_DTYPE)
            low = tower.add_many(low[..., None], table).reshape(S, n, -1)
        count, reps = N ** (len(digits) - j), step // N**j
        for start in range(0, count, reps):
            idx = np.arange(start, min(start + reps, count))
            high = np.zeros((S, n, len(idx)), dtype=np.int64)
            for p in digits[j:]:
                high = tower.add_many(high, tower.mul_many(B[:, :, p, None], idx % N))
                idx //= N
            high = high.astype(ELEMENT_DTYPE)
            piece = tower.add_many(high[..., None], low[:, :, None]).reshape(S, n, -1)
            if held + piece.shape[2] > step:
                yield np.concatenate(pieces, axis=2)
                pieces, held = [], 0
            pieces.append(piece)
            held += piece.shape[2]
    if pieces:
        yield np.concatenate(pieces, axis=2)


def moore_matrix(tower: FieldTower, alpha: Sequence[Element], k: int) -> np.ndarray:
    """k x n matrix whose i-th row is alpha raised componentwise to q^i."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(alpha) == 0:
        raise ValueError("alpha must be non-empty")
    a = np.asarray(alpha, dtype=np.int64)
    return np.stack([tower.frob_many(a, i) for i in range(k)])


def modified_moore_matrix(
    tower: FieldTower, alpha: Sequence[Element], k: int, h: int, t: int
) -> np.ndarray:
    """Moore matrix with row h replaced by alpha^[t] (t is the absolute q-power)."""
    if not 0 <= h <= k - 1:
        raise ValueError(f"h = {h} out of range [0, {k - 1}]")
    if t < 0:
        raise ValueError("t must be >= 0")
    M = moore_matrix(tower, alpha, k)
    M[h] = tower.frob_many(np.asarray(alpha, dtype=np.int64), t)
    return M


def matmul(tower: FieldTower, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact product A.B over F_(q^m): the sum over s of A[..., s] times B[s].

    A may carry leading batch axes and hold F_q digits (a digit is the index of
    that constant of F_(q^m)): V G^T for a (B, k, n) block V is matmul(V, G.T).
    """
    A, B = np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64)
    if B.ndim != 2 or A.shape[-1] != B.shape[0]:
        raise ValueError("shape mismatch")
    out = np.zeros(A.shape[:-1] + B.shape[1:], dtype=np.int64)
    for s in range(B.shape[0]):
        out = tower.add_many(out, tower.mul_many(A[..., s : s + 1], B[s]))
    return out


def det_fqm(tower: FieldTower, M: np.ndarray) -> Element:
    """Determinant by Gaussian elimination over the field; exact."""
    M = np.asarray(M, dtype=np.int64)
    r, c = M.shape
    if r != c:
        raise ValueError("determinant of a non-square matrix")
    return _gauss_jordan(tower, M.tolist())[2]


def rank_fqm(tower: FieldTower, M: np.ndarray) -> int:
    """Rank over F_(q^m) by elimination."""
    return len(_gauss_jordan(tower, np.asarray(M, dtype=np.int64).tolist())[0])


def nullspace_fqm(tower: FieldTower, M: np.ndarray) -> np.ndarray:
    """Rows form a basis of the right null space {x : M x^T = 0}; echelonized."""
    M = np.asarray(M, dtype=np.int64)
    c = M.shape[1]
    return np.array(_nullspace(tower, M.tolist(), c), dtype=np.int64).reshape(-1, c)
