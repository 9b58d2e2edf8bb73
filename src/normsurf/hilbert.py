"""Fundamental solution (Hilbert basis) enumeration.

The solution set of a matching system is the monoid of nonnegative
integer vectors satisfying homogeneous equations v_i + v_j = v_k + v_l
and a set of forced zeros. Its fundamental solutions are the nonzero
members that are not the sum of two nonzero members; equivalently the
minimal nonzero members under coordinatewise order, since the
difference of two comparable solutions is a solution (the set is not
closed downward). This module enumerates them in two ways:

  - The admissible members (admissible_only=True), primally, as two
    stages over the interaction components (_summands) that one
    generator yields (_admissible_stages):
      - the vertex stage: the integer kernel and the double description,
        which takes the quad rows first, its starting cone included,
        give each summand's admissible rays, whose primitive vectors
        are the vertex solutions, each extreme one fundamental;
      - the face stage, only when resumed, on the same rays: the faces
        that coherent quad choices cut out cover every admissible
        solution; each face is triangulated on its rays, and its
        Hilbert basis read off the simplices' fundamental
        parallelepipeds.
    detect.split_link_check scans each yield in turn, and
    enumerate_fundamental takes the last.
  - The full basis (and systems without quad triples), by completion
    search: equations are imposed one at a time on a generating set,
    after reductions that shrink but do not change the monoid up to
    isomorphism (_Reduction, _enumerate_dual). The primal path does not
    pay here: on the 3x3 grid query of curves2d, triangulating the
    whole cone took 19.6 s (93 rays, 56,888 simplices, 24,303
    parallelepiped points) against 0.057 s for the completion search.
    Its minimality tests compare rows packed several columns to a
    uint64 word, a few words per pair of rows (_dominated). A test with
    an empty side costs nothing, the packing layout is built once per
    value range and width, and the self-test of _minimal_rows compares
    each sorted row only with the rows up to it.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import IntegerOverflow, ResourceLimitExceeded
from .homology import _smith, _sparse
from .matching import MatchingSystem, NormalVector
from .union_find import UnionFind

DEFAULT_MAX_CANDIDATES = 10_000_000
# elements a broadcast temporary may hold (bytes, for _dominated's words)
_CHUNK = 1 << 15
_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class FundamentalSet:
    """The complete fundamental solution list of one system.

    vectors are full-length, lexicographically sorted. elapsed is the
    wall time of the search, and candidates_examined its work, the
    total charged to the candidate budget, which counts for each path:
      - admissible: the pairs and rays of each double description step,
        then each face's rays and each distinct simplex's index, the
        number of its parallelepiped points, zero included;
      - full basis: the unit vectors each completion search starts from
        and the partial sums each of its steps builds.
    """

    vectors: tuple[NormalVector, ...]
    candidates_examined: int
    elapsed: float


class _Budget:
    """Candidate and wall-clock accounting for one enumeration call."""

    def __init__(self, max_candidates: int, time_budget: Optional[float]):
        if max_candidates <= 0:
            raise ValueError("max_candidates must be positive")
        if time_budget is not None and math.isnan(time_budget):
            raise ValueError("time_budget must be a number, not NaN")
        self.max_candidates = max_candidates
        self.start = time.monotonic()
        self.deadline = None if time_budget is None else self.start + time_budget
        self.examined = 0

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def charge(self, count: int) -> None:
        self.examined += count
        if self.examined > self.max_candidates:
            raise ResourceLimitExceeded(
                f"candidate limit exceeded ({self.examined} > "
                f"{self.max_candidates})",
                candidates=self.examined, elapsed=self.elapsed)
        self.check_time()

    def check_time(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitExceeded(
                f"time budget exceeded after {self.examined} candidates",
                candidates=self.examined, elapsed=self.elapsed)


# -- reduction -------------------------------------------------------------


class _Reduction:
    """Zero propagation, equality merging, and dependent-variable
    substitution.

    Rewrites the system over representative variables. Rules, applied
    to a fixpoint:
      - an equation whose surviving coefficients all share one sign
        forces all its variables to zero;
      - an equation reduced to c*x - c*y = 0 identifies x with y;
      - an equation where some variable x has coefficient +-1 and every
        other term the opposite sign determines x as a nonnegative
        combination of the others; x is substituted away and its
        expression recorded for re-expansion.
    Each rewrite is a coordinatewise-order isomorphism of solution
    monoids (the third because x depends monotonically on the others),
    so fundamental solutions correspond one to one.

    The first two rules reach one fixpoint in any visiting order: zeros
    only grow, classes only merge, merging same-sign terms keeps their
    sign, and a merge keeps the smaller root, so every class is named
    by its minimum. Pending equations therefore sit in a plain set.
    Only the pivot policy fixes an order: at each fixpoint, substitute
    the smallest eligible variable of the lowest-index equation that
    has one.

    Twins, copies or negations of one equation, are kept. They are
    rewritten alike, so substituting from the first empties the others;
    when none is substituted, the first to be imposed by
    _hilbert_sequential leaves the others zero on every generator.

    `columns` are the representative variables left free, in order, and
    `equations` the surviving equations over column indices, in input
    order.
    """

    def __init__(self, n: int, equations: Iterable[dict[int, int]],
                 zeros: Iterable[int]):
        uf = UnionFind(range(n))  # merged classes, each named by its min
        zeros = set(zeros)
        exprs: dict[int, dict[int, int]] = {}
        eqs = dict(enumerate(dict(eq) for eq in equations))
        uses: dict[int, set[int]] = {}  # variable -> equations with it
        for k, eq in eqs.items():
            for var in eq:
                uses.setdefault(var, set()).add(k)
        # heap of every surviving equation; an equation leaves it only
        # when it has no pivot, and one that gains a pivot was rewritten
        # and so pushed again, so the heap yields the lowest-index
        # equation that has a pivot
        first: list[int] = []

        def holding(variables: Iterable[int]) -> set[int]:
            return {k for var in variables for k in uses.get(var, ())
                    if k in eqs and var in eqs[k]}

        def find_pivot(eq: dict[int, int]) -> Optional[int]:
            for var in sorted(eq):
                c = eq[var]
                if c in (1, -1) and all(
                        (other_c > 0) != (c > 0)
                        for v, other_c in eq.items() if v != var):
                    return var
            return None

        def normalize(work: set[int]) -> None:
            """Rewrite the equations in work, and every equation a
            rewrite zeroes or merges a variable of, until none triggers
            a rule."""
            while work:
                k = work.pop()
                acc: dict[int, int] = {}
                for var, c in eqs[k].items():
                    r = uf.find(var)
                    if r not in zeros:
                        acc[r] = acc.get(r, 0) + c
                acc = {v: c for v, c in acc.items() if c != 0}
                changed: Iterable[int] = ()
                if len({c > 0 for c in acc.values()}) == 1:
                    zeros.update(acc)
                    changed = acc
                elif len(acc) == 2 and sum(acc.values()) == 0:
                    # roots here are never in zeros (checked above)
                    uf.union(*sorted(acc))
                    changed = acc
                if not acc or changed:
                    del eqs[k]
                else:
                    eqs[k] = acc
                    heapq.heappush(first, k)
                    for var in acc:
                        uses.setdefault(var, set()).add(k)
                work |= holding(changed)

        normalize(set(eqs))
        while first:
            k = heapq.heappop(first)
            x = find_pivot(eqs[k]) if k in eqs else None
            if x is None:
                continue
            eq = eqs.pop(k)
            cx = eq.pop(x)
            # x = sum of the remaining terms scaled to positive coeffs
            expr = {v: -c * cx for v, c in eq.items()}
            exprs[x] = expr
            dirty = holding([x])
            for j in dirty:
                other = eqs[j]
                mult = other.pop(x)
                for v, c in expr.items():
                    other[v] = other.get(v, 0) + mult * c
                    uses.setdefault(v, set()).add(j)
            normalize(dirty)

        self.columns = sorted(
            {uf.find(v) for v in range(n)} - zeros - set(exprs))
        column = {rep: k for k, rep in enumerate(self.columns)}
        self.equations = [{column[v]: c for v, c in eq.items()}
                          for eq in eqs.values()]
        self._reps = [uf.find(v) for v in range(n)]
        # A substituted variable's expression only uses variables that
        # are pinned to zero, still free, or substituted later (each
        # substitution removes its variable from every equation left),
        # so expand evaluates them in reverse order, without recursion
        # however long the chains of substitutions are.
        self._substitutions = [
            (x, [(uf.find(v), c) for v, c in exprs[x].items()])
            for x in reversed(exprs)]

    def expand(self, blocks: Sequence[tuple[Sequence[int], np.ndarray]]
               ) -> list[tuple[int, ...]]:
        """Lift reduced solutions back to full length.

        Each block (members, H) holds solutions as the rows of H, over
        the column indices `members`, and zero on every other column.
        One row of Python ints per variable (an `object` array) holds
        its value in every solution; each block is written straight into
        it at its columns, and each substitution is a few exact row
        operations whatever the number of solutions.
        """
        values = np.zeros((len(self._reps), sum(len(H) for _, H in blocks)),
                          dtype=object)
        at = 0
        for members, H in blocks:
            values[[self.columns[m] for m in members], at:at + len(H)] = H.T
            at += len(H)
        for x, terms in self._substitutions:
            values[x] = sum(c * values[v] for v, c in terms)
        return list(zip(*(values[rep] for rep in self._reps)))


def _quadruple_to_row(eq: tuple[int, int, int, int]) -> dict[int, int]:
    row: dict[int, int] = {}
    for var, c in ((eq[0], 1), (eq[1], 1), (eq[2], -1), (eq[3], -1)):
        row[var] = row.get(var, 0) + c
    return {v: c for v, c in row.items() if c != 0}


# -- completion search -----------------------------------------------------


def _require_int64(bound: int, what: str) -> None:
    """Raise IntegerOverflow unless bound, a Python int bounding the
    absolute values about to be computed, fits in int64."""
    if bound > _INT64_MAX:
        raise IntegerOverflow(
            f"{what} may reach {bound}, beyond the int64 range "
            "(2**63 - 1) of the array arithmetic")


def _count_matches(rows: np.ndarray, anchors: np.ndarray,
                   match: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   budget: _Budget) -> np.ndarray:
    """For each row, the number of anchor rows it matches.

    match(r, a) maps a block of rows shaped (k, 1, w) and a block of
    anchors shaped (1, m, w) to k x m booleans. Works through blocks of
    rows against blocks of anchors, so that no broadcast temporary
    holds more than about _CHUNK elements (one row and one anchor when
    a single row is longer than that). The budget's deadline is checked
    before each block, so never when either side is empty.

    _dominated calls it only for values too far apart to pack, with
    both sides nonempty and w-wide boolean temporaries of about _CHUNK
    bytes; it compares every row with every anchor, also for the
    self-test of _minimal_rows, whose counts are the same either way.
    _dominated's packed test keeps its own blocks, sized in bytes of
    uint64.
    """
    counts = np.zeros(len(rows), dtype=np.intp)
    span = max(1, _CHUNK // max(1, anchors.shape[1]))
    for at in range(0, len(anchors), span):
        block = anchors[at:at + span]
        step = max(1, _CHUNK // max(1, block.size))
        for lo in range(0, len(rows), step):
            budget.check_time()
            counts[lo:lo + step] += match(
                rows[lo:lo + step, None], block[None]).sum(1)
    return counts


@functools.lru_cache(maxsize=64)
def _layout(bits: int, columns: int) -> tuple[np.ndarray, np.uint64]:
    """The packing layout of _dominated for values whose range has bit
    length `bits`, in rows of `columns` columns: the words x columns
    `place` matrix, whose product with a row's columns is its packed
    words, and the guard word. `place` is cached and so read-only."""
    field = bits + 1
    per = 64 // field
    words = -(-columns // per) or 1
    col = np.arange(columns)
    place = np.zeros((words, columns), dtype=np.uint64)
    place[col // per, col] = np.uint64(1) << (col % per * field).astype(
        np.uint64)
    place.flags.writeable = False
    return place, np.uint64(sum(1 << (bits + field * i) for i in range(per)))


def _dominated(rows: np.ndarray, anchors: np.ndarray, budget: _Budget,
               triangular: bool = False) -> np.ndarray:
    """For each row, the number of anchor rows it is coordinatewise >=.

    When either side is empty every count is 0, and the zeros are
    returned at once: no set-up is paid and the deadline is not checked.
    Otherwise both int64 arrays are packed into uint64 words and
    compared a whole word at a time, several fields to a word (L.
    Lamport, "Multiple byte processing with full-word instructions",
    CACM 18, 1975):
      - bits is the bit length of the range max - min of both arrays
        (of the rows alone when the anchors are the rows). Each column
        gets a field of bits + 1 bits, per = 64 // (bits + 1) of them to
        a word: column j in word j // per, at bit s = (bits + 1) *
        (j % per).
      - A row's word is the sum of (x + 2**bits) * 2**s over its
        fields, and an anchor's the sum of a * 2**s, both modulo 2**64;
        the fields past the last column hold 2**bits in a row, 0 in an
        anchor.
      - Their difference is the sum of (2**bits + r - a) * 2**s, and as
        |r - a| < 2**bits, each 2**bits + r - a lies in
        (0, 2**(bits + 1)): no borrow crosses a field, the sum is below
        2**64 and so exact, and a field's top bit, its guard, is set
        exactly when r >= a. So a row is >= an anchor exactly when the
        AND of their word differences has every guard bit set.
    Packing is one unsigned matrix product, whose wraparound modulo
    2**64 cancels in the differences. Its `place` matrix and the guard
    word depend only on bits and the column count, and are built once
    for each pair of them (_layout).

    Past bits = 62 the columns are compared one by one through
    _count_matches: bits = 63 would still pack, one field to a word,
    but then a word saves nothing over a column, and a range of 2**63
    or more (bits = 64) leaves no room for a guard bit.

    triangular says that the anchors are the rows themselves, distinct
    and in lexicographic order, as in _minimal_rows. Each block of rows
    is then compared only with the anchors up to its own last row: a
    row r >= a, r != a, is lexicographically after a, so no row is >=
    a later one, and the counts are those of the full comparison.

    The rows are packed once and the anchors one block at a time, both
    word-major. Blocks are sized in bytes: no packed anchor block and
    no k x m uint64 temporary of a block of rows against it holds more
    than about _CHUNK bytes. The budget's deadline is checked before
    each block.
    """
    if not len(rows) or not len(anchors):
        return np.zeros(len(rows), dtype=np.intp)
    ends = [int(end) for a in ((rows,) if anchors is rows else
                               (rows, anchors)) if a.size
            for end in (a.min(), a.max())]
    bits = (max(ends, default=0) - min(ends, default=0)).bit_length()
    if bits > 62:
        return _count_matches(rows, anchors, lambda r, a: (r >= a).all(2),
                              budget)
    place, guards = _layout(bits, rows.shape[1])

    def pack(block):
        return place @ np.asarray(block, dtype=np.int64).view(np.uint64).T

    packed_rows = pack(rows)
    packed_rows += guards
    counts = np.zeros(len(rows), dtype=np.intp)
    span = max(1, _CHUNK // (8 * len(place)))
    for at in range(0, len(anchors), span):
        block = pack(anchors[at:at + span])
        step = max(1, _CHUNK // (8 * block.shape[1]))
        for lo in range(at - at % step if triangular else 0, len(rows),
                        step):
            budget.check_time()
            part = block[:, :lo + step - at] if triangular else block
            kept = packed_rows[0, lo:lo + step, None] - part[0]
            for w in range(1, len(place)):
                kept &= packed_rows[w, lo:lo + step, None] - part[w]
            kept &= guards
            counts[lo:lo + step] += (kept == guards).sum(1)
    return counts


def _minimal_rows(rows: np.ndarray, budget: _Budget) -> np.ndarray:
    """Coordinatewise-minimal nonzero rows, deduplicated, in
    lexicographic order.

    Sorting puts equal rows next to each other, so one comparison of
    neighbours deduplicates them; after that a row is minimal exactly
    when the only row it is above is itself. As a row is above only
    rows at or before it in this order, the self-test is triangular
    (_dominated), about half the pairs of a full one.
    """
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = rows.any(axis=1)
    keep[1:] &= (rows[1:] != rows[:-1]).any(axis=1)
    rows = rows[keep]
    return rows[_dominated(rows, rows, budget, triangular=True) == 1]


def _merge_antichain(antichain: np.ndarray, rows: np.ndarray,
                     budget: _Budget) -> tuple[np.ndarray, np.ndarray]:
    """Merge rows into an antichain of minimal nonzero rows.

    Returns the minimal nonzero rows of antichain + rows, and the
    fresh ones among them: the minimal rows of `rows` that are >= no
    antichain row, in lexicographic order. Such a row has no old row
    below it, so it is minimal in the union. An old row stays minimal
    unless a fresh row lies below it: a row of `rows` below it is >= a
    minimal row of `rows`, which is >= no old row (the old rows form
    an antichain), so is fresh.
    """
    fresh = _minimal_rows(rows, budget)
    fresh = fresh[_dominated(fresh, antichain, budget) == 0]
    kept = antichain[_dominated(antichain, fresh, budget) == 0]
    return np.vstack([kept, fresh]), fresh


def _lift_equation(H: np.ndarray, vals: np.ndarray,
                   budget: _Budget) -> np.ndarray:
    """Restrict the monoid generated by the rows of H to one equation.

    vals[i] is the equation's value on row i, and the rows of H are
    nonnegative and nonzero. Partial sums of generators are grown
    breadth-first, always adding a generator whose value has the sign
    opposite to the running total, until the total cancels. A partial
    sum is discarded as soon as it is coordinatewise >= a finished sum
    or an earlier partial sum with the same running value; neither can
    lead to a new minimal element. The result is the minimal finished
    sums in lexicographic order.

    Two antichains carry the pruning, both kept by _merge_antichain:
      - `finished`, the minimal finished sums so far. A row above some
        finished sum is above a minimal one, so testing against the
        minimal ones prunes exactly what testing against all would.
      - `archive`, the minimal partial sums so far for each running
        value, as value-augmented rows [v, -v, row]. Such a row is >=
        another exactly when both have the same value and row >= row,
        so one antichain of augmented rows holds every value's own
        antichain. Each step extends only the fresh partial sums, those
        minimal among the step's sums and above no archived sum of
        their value; they come out ordered by value, then row.
    Each step's candidate count is charged before its sums are built.

    A sum adds a generator to a partial sum of the opposite sign, so its
    value lies strictly between theirs and cannot overflow; each step
    checks that its coordinates, at most the largest fresh coordinate
    plus the largest generator entry, fit in int64.
    """
    zero = H[vals == 0]
    if not (vals > 0).any() or not (vals < 0).any():
        return zero
    top = int(H.max())
    aug = np.hstack([vals[:, None], -vals[:, None], H])
    width = aug.shape[1]
    pos, neg = aug[vals > 0], aug[vals < 0]
    finished = _minimal_rows(zero, budget)
    archive = aug[:0]
    # the generators are the first partial sums
    cand = aug[vals != 0]
    while len(cand):
        archive, fresh = _merge_antichain(archive, cand, budget)
        _require_int64(int(fresh[:, 2:].max(initial=0)) + top,
                       "a partial sum's coordinates")
        fresh_up, fresh_down = fresh[fresh[:, 0] > 0], fresh[fresh[:, 0] < 0]
        budget.charge(len(fresh_up) * len(neg) + len(fresh_down) * len(pos))
        cand = np.vstack([
            (fresh_up[:, None] + neg[None]).reshape(-1, width),
            (fresh_down[:, None] + pos[None]).reshape(-1, width)])
        done = cand[:, 0] == 0
        finished, _ = _merge_antichain(finished, cand[done, 2:], budget)
        cand = cand[~done]
        cand = cand[_dominated(cand[:, 2:], finished, budget) == 0]
    return finished[np.lexsort(finished.T[::-1])]


def _hilbert_sequential(A: np.ndarray, budget: _Budget) -> np.ndarray:
    """Minimal nonzero solutions of A v = 0, v >= 0 integral, as rows.

    Equations are imposed one at a time: the generating set for the
    first k rows is lifted across row k+1 by cancelling values of the
    current generators. Each lift preserves exactness, because every
    minimal solution of the extended system is a minimal-cancellation
    combination of the previous generators. Remaining equations are
    chosen greedily so the cheapest lift runs first, the earliest row
    on ties. A row that is a multiple of one already imposed is zero on
    every generator, so it is chosen next and lifts at no cost.

    The generators are nonnegative, so every entry of H @ A.T, and every
    partial sum the product forms, is at most max(H) times the largest
    absolute row sum of A; each step checks that this fits in int64.
    """
    norm = max((sum(map(abs, row)) for row in A.tolist()), default=0)
    H = np.eye(A.shape[1], dtype=np.int64)
    budget.charge(len(H))
    remaining = list(range(len(A)))
    while remaining and len(H):
        _require_int64(int(H.max()) * norm, "equation values")
        vals = H @ A[remaining].T
        npos = (vals > 0).sum(0).tolist()
        nneg = (vals < 0).sum(0).tolist()
        best = min(range(len(remaining)), key=lambda i: (
            npos[i] * nneg[i], npos[i] + nneg[i]))
        H = _lift_equation(H, vals[:, best], budget)
        del remaining[best]
    return H


def _interaction_components(
    columns: Iterable[int], groups: Sequence[Iterable[int]]
) -> list[tuple[list[int], list]]:
    """The classes of `columns` under "one group holds both", as
    (members, held) in order of least member: the sorted columns and
    the groups inside them, in input order. Groups are nonempty subsets
    of `columns`: the dual path passes its reduced equations, the
    admissible path each equation's and quad triple's active support.

    When each equation is a group, the solution monoid is the direct
    sum of the components' monoids: a solution restricted to a component
    is a solution, and the sum of its restrictions. So a fundamental
    solution has one nonzero restriction, and the Hilbert basis is the
    union of the components' bases, zero-padded. With the quad triples
    as groups, each triple lies in one component, so admissibility too
    is checked per component. Enumerated a component at a time, a direct
    sum costs exactly the sum of its summands' work.
    """
    uf = UnionFind(columns)
    for group in groups:
        first, *rest = group
        for c in rest:
            uf.union(first, c)
    held: dict[int, list] = {}
    for group in groups:
        held.setdefault(uf.find(next(iter(group))), []).append(group)
    return [(members, held.get(root, []))
            for root, members in sorted(uf.groups().items(),
                                        key=lambda kv: kv[1][0])]


# -- admissible-only search --------------------------------------------------


def _integer_kernel(A: Sequence[dict[int, int]], n: int
                    ) -> list[tuple[int, ...]]:
    """A basis of the integer kernel of the m x n matrix of sparse rows
    A: the columns of the Smith column transform past the rank, each
    primitive. Only the rows of V are appended to copies of A's."""
    m = len(A)
    rows = [dict(row) for row in A] + [{j: 1} for j in range(n)]
    rank = len(_smith(rows, m, n))
    return [tuple(row.get(j, 0) for row in rows[m:]) for j in range(rank, n)]


def _independent(rows: Sequence[Sequence[int]],
                 limit: Optional[int] = None) -> list[int]:
    """Indices of the first linearly independent rows, at most limit of
    them: by fraction-free elimination, a row is taken when it does not
    reduce to zero against the rows taken before it. Their number is the
    rank when there is no limit."""
    taken: list[int] = []
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for i, row in enumerate(rows):
        if len(taken) == limit:
            break
        r = list(row)
        for p, e in echelon:
            if r[p]:
                r = [e[p] * a - r[p] * b for a, b in zip(r, e)]
        if any(r):
            g = math.gcd(*r)
            echelon.append((next(k for k, a in enumerate(r) if a),
                            [a // g for a in r]))
            taken.append(i)
    return taken


def _bitsets(masks: Iterable[int], width: int) -> np.ndarray:
    """Bitmasks given as Python ints, packed as rows of uint64 words."""
    return np.array([[(m >> (64 * w)) & 0xFFFF_FFFF_FFFF_FFFF
                      for w in range(width)] for m in masks],
                    dtype=np.uint64).reshape(-1, width)


def _disjoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether bitsets a and b, broadcast against each other, share no
    bit: the words ANDed pairwise and ORed together, compared with 0.

    The word axis (the last) is short, one word per 64 rows, and a numpy
    reduction over so short an axis costs far more than the few word
    operations it does, so the words are combined in a Python loop.
    """
    acc = a[..., 0] & b[..., 0]
    for w in range(1, a.shape[-1]):
        acc |= a[..., w] & b[..., w]
    return acc == 0


def _row_masks(a: np.ndarray) -> list[int]:
    """Each row of a 2-D boolean array as a bitmask int, column j at bit
    j: _bitsets' inverse, through numpy's bit packing."""
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(a, axis=1, bitorder="little")]


def _popcount(a: np.ndarray) -> np.ndarray:
    """The number of bits set in each bitset of a, word by word."""
    # bitwise_count gives uint8, which a sum of four words could wrap
    count = np.bitwise_count(a[..., 0]).astype(np.intp)
    for w in range(1, a.shape[-1]):
        count += np.bitwise_count(a[..., w])
    return count


def _adjacent_pairs(tight: np.ndarray, positive: np.ndarray,
                    blocked: np.ndarray, pos: np.ndarray, neg: np.ndarray,
                    d: int, budget: _Budget
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (p, q) of pos x neg, in row-major order, whose
    combination respects the groups and which are adjacent.

    Works through blocks of pos against blocks of neg, and checks which
    pairs are adjacent against blocks of rays, so that no
    broadcast temporary holds more than about _CHUNK elements.
    """
    width = tight.shape[1]
    loose = ~tight
    tight_neg, positive_neg = tight[neg], positive[neg]
    span = max(1, _CHUNK // width)
    # pos rows one at a time once neg is split, so that pairs still come
    # out in row-major order
    step = 1 if len(neg) > span else max(1, _CHUNK // (len(neg) * width))
    found_p, found_q = [], []
    for lo in range(0, len(pos), step):
        ps = pos[lo:lo + step]
        for at in range(0, len(neg), span):
            common = tight[ps, None] & tight_neg[None, at:at + span]
            ok = _disjoint(blocked[ps, None],
                           positive_neg[None, at:at + span])
            ok &= _popcount(common) >= max(d - 2, 0)
            i, j = np.nonzero(ok)
            # rays tight on every row of the pair's common set; p and q
            # always are, so the pair is adjacent iff there is no third
            covering = _count_matches(common[i, j], loose, _disjoint,
                                      budget)
            adjacent = covering == 2
            found_p.append(ps[i[adjacent]])
            found_q.append(neg[at + j[adjacent]])
    return np.concatenate(found_p), np.concatenate(found_q)


def _extreme_rays(ineq: Sequence[tuple[int, ...]], budget: _Budget,
                  block_rows: Sequence[Sequence[int]] = (),
                  ) -> list[tuple[int, ...]]:
    """Rays spanning the pointed cone {z : ineq @ z >= 0}, as tuples of
    Python ints.

    Double description with exact integer arithmetic. The inequality
    matrix must have full column rank. The rows are taken in one order,
    the grouped rows of block_rows first, then the rest, each by index.
    The first d independent rows of that order (_independent), the base
    B, bound a simplicial cone whose rays are the columns of B^-1: with
    S = U B V the Smith form of B (both U's columns and V's rows are
    appended to B's rows), column j of V diag(s_d/s_i) U is a positive
    multiple of column j of B^-1, and is taken divided by its gcd. Each
    other row is inserted in the same order, keeping the rays it does
    not cut off and one new ray per adjacent pair across the cut.

    The rays are the rows of one R x d integer array, so each insertion
    is a few whole-array operations: the row's values on every ray are
    one matrix-vector product, the new rays vals[p] * ray[q] -
    vals[q] * ray[p] of all adjacent pairs one broadcast, each divided
    by its gcd, and a ray that two pairs give is kept at its first pair.
    The array is int64 while every value a step can form fits: with M
    the largest |ray coordinate| and N the largest l1 norm of a row of
    ineq, a value is at most M * N and a new coordinate at most
    2 * M**2 * N. Once that bound passes the int64 range the arrays turn
    to dtype=object, exact Python ints, for the rest of the run.

    The pair tests are array operations. The rows each ray is tight on,
    numbered in insertion order, are a row of the R x W uint64 array
    `tight`, W = ceil(len(ineq) / 64). A pair (p, q) is adjacent when
    its common tight set has at least d - 2 rows and no third ray is
    tight on all of them. Pairs are filtered in row-major order, so new
    rays come out in the order of a plain double loop, in chunks that
    keep every broadcast temporary near _CHUNK elements; the bitset
    tests loop over the W words in Python (_disjoint, _popcount).

    block_rows names groups of inequality rows of which at most one may
    end up positive. Rays that already have two positive values within
    one group among the rows processed so far are discarded: a combined
    ray's value on a processed row is a positive combination of its
    parents' values, so positivity there is inherited, and no such ray
    can lead to a group-respecting final ray. Every stored ray respects
    the groups, so `positive` holds its positive grouped rows and
    `blocked` the other rows of the groups those touch: p and q combine
    into a group-breaking ray exactly when positive[q] & blocked[p] is
    nonzero. The output is every extreme ray that respects the groups,
    possibly plus further group-respecting rays of the cone.

    The order moves only the work and the order of the rays returned:
    the method is exact from any d independent rows, and the base rows
    count as processed, sitting in `positive` and `blocked` from the
    start. Initial ray j is positive on base row j alone, so from a base
    of grouped rows every initial ray respects the groups and pruning
    works from the first insertion. On the 10-tet 15,392 candidates are
    charged, against 226,061 with the base taken by index.
    """
    d = len(ineq[0])
    # grouped row -> the other rows of the groups containing it
    others: dict[int, int] = {}
    for rows in block_rows:
        group = 0
        for r in rows:
            group |= 1 << r
        for r in rows:
            others[r] = others.get(r, 0) | (group & ~(1 << r))
    order = sorted(range(len(ineq)), key=lambda i: (i not in others, i))
    base = [order[k] for k in _independent([ineq[i] for i in order], d)]
    aug = [_sparse(ineq[i]) | {d + k: 1} for k, i in enumerate(base)]
    aug += [{j: 1} for j in range(d)]
    s = _smith(aug, d, d)
    scaled_u = [[s[-1] // s[k] * aug[k].get(d + i, 0) for i in range(d)]
                for k in range(d)]
    V = [[row.get(j, 0) for j in range(d)] for row in aug[d:]]
    # ray j is column j of the product, so row j of its transpose
    rays = (np.array(V, dtype=object) @ np.array(scaled_u, dtype=object)).T
    # initial=0 makes even a one-coordinate gcd nonnegative
    rays //= np.gcd.reduce(rays, axis=1, initial=0)[:, None]
    A = np.array(ineq, dtype=object)
    norm = max(sum(map(abs, row)) for row in ineq)
    if 2 * int(np.abs(rays).max()) ** 2 * norm <= _INT64_MAX:
        rays, A = rays.astype(np.int64), A.astype(np.int64)
    width = -(-len(ineq) // 64)
    tight = _bitsets([((1 << d) - 1) ^ (1 << j) for j in range(d)], width)
    positive = _bitsets([1 << r if r in others else 0 for r in base], width)
    blocked = _bitsets([others.get(r, 0) for r in base], width)
    remaining = [i for i in order if i not in base]
    for nbits, t0 in enumerate(remaining, start=d):
        if rays.dtype != object and 2 * int(
                np.abs(rays).max(initial=0)) ** 2 * norm > _INT64_MAX:
            rays, A = rays.astype(object), A.astype(object)
        vals = rays @ A[t0]
        pos = np.flatnonzero(vals > 0)
        neg = np.flatnonzero(vals < 0)
        zero = np.flatnonzero(vals == 0)
        p_new = q_new = np.zeros(0, dtype=np.intp)
        new_rays = rays[:0]
        if len(pos) and len(neg):
            budget.charge(len(pos) * len(neg) + len(rays))
            adj_p, adj_q = _adjacent_pairs(
                tight, positive, blocked, pos, neg, d, budget)
            # positive combinations of two rays of a pointed cone, so
            # nonzero, and each gcd is at least 1
            vec = (vals[adj_p, None] * rays[adj_q]
                   - vals[adj_q, None] * rays[adj_p])
            vec //= np.gcd.reduce(vec, axis=1, initial=0)[:, None]
            first: dict[tuple[int, ...], int] = {}
            for k, key in enumerate(map(tuple, vec.tolist())):
                first.setdefault(key, k)
            unique = list(first.values())
            new_rays, p_new, q_new = vec[unique], adj_p[unique], adj_q[unique]
        bit = _bitsets([1 << nbits], width)
        # tight on row t0, so the new tight sets are common | bit; a pair
        # that passed the group test has neither parent's positive rows
        # blocked by the other, so blocked sets simply unite
        new_tight = (tight[p_new] & tight[q_new]) | bit
        new_positive = positive[p_new] | positive[q_new]
        new_blocked = blocked[p_new] | blocked[q_new]
        if t0 in others:
            # once this row is sealed, every later combination stays
            # positive here, so rays breaking a group now are dead ends
            t0_bit = _bitsets([1 << t0], width)
            pos = pos[_disjoint(blocked[pos], t0_bit)]
            positive[pos] |= t0_bit
            blocked[pos] |= _bitsets([others[t0]], width)
        tight[zero] |= bit
        keep = np.concatenate([pos, zero])
        tight = np.vstack([tight[keep], new_tight])
        positive = np.vstack([positive[keep], new_positive])
        blocked = np.vstack([blocked[keep], new_blocked])
        rays = np.vstack([rays[keep], new_rays])
    return [tuple(ray) for ray in rays.tolist()]


def _bits(mask: int) -> list[int]:
    """The positions of the bits set in mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _maximal_cliques(neighbors: Sequence[int], budget: _Budget) -> list[int]:
    """Maximal cliques of a graph, vertices as bitmask ints: Bron-Kerbosch
    pivoting on the first vertex of P | X with most neighbors in P
    (Tomita, Tanaka and Takahashi, Theor. Comput. Sci. 363, 2006).

    It keeps its own stack, checking the deadline at each node. A frame
    (R, P, X, rest) is a node when rest is None, else the rest of a
    node's loop, lowest candidate first, pushed under the child's frame
    so that the cliques come out in the recursive search's order.
    """
    out: list[int] = []
    stack = [(0, (1 << len(neighbors)) - 1, 0, None)] if neighbors else []
    while stack:
        r, p, x, rest = stack.pop()
        if rest is None:
            budget.check_time()
            if not p | x:
                out.append(r)
                continue
            pivot = max(_bits(p | x),
                        key=lambda v: (p & neighbors[v]).bit_count())
            rest = p & ~neighbors[pivot]
        if rest:
            b = rest & -rest
            n = neighbors[b.bit_length() - 1]
            if rest ^ b:
                stack.append((r, p ^ b, x | b, rest ^ b))
            stack.append((r | b, p & n, x & n, None))
    return out


def _admissible_rays(sys: MatchingSystem, budget: _Budget
                     ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]],
                                list[frozenset[int]]]:
    """The admissible rays of the solution cone, as three parallel lists:
    kernel coordinates, full-length normal coordinates and quad patterns
    (the quad variables a ray is positive on).

    The cone is {z : K z >= 0}, K the integer kernel basis of the
    system's equations over its variables that are not forced to zero:
    z is a point's coordinates in that basis, which spans every integer
    solution, so the lattice points of the cone are exactly the integer
    solutions. The rays are those of _extreme_rays with the rows of each
    quad triple as a group, so every one is admissible.
    """
    equations = [_quadruple_to_row(eq) for eq in sys.equations]
    active = [v for v in range(sys.variable_count)
              if v not in sys.forced_zeros]
    col_of = {v: k for k, v in enumerate(active)}
    A = []
    for eq in equations:
        row = {col_of[v]: c for v, c in eq.items() if v in col_of}
        if row:
            A.append(row)
    kernel = _integer_kernel(A, len(active))
    if not kernel:
        return [], [], []
    ineq = [tuple(col[i] for col in kernel) for i in range(len(active))]

    block_rows = []
    quad_rows = []
    for triple in sys.quad_triples:
        present = tuple(col_of[q] for q in triple if q in col_of)
        quad_rows.extend(present)
        if len(present) > 1:
            block_rows.append(present)

    rays = _extreme_rays(ineq, budget, block_rows)
    # one exact product of Python ints: ray r's values are column r
    values = np.zeros((sys.variable_count, len(rays)), dtype=object)
    values[active] = np.array(ineq, dtype=object) @ np.array(
        rays, dtype=object).reshape(-1, len(kernel)).T
    normals = [tuple(v) for v in values.T.tolist()]
    patterns = [frozenset(active[i] for i in quad_rows if v[active[i]] > 0)
                for v in normals]
    return rays, normals, patterns


def _faces(patterns: Sequence[frozenset[int]],
           quad_triples: Sequence[tuple[int, int, int]], budget: _Budget
           ) -> list[int]:
    """The ray sets, as bitmasks over the rays, of the faces that cover
    the admissible solutions, one per maximal coherent family of quad
    patterns, in the order _maximal_cliques finds the families, each
    set once.

    Two patterns are coherent when their union has at most one quad type
    per block. A family's face is the cone's face on which every quad
    outside the family's union vanishes. Its rays are the rays whose
    pattern lies inside that union, and those are exactly the rays of
    the family's patterns: a pattern inside the union is coherent with
    every member, so a maximal family holds it.

    Each pattern is admissible, one quad per block it touches, so two
    patterns are coherent exactly when neither holds a quad that the
    other excludes, the other quads of its blocks. Each pattern's quads
    and excluded quads are rows of uint64 words (_bitsets), and the test
    runs a block of patterns against all of them at a time (_disjoint),
    with temporaries of about _CHUNK elements; each row of the result is
    a pattern's neighbour set. The deadline is checked once per block,
    and the test charges nothing.
    """
    others = {q: sum(1 << x for x in triple if x != q)
              for triple in quad_triples for q in triple}
    plist = sorted(set(patterns), key=sorted)
    index = {p: k for k, p in enumerate(plist)}
    rays_of = [0] * len(plist)
    for r, p in enumerate(patterns):
        rays_of[index[p]] |= 1 << r
    width = -(-(max(others, default=0) + 1) // 64)
    quads = _bitsets([sum(1 << q for q in p) for p in plist], width)
    # a pattern's quads lie in distinct blocks, so their others are
    # disjoint and add up to their union
    excluded = _bitsets([sum(others[q] for q in p) for p in plist], width)
    step = max(1, _CHUNK // max(1, len(plist) * width))
    neighbors = []
    for lo in range(0, len(plist), step):
        budget.check_time()
        neighbors += _row_masks(_disjoint(excluded[lo:lo + step, None],
                                          quads[None]))
    # every pattern is coherent with itself, and no neighbour of its own
    neighbors = [m & ~(1 << k) for k, m in enumerate(neighbors)]
    # each ray has one pattern, so the masks of rays_of are disjoint
    return list(dict.fromkeys(
        sum(rays_of[k] for k in _bits(clique))
        for clique in _maximal_cliques(neighbors, budget)))


def _triangulate(face: int, rank: int, zero_masks: Iterable[int],
                 memo: dict[int, list[tuple[int, ...]]], budget: _Budget
                 ) -> list[tuple[int, ...]]:
    """Pulling triangulation of the cone spanned by the rays in `face`,
    a bitmask over the rays, of the given rank: its simplices as sorted
    tuples of rays.

    `zero_masks` holds, for each coordinate, the rays vanishing on it;
    the cone is a face of {x >= 0 : A x = 0}, so each of its facets is
    where one coordinate vanishes. A set of rank many rays is a simplex
    already. Otherwise pull the lowest ray r0: cone r0 over the
    triangulation of each facet that misses it. The facets' ray sets are
    the inclusion-maximal proper sets `face & zero_mask`: every proper
    face lies in a facet, and a face holds exactly the rays of the
    spanning set that lie in it, so a smaller face has fewer rays. Each
    facet has rank one less. The triangulation of a ray set depends on
    that set only, so it is memoised in `memo`, shared by all faces.
    It recurses once per rank: at most 46 levels on the closed 26-tet
    figure-eight grown by 2-3 moves, far below the recursion limit.
    """
    budget.check_time()
    if face in memo:
        return memo[face]
    rays = _bits(face)
    if len(rays) == rank:
        simplices = [tuple(rays)]
    else:
        r0 = rays[0]
        tight = {face & z for z in zero_masks} - {face}
        simplices = [
            (r0,) + s
            for t in sorted(tight)
            if not t >> r0 & 1
            and not any(t != u and t & u == t for u in tight)
            for s in _triangulate(t, rank - 1, zero_masks, memo, budget)]
    memo[face] = simplices
    return simplices


def _unimodular(masks: Sequence[tuple[int, int]]) -> bool:
    """Whether k linearly independent nonnegative vectors, each given by
    its support and its coordinates equal to 1 as a pair of bitmasks,
    have a k x k minor of 1 that peeling finds; then the lattice they
    span holds every integer point of their span, and their simplex has
    index 1.

    A vector with a 1 in a column where every other vector left is 0
    is peeled off with that column. On the peeled columns, rows and
    columns in peeling order, each row is 1 on the diagonal and 0 left
    of it, as its vector was left when the earlier columns were peeled:
    once every vector is peeled, that minor is triangular, of
    determinant 1. False means that some round peeled nothing, not that
    the index is above 1.
    """
    left = list(masks)
    while left:
        seen = shared = 0
        for support, _ in left:
            shared |= seen & support
            seen |= support
        kept = [(support, unit) for support, unit in left
                if not unit & ~shared]
        if len(kept) == len(left):
            return False
        left = kept
    return True


def _parallelepiped(kernel_rays: Sequence[Sequence[int]], normals: np.ndarray,
                    masks: Sequence[tuple[int, int]], budget: _Budget
                    ) -> list[tuple[int, ...]]:
    """The nonzero lattice points of a simplicial cone's fundamental
    parallelepiped {sum l_i r_i : 0 <= l_i < 1}, in normal coordinates.

    The k rays r_i are linearly independent, given by their kernel
    coordinates (the rows of a k x d matrix R), by their normal
    coordinates (the rows of the k x n array normals, nonnegative) and
    by the masks of those (_unimodular). Their number, the simplex's
    index, is charged before any point is built.

    When the normal coordinates peel (_unimodular), the index is 1 and
    there is no point. Otherwise, with S = U R V the Smith form of R and
    s_1 | ... | s_k its invariant factors, the lattice points of R's row
    span are exactly the combinations l R with l = y diag(1/s) U, y
    integral, and y in the box 0 <= y_j < s_j picks out each point of
    the parallelepiped once, as frac(l); the index is s_1 ... s_k. Only
    the columns of U are appended to R's rows.

    The points are two matrix products over every nonzero y of the box
    at once, in integers: the rows of Y @ scaled, scaled row j being row
    j of U times s_k / s_j, are the l scaled by s_k, reduced modulo s_k
    to frac(l) scaled by s_k, and their product with the normals is
    divided by s_k exactly. The arrays are int64 when every value the
    products form fits: each is below s_k times the larger of the
    largest column sum of |scaled| and k times the largest normal
    coordinate. Past that bound they are dtype=object, exact Python
    ints.
    """
    if _unimodular(masks):
        budget.charge(1)
        return []
    k, d = len(kernel_rays), len(kernel_rays[0])
    rows = [_sparse(r) | {d + i: 1} for i, r in enumerate(kernel_rays)]
    s = _smith(rows, k, d)
    budget.charge(math.prod(s))
    top = s[-1]
    if top == 1:
        return []
    # y_j only matters where s_j > 1
    big = [j for j in range(k) if s[j] > 1]
    scaled = [[top // s[j] * rows[j].get(d + i, 0) for i in range(k)]
              for j in big]
    bound = top * max(max(sum(abs(row[i]) for row in scaled)
                          for i in range(k)),
                      k * int(normals.max()))
    dtype = np.int64 if bound <= _INT64_MAX else object
    # the box in product order; its first point is y = 0
    ys = np.indices([s[j] for j in big]).reshape(len(big), -1).T[1:]
    coeffs = ys.astype(dtype) @ np.array(scaled, dtype=dtype) % top
    return [tuple(p) for p in
            (coeffs @ normals.astype(dtype) // top).tolist()]


def _face_basis(kernel_rays: list[tuple[int, ...]],
                normals: list[tuple[int, ...]], patterns: list[frozenset[int]],
                quad_triples: Sequence[tuple[int, int, int]],
                budget: _Budget) -> list[tuple[int, ...]]:
    """Admissible fundamental solutions of one summand, from triangulated
    faces of its admissible rays, as _admissible_rays returns them.

    Every summand of a nonnegative combination is bounded by the total,
    so an extreme ray of the solution cone carrying two quad types in
    one block never appears in a decomposition of an admissible
    solution: each admissible solution lies in a face of the cone
    spanned by admissible rays whose quad patterns are pairwise
    coherent, hence in one of the faces of _faces.

    Each face is triangulated (_triangulate), and every lattice point of
    a simplicial cone is a point of its fundamental parallelepiped
    (_parallelepiped) plus a nonnegative integer combination of its
    rays. So every irreducible element of a face's monoid is one of its
    rays or one of its simplices' nonzero parallelepiped points. Which
    triangulation, and which order the points come in, changes neither
    (Bruns-Ichim, J. Algebra 324, 2010).

    A face is where some coordinates vanish. If x = y + w in the full
    monoid, then y and w are below x coordinatewise, so they lie in x's
    face: an irreducible element of a face's monoid is fundamental in
    the full system. The same argument gives the test. A candidate c
    lies in some face F; every nonzero solution below c lies in F as
    well, so it is above one of F's irreducible elements, which are
    candidates. So c is fundamental exactly when no other candidate lies
    below it, and minimality is tested once, over the candidates of all
    faces together.

    The normals are one array, read once for every ray's zero set and
    masks (_unimodular); each simplex takes its rows. The
    budget is charged each face's ray count, and each distinct simplex's
    index (its parallelepiped's lattice points, zero included) before
    the points are built; the triangulation checks the deadline at every
    step.
    """
    if not kernel_rays:
        return []
    values = np.array(normals, dtype=object)
    support = values != 0
    zero_masks = set(_row_masks(~support.T))
    masks = list(zip(_row_masks(support), _row_masks(values == 1)))
    memo: dict[int, list[tuple[int, ...]]] = {}
    points: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for face in _faces(patterns, quad_triples, budget):
        members = _bits(face)
        budget.charge(len(members))
        rank = len(_independent([kernel_rays[r] for r in members]))
        for simplex in _triangulate(face, rank, zero_masks, memo, budget):
            if simplex not in points:
                points[simplex] = _parallelepiped(
                    [kernel_rays[r] for r in simplex], values[list(simplex)],
                    [masks[r] for r in simplex], budget)
    candidates = normals + [p for found in points.values() for p in found]
    _require_int64(max(map(max, candidates)), "a normal coordinate")
    rows = _minimal_rows(np.array(candidates, dtype=np.int64), budget)
    return [tuple(row) for row in rows.tolist()]


def _admissible_stages(sys: MatchingSystem, budget: _Budget
                       ) -> Iterator[list[tuple[int, ...]]]:
    """The admissible search in two stages on one budget, each yielded
    distinct and sorted:
      - the vertex solutions, the normal vectors of the admissible rays
        of each summand of sys (_summands), the double description
        running once per summand;
      - only when resumed, the admissible fundamental solutions, each
        summand's read from the same rays (_face_basis).

    A ray is primitive in kernel coordinates, and the kernel basis is a
    basis of the lattice of integer solutions, so its normal vector is
    the primitive solution on the ray. On an extreme ray that vector is
    irreducible, as both terms of a sum equal to it lie on the ray, so
    it is fundamental. With block pruning, _extreme_rays may also return
    other group-respecting rays, whose vectors need not be fundamental;
    a caller that takes a vertex solution as a witness re-verifies it.

    Run whole on a direct sum, the cone is the product of the summands'
    cones, its faces products and its simplices joins; run per
    interaction component, the basis is the union of the summands' and
    the work the sum of theirs (_interaction_components).
    """
    stage = [_admissible_rays(part, budget) for part in _summands(sys)]
    yield sorted({v for _, normals, _ in stage for v in normals})
    yield sorted({v for rays in stage
                  for v in _face_basis(*rays, sys.quad_triples, budget)})


def _summands(sys: MatchingSystem) -> list[MatchingSystem]:
    """sys as a direct sum: per interaction component of its variables
    not forced to zero, sys with every other variable forced to zero;
    [sys] itself when there is at most one component."""
    zero = sys.forced_zeros
    groups = [[v for v in group if v not in zero] for group in
              itertools.chain(map(_quadruple_to_row, sys.equations),
                              sys.quad_triples)]
    components = _interaction_components(
        (v for v in range(sys.variable_count) if v not in zero),
        [group for group in groups if group])
    if len(components) <= 1:
        return [sys]
    variables = frozenset(range(sys.variable_count))
    return [replace(sys, forced_zeros=variables.difference(members))
            for members, _ in components]


def _enumerate_dual(red: _Reduction, budget: _Budget
                    ) -> list[tuple[int, ...]]:
    """Full Hilbert basis of a reduced system by sequential lifting."""
    blocks = []
    # a column in no equation is a component of its own, whose only
    # fundamental solution is its unit vector
    for members, eqs in _interaction_components(range(len(red.columns)),
                                                red.equations):
        local = {col: k for k, col in enumerate(members)}
        A = np.zeros((len(eqs), len(members)), dtype=np.int64)
        for r, eq in enumerate(eqs):
            for col, c in eq.items():
                A[r, local[col]] = c
        blocks.append((members, _hilbert_sequential(A, budget)))
    return red.expand(blocks)


def enumerate_fundamental(
    sys: MatchingSystem,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    time_budget: Optional[float] = None,
    admissible_only: bool = False,
) -> FundamentalSet:
    """The complete Hilbert basis of the system's solution monoid.

    Every nonnegative solution is a nonnegative integer combination of
    the returned vectors, and none of them is a sum of two nonzero
    solutions. Raises ResourceLimitExceeded when the candidate or time
    budget runs out; never returns a silently truncated set.

    With admissible_only=True the result is instead exactly the
    admissible members of that Hilbert basis, admissible meaning at most
    one nonzero quad of each of sys.quad_triples. They are computed
    without the full basis: faces of the solution cone that allow one
    quad choice per block cover the admissible solutions, and each face
    is triangulated and its simplices' fundamental parallelepipeds
    enumerated, which is usually far cheaper. This is the last stage of
    the staged admissible search (_admissible_stages). Otherwise, and
    for systems without quad triples, the completion search runs on the
    whole system.

    Both paths go one interaction component at a time on one budget:
    a system whose variables split into blocks that no equation or quad
    triple joins is the direct sum of the blocks, so its basis is the
    union of theirs and candidates_examined the sum of their work
    (_interaction_components, _summands). The admissible path runs the
    double description of every block before it triangulates any face.
    """
    budget = _Budget(max_candidates, time_budget)
    if admissible_only and sys.quad_triples:
        *_, vectors = _admissible_stages(sys, budget)
    else:
        red = _Reduction(sys.variable_count,
                         [_quadruple_to_row(eq) for eq in sys.equations],
                         sys.forced_zeros)
        vectors = sorted(set(_enumerate_dual(red, budget)))
    return FundamentalSet(
        vectors=tuple(vectors),
        candidates_examined=budget.examined,
        elapsed=budget.elapsed)
