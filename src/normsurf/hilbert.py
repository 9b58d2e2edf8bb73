"""Fundamental solution (Hilbert basis) enumeration.

The solution set of a matching system is the monoid of nonnegative
integer vectors satisfying homogeneous equations v_i + v_j = v_k + v_l
and a set of forced zeros. Its fundamental solutions are the nonzero
members that are not the sum of two nonzero members; equivalently the
minimal nonzero members under coordinatewise order, since the solution
set is closed downward in that order. This module enumerates them by
completion search, after reductions that shrink but do not change the
monoid up to isomorphism.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ResourceLimitExceeded, VectorError
from .homology import _smith_with_transforms
from .matching import MatchingSystem, NormalVector, is_admissible
from .union_find import UnionFind

DEFAULT_MAX_CANDIDATES = 10_000_000
# elements a broadcast temporary may hold
_CHUNK = 1 << 15


@dataclass(frozen=True)
class FundamentalSet:
    """The complete fundamental solution list of one system.

    vectors are full-length, lexicographically sorted. The fingerprint
    identifies the generating system so downstream callers can detect
    set/system mismatches. candidates_examined and elapsed describe the
    search effort.
    """

    vectors: tuple[NormalVector, ...]
    system_fingerprint: str
    candidates_examined: int
    elapsed: float


def system_fingerprint(sys: MatchingSystem) -> str:
    doc = {
        "variables": sys.variable_count,
        "equations": sorted(sys.equations),
        "zeros": sorted(sys.forced_zeros),
    }
    blob = json.dumps(doc, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class _Budget:
    """Candidate and wall-clock accounting for one enumeration call."""

    def __init__(self, max_candidates: int, time_budget: Optional[float]):
        if max_candidates <= 0:
            raise ValueError("max_candidates must be positive")
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
    """

    def __init__(self, n: int, equations: Iterable[dict[int, int]],
                 forced_zeros: Iterable[int]):
        self.n = n
        uf = UnionFind(range(n))
        zeros = {uf.find(z) for z in forced_zeros}
        exprs: dict[int, dict[int, int]] = {}
        eqs = [dict(eq) for eq in equations]

        def normalize() -> None:
            changed = True
            while changed:
                changed = False
                kept = []
                for eq in eqs:
                    acc: dict[int, int] = {}
                    for var, c in eq.items():
                        r = uf.find(var)
                        if r in zeros:
                            continue
                        acc[r] = acc.get(r, 0) + c
                    acc = {v: c for v, c in acc.items() if c != 0}
                    if not acc:
                        continue
                    signs = {c > 0 for c in acc.values()}
                    if len(signs) == 1:
                        zeros.update(acc)
                        changed = True
                        continue
                    if len(acc) == 2:
                        (x, cx), (y, cy) = sorted(acc.items())
                        if cx == -cy:
                            # roots here are never in zeros (checked above)
                            uf.union(x, y)
                            changed = True
                            continue
                    kept.append(acc)
                eqs[:] = kept
            # drop duplicate constraints (an equation equals its negation)
            seen = set()
            kept = []
            for eq in eqs:
                items = tuple(sorted(eq.items()))
                if items[0][1] < 0:
                    items = tuple((v, -c) for v, c in items)
                if items not in seen:
                    seen.add(items)
                    kept.append(eq)
            eqs[:] = kept

        def find_pivot() -> Optional[tuple[int, int]]:
            for k, eq in enumerate(eqs):
                for var in sorted(eq):
                    c = eq[var]
                    if c in (1, -1) and all(
                            (other_c > 0) != (c > 0)
                            for v, other_c in eq.items() if v != var):
                        return k, var
            return None

        while True:
            normalize()
            hit = find_pivot()
            if hit is None:
                break
            k, x = hit
            eq = eqs.pop(k)
            cx = eq.pop(x)
            # x = sum of the remaining terms scaled to positive coeffs
            expr = {v: -c * cx for v, c in eq.items()}
            exprs[x] = expr
            for other in eqs:
                if x in other:
                    mult = other.pop(x)
                    for v, c in expr.items():
                        other[v] = other.get(v, 0) + mult * c

        self._uf = uf
        self._zero_roots = zeros
        self._exprs = exprs
        self.equations = eqs
        self.active = sorted(
            {uf.find(v) for v in range(n)} - zeros - set(exprs))
        self._column = {rep: k for k, rep in enumerate(self.active)}
        self._reps = [uf.find(v) for v in range(n)]
        # A substituted variable's expression only uses variables that
        # are pinned to zero, still active, or substituted later (each
        # substitution removes its variable from every equation left),
        # so expand evaluates them in reverse order, without recursion
        # however long the chains of substitutions are.
        self._substitutions = [
            (x, [(uf.find(v), c) for v, c in exprs[x].items()])
            for x in reversed(exprs)]

    def column_of(self, var: int) -> Optional[int]:
        """Reduced column of a variable, or None when it is pinned to
        zero or substituted away."""
        rep = self._uf.find(var)
        if rep in self._zero_roots or rep in self._exprs:
            return None
        return self._column[rep]

    def expand(self, reduced: Sequence[int]) -> tuple[int, ...]:
        """Lift a reduced solution back to full length."""
        values = dict.fromkeys(self._zero_roots, 0)
        values.update(zip(self.active, map(int, reduced)))
        for x, terms in self._substitutions:
            values[x] = sum(c * values[v] for v, c in terms)
        return tuple(values[rep] for rep in self._reps)


def _quadruple_to_row(eq: tuple[int, int, int, int]) -> dict[int, int]:
    row: dict[int, int] = {}
    for var, c in ((eq[0], 1), (eq[1], 1), (eq[2], -1), (eq[3], -1)):
        row[var] = row.get(var, 0) + c
    return {v: c for v, c in row.items() if c != 0}


# -- completion search -----------------------------------------------------


def _dominated(rows: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """For each row, the number of anchor rows it is coordinatewise >=.

    Works through rows a block at a time, so that no broadcast
    temporary holds more than about _CHUNK elements.
    """
    counts = np.zeros(len(rows), dtype=np.intp)
    step = max(1, _CHUNK // max(1, anchors.size))
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step, None] >= anchors[None]
        counts[lo:lo + step] = block.all(2).sum(1)
    return counts


def _minimal_rows(rows: np.ndarray) -> np.ndarray:
    """Coordinatewise-minimal nonzero rows, deduplicated."""
    rows = np.unique(rows, axis=0)
    rows = rows[rows.any(axis=1)]
    # rows are unique, so a minimal row is above itself only
    return rows[_dominated(rows, rows) == 1]


def _lift_equation(H: np.ndarray, vals: np.ndarray,
                   budget: _Budget) -> np.ndarray:
    """Restrict the monoid generated by the rows of H to one equation.

    vals[i] is the equation's value on row i. Partial sums of
    generators are grown breadth-first, always adding a generator whose
    value has the sign opposite to the running total, until the total
    cancels. A partial sum is discarded as soon as it dominates a
    finished solution or another partial sum with the same running
    value; neither can lead to a new minimal element. Finished sums are
    filtered to the coordinatewise-minimal nonzero vectors.
    """
    width = H.shape[1]
    zero = H[vals == 0]
    if not (vals > 0).any() or not (vals < 0).any():
        return zero
    pos = H[vals > 0]
    pos_vals = vals[vals > 0]
    neg = H[vals < 0]
    neg_vals = vals[vals < 0]

    results = [zero]
    # archive of minimal partial sums per running value, for pruning
    archive: dict[int, np.ndarray] = {}
    # the generators are the first partial sums
    cand, cvals = H[vals != 0], vals[vals != 0]
    while len(cand):
        values = np.unique(cvals)
        fresh = []
        for v in values.tolist():
            old = archive.get(v, cand[:0])
            merged = _minimal_rows(np.vstack([old, cand[cvals == v]]))
            archive[v] = merged
            # a merged row not in old is above no old row, or it would
            # not be minimal
            fresh.append(merged[_dominated(merged, old) == 0])
        frontier = np.vstack(fresh)
        fvals = np.repeat(values, [len(f) for f in fresh])

        up = fvals > 0
        cand = np.vstack([
            (frontier[up][:, None] + neg[None]).reshape(-1, width),
            (frontier[~up][:, None] + pos[None]).reshape(-1, width)])
        cvals = np.concatenate([
            (fvals[up][:, None] + neg_vals[None]).reshape(-1),
            (fvals[~up][:, None] + pos_vals[None]).reshape(-1)])
        budget.charge(len(cand))

        done = cvals == 0
        results.append(np.unique(cand[done], axis=0))
        cand, cvals = cand[~done], cvals[~done]
        alive = _dominated(cand, np.vstack(results)) == 0
        cand, cvals = cand[alive], cvals[alive]
    return _minimal_rows(np.vstack(results))


def _hilbert_sequential(A: np.ndarray, budget: _Budget) -> list[np.ndarray]:
    """Minimal nonzero solutions of A v = 0, v >= 0 integral.

    Equations are imposed one at a time: the generating set for the
    first k rows is lifted across row k+1 by cancelling values of the
    current generators. Each lift preserves exactness, because every
    minimal solution of the extended system is a minimal-cancellation
    combination of the previous generators. Remaining equations are
    chosen greedily so the cheapest lift runs first.
    """
    H = np.eye(A.shape[1], dtype=np.int64)
    budget.charge(len(H))
    remaining = list(range(len(A)))
    while remaining and len(H):
        vals = H @ A[remaining].T
        npos = (vals > 0).sum(0).tolist()
        nneg = (vals < 0).sum(0).tolist()
        best = min(range(len(remaining)), key=lambda i: (
            npos[i] * nneg[i], npos[i] + nneg[i]))
        H = _lift_equation(H, vals[:, best], budget)
        del remaining[best]
    return list(H)


def _interaction_components(
    nvars: int, equations: list[dict[int, int]]
) -> list[tuple[list[int], list[dict[int, int]]]]:
    """Split reduced variables into independent blocks."""
    uf = UnionFind(range(nvars))
    for eq in equations:
        cols = list(eq)
        for c in cols[1:]:
            uf.union(cols[0], c)
    eq_of: dict[int, list[dict[int, int]]] = {}
    for eq in equations:
        eq_of.setdefault(uf.find(next(iter(eq))), []).append(eq)
    comps = []
    for root, members in sorted(uf.groups().items(), key=lambda kv: kv[1][0]):
        comps.append((members, eq_of.get(root, [])))
    return comps


# -- admissible-only search --------------------------------------------------


def _integer_kernel(A: Sequence[Sequence[int]], n: int
                    ) -> list[tuple[int, ...]]:
    """A basis of the integer kernel of the m x n matrix A: the columns
    of the Smith column transform past the rank, each primitive."""
    m = len(A)
    S, _, V, _ = _smith_with_transforms(A, m, n)
    rank = sum(1 for i in range(min(m, n)) if S[i][i])
    return [tuple(row[j] for row in V) for j in range(rank, n)]


def _bitsets(masks: Iterable[int], width: int) -> np.ndarray:
    """Bitmasks given as Python ints, packed as rows of uint64 words."""
    return np.array([[(m >> (64 * w)) & 0xFFFF_FFFF_FFFF_FFFF
                      for w in range(width)] for m in masks],
                    dtype=np.uint64).reshape(-1, width)


def _adjacent_pairs(tight: np.ndarray, positive: np.ndarray,
                    blocked: np.ndarray, pos: np.ndarray, neg: np.ndarray,
                    d: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (p, q) of pos x neg, in row-major order, whose
    combination respects the groups and which are adjacent.

    Works through pos a block of rows at a time, so that no broadcast
    temporary holds more than about _CHUNK elements.
    """
    width = tight.shape[1]
    loose = ~tight
    tight_neg, positive_neg = tight[neg], positive[neg]
    step = max(1, _CHUNK // (len(neg) * width))
    span = max(1, _CHUNK // (len(tight) * width))
    found_p, found_q = [], []
    for lo in range(0, len(pos), step):
        ps = pos[lo:lo + step]
        common = tight[ps, None] & tight_neg[None]
        ok = ~(blocked[ps, None] & positive_neg[None]).any(2)
        ok &= np.bitwise_count(common).sum(2) >= max(d - 2, 0)
        i, j = np.nonzero(ok)
        common = common[i, j]
        adjacent = np.empty(len(i), dtype=bool)
        for s in range(0, len(i), span):
            # rays tight on every row of the pair's common set; p and q
            # always are, so the pair is adjacent iff there is no third
            covering = ~(common[s:s + span, None] & loose[None]).any(2)
            adjacent[s:s + span] = covering.sum(1) == 2
        found_p.append(ps[i[adjacent]])
        found_q.append(neg[j[adjacent]])
    return np.concatenate(found_p), np.concatenate(found_q)


def _extreme_rays(ineq: Sequence[tuple[int, ...]], budget: _Budget,
                  block_rows: Sequence[Sequence[int]] = (),
                  ) -> list[tuple[int, ...]]:
    """Rays spanning the pointed cone {z : ineq @ z >= 0}.

    Double description with exact integer arithmetic. The inequality
    matrix must have full column rank. Start from the first d linearly
    independent rows, found by fraction-free elimination. They bound a
    simplicial cone whose rays are the columns of the base's inverse:
    with S = U B V the Smith form of the base B, column j of
    V diag(s_d/s_i) U is a positive multiple of column j of B^-1, and
    is taken divided by its gcd. Insert each other row in turn, keeping
    the rays it does not cut off and one new ray per adjacent pair
    across the cut. Ray coordinates and the values of the not-yet-
    inserted rows on all rays are exact Python ints; the values are
    updated incrementally instead of recomputed.

    The pair tests are array operations. The rows each ray is tight
    on, numbered in insertion order, are a row of the R x W uint64
    array `tight`, with W = ceil(len(ineq) / 64). A pair (p, q) is
    adjacent when its common tight set has at least d - 2 rows and no
    third ray is tight on all of them. Pairs are filtered in row-major
    (p, q) order, so new rays come out in the order of a plain double
    loop. Every broadcast works on a chunk of pairs small enough that
    no temporary holds more than about _CHUNK elements.

    block_rows names groups of inequality rows of which at most one may
    end up positive. Rays that already have two positive values within
    one group among the rows processed so far are discarded: a combined
    ray's value on a processed row is a positive combination of its
    parents' values, so positivity there is inherited, and no such ray
    can lead to a group-respecting final ray. Every stored ray respects
    the groups, so `positive` holds its positive grouped rows and
    `blocked` the other rows of the groups those touch: p and q combine
    into a group-breaking ray exactly when positive[q] & blocked[p] is
    nonzero. With block pruning the output is every extreme ray that
    respects the groups, possibly plus further group-respecting rays of
    the cone; group-violating extreme rays are dropped.
    """
    d = len(ineq[0])
    base: list[int] = []
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for i, row in enumerate(ineq):
        r = list(row)
        for p, e in echelon:
            if r[p]:
                r = [e[p] * a - r[p] * b for a, b in zip(r, e)]
        if any(r):
            g = math.gcd(*r)
            echelon.append((next(k for k, a in enumerate(r) if a),
                            [a // g for a in r]))
            base.append(i)
            if len(base) == d:
                break
    S, U, V, _ = _smith_with_transforms([ineq[i] for i in base], d, d)
    scaled_u = [[S[d - 1][d - 1] // S[k][k] * x for x in U[k]]
                for k in range(d)]
    # grouped row -> the other rows of the groups containing it
    others: dict[int, int] = {}
    for rows in block_rows:
        group = 0
        for r in rows:
            group |= 1 << r
        for r in rows:
            others[r] = others.get(r, 0) | (group & ~(1 << r))
    rays: list[tuple[int, ...]] = []
    for j in range(d):
        col = [sum(v * u[j] for v, u in zip(V[i], scaled_u))
               for i in range(d)]
        g = math.gcd(*col)
        rays.append(tuple(x // g for x in col))
    width = -(-len(ineq) // 64)
    tight = _bitsets([((1 << d) - 1) ^ (1 << j) for j in range(d)], width)
    positive = _bitsets([1 << r if r in others else 0 for r in base], width)
    blocked = _bitsets([others.get(r, 0) for r in base], width)

    # grouped rows go first: each one processed arms the group pruning,
    # which is what keeps intermediate ray counts small
    remaining = sorted(
        (i for i in range(len(ineq)) if i not in set(base)),
        key=lambda i: (i not in others, i))
    table = {t: [sum(a * b for a, b in zip(ineq[t], ray)) for ray in rays]
             for t in remaining}
    for nbits, t0 in enumerate(remaining, start=d):
        vals = table.pop(t0)
        sign = np.array([(v > 0) - (v < 0) for v in vals], dtype=np.int8)
        pos = np.flatnonzero(sign > 0)
        neg = np.flatnonzero(sign < 0)
        zero = np.flatnonzero(sign == 0)
        new_rays: list[tuple[int, ...]] = []
        new_recipe: list[tuple[int, int, int, int, int]] = []
        if len(pos) and len(neg):
            budget.charge(len(pos) * len(neg) + len(rays))
            seen: set[tuple[int, ...]] = set()
            adj_p, adj_q = _adjacent_pairs(
                tight, positive, blocked, pos, neg, d)
            for p, q in zip(adj_p.tolist(), adj_q.tolist()):
                vp, vq = vals[p], vals[q]
                vec = tuple(vp * rq - vq * rp
                            for rp, rq in zip(rays[p], rays[q]))
                g = math.gcd(*vec)
                if g > 1:
                    vec = tuple(x // g for x in vec)
                else:
                    g = 1
                if vec in seen:
                    continue
                seen.add(vec)
                new_rays.append(vec)
                new_recipe.append((p, q, vp, vq, g))
        bit = _bitsets([1 << nbits], width)
        p_new = np.array([r[0] for r in new_recipe], dtype=np.intp)
        q_new = np.array([r[1] for r in new_recipe], dtype=np.intp)
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
            pos = pos[~(blocked[pos] & t0_bit).any(1)]
            positive[pos] |= t0_bit
            blocked[pos] |= _bitsets([others[t0]], width)
        tight[zero] |= bit
        keep = np.concatenate([pos, zero])
        tight = np.vstack([tight[keep], new_tight])
        positive = np.vstack([positive[keep], new_positive])
        blocked = np.vstack([blocked[keep], new_blocked])
        keep_idx = keep.tolist()
        rays = [rays[i] for i in keep_idx] + new_rays
        for t in table:
            tv = table[t]
            table[t] = [tv[i] for i in keep_idx] + [
                (vp * tv[q] - vq * tv[p]) // g
                for p, q, vp, vq, g in new_recipe]
    return rays


def _maximal_cliques(neighbors: Sequence[int]) -> list[int]:
    """Maximal cliques of a small graph, vertices as bitmask ints."""
    out: list[int] = []

    def extend(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pool = p | x
        pivot, best = -1, -1
        probe = pool
        while probe:
            b = probe & -probe
            v = b.bit_length() - 1
            cnt = bin(p & neighbors[v]).count("1")
            if cnt > best:
                pivot, best = v, cnt
            probe ^= b
        cand = p & ~neighbors[pivot]
        while cand:
            b = cand & -cand
            v = b.bit_length() - 1
            extend(r | b, p & neighbors[v], x & neighbors[v])
            p ^= b
            x |= b
            cand ^= b

    if neighbors:
        extend(0, (1 << len(neighbors)) - 1, 0)
    return out


def _enumerate_admissible_primal(sys: MatchingSystem, budget: _Budget
                                 ) -> list[tuple[int, ...]]:
    """Admissible fundamental solutions via quad-choice subcones.

    Every summand of a nonnegative combination is bounded by the total,
    so an extreme ray of the solution cone carrying two quad types in
    one block can never appear in a decomposition of an admissible
    solution. Each admissible solution therefore lies in a face of the
    cone spanned by admissible extreme rays, whose quad supports are
    pairwise coherent (at most one quad type per block in the union).
    For each maximal coherent family of ray supports, forcing all other
    quad coordinates to zero gives a subsystem whose fundamental
    solutions are admissible and fundamental in the full system, and
    the union over these subsystems is exactly the admissible part of
    the full fundamental set. Duplicates across subsystem runs are
    removed by exact vector equality after re-expansion.
    """
    active = [v for v in range(sys.variable_count)
              if v not in sys.forced_zeros]
    col_of = {v: k for k, v in enumerate(active)}
    rows = []
    for eq in sys.equations:
        row = {col_of[v]: c for v, c in _quadruple_to_row(eq).items()
               if v in col_of}
        if row:
            rows.append(row)
    A = [[0] * len(active) for _ in rows]
    for r, row in enumerate(rows):
        for col, c in row.items():
            A[r][col] = c
    kernel = _integer_kernel(A, len(active))
    if not kernel:
        return []
    ineq = [tuple(col[i] for col in kernel) for i in range(len(active))]

    block_of = {q: b for b, triple in enumerate(sys.quad_triples)
                for q in triple}
    block_rows = []
    quad_rows = []
    for triple in sys.quad_triples:
        present = tuple(col_of[q] for q in triple if q in col_of)
        quad_rows.extend(present)
        if len(present) > 1:
            block_rows.append(present)

    patterns: set[frozenset[int]] = set()
    for z in _extreme_rays(ineq, budget, block_rows):
        patterns.add(frozenset(
            active[i] for i in quad_rows
            if sum(a * b for a, b in zip(ineq[i], z)) > 0))
    if not patterns:
        return []

    plist = sorted(patterns, key=sorted)
    maps = [{block_of[q]: q for q in p} for p in plist]
    neighbors = [0] * len(plist)
    for i in range(len(plist)):
        for j in range(i + 1, len(plist)):
            if all(maps[j].get(blk, q) == q for blk, q in maps[i].items()):
                neighbors[i] |= 1 << j
                neighbors[j] |= 1 << i

    all_quads = {q for triple in sys.quad_triples for q in triple}
    solutions: set[tuple[int, ...]] = set()
    seen_zero_sets: set[frozenset[int]] = set()
    for clique in _maximal_cliques(neighbors):
        allowed: set[int] = set()
        m = clique
        while m:
            b = m & -m
            allowed |= plist[b.bit_length() - 1]
            m ^= b
        zeros = frozenset(sys.forced_zeros | (all_quads - allowed))
        if zeros in seen_zero_sets:
            continue
        seen_zero_sets.add(zeros)
        solutions.update(
            _enumerate_dual(replace(sys, forced_zeros=zeros), budget))
    return list(solutions)


def _enumerate_dual(sys: MatchingSystem, budget: _Budget
                    ) -> list[tuple[int, ...]]:
    """Full Hilbert basis by reduction plus sequential lifting."""
    rows = [_quadruple_to_row(eq) for eq in sys.equations]
    red = _Reduction(sys.variable_count, rows, sys.forced_zeros)

    reduced_eqs = [
        {red.column_of(v): c for v, c in eq.items()} for eq in red.equations]
    nred = len(red.active)
    solutions: list[tuple[int, ...]] = []
    # a column in no equation is a component of its own, whose only
    # fundamental solution is its unit vector
    for members, eqs in _interaction_components(nred, reduced_eqs):
        local = {col: k for k, col in enumerate(members)}
        A = np.zeros((len(eqs), len(members)), dtype=np.int64)
        for r, eq in enumerate(eqs):
            for col, c in eq.items():
                A[r, local[col]] = c
        for v in _hilbert_sequential(A, budget):
            reduced = np.zeros(nred, dtype=np.int64)
            reduced[members] = v
            solutions.append(red.expand(reduced))
    return solutions


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
    admissible members of that Hilbert basis. They are computed without
    the full basis, by covering the admissible solutions with
    single-quad-choice subcones (see _enumerate_admissible_primal),
    which is usually far cheaper.
    """
    budget = _Budget(max_candidates, time_budget)
    if admissible_only and sys.quad_triples:
        solutions = _enumerate_admissible_primal(sys, budget)
    else:
        solutions = _enumerate_dual(sys, budget)
    return FundamentalSet(
        vectors=tuple(sorted(set(solutions))),
        system_fingerprint=system_fingerprint(sys),
        candidates_examined=budget.examined,
        elapsed=budget.elapsed)


def filter_admissible(fs: FundamentalSet) -> FundamentalSet:
    """Keep only vectors with at most one nonzero quad type per block.

    An admissible solution's summands are themselves solutions below it
    coordinatewise, hence admissible too, so the admissible members of
    the Hilbert basis are exactly the fundamental admissible surfaces.
    """
    return replace(
        fs, vectors=tuple(v for v in fs.vectors if is_admissible(v)))


# -- verification helpers ----------------------------------------------------


def brute_force_solutions(
    sys: MatchingSystem,
    bound: int,
    *,
    max_states: int = 2_000_000,
) -> set[NormalVector]:
    """All solutions with every coordinate <= bound, by exhaustive search.

    Independent of the completion machinery: variables are enumerated
    one at a time with interval pruning per equation (a partial
    assignment dies once an equation can no longer reach zero). Forced
    zeros clamp their variables directly. Raises ResourceLimitExceeded
    when the partial-assignment population exceeds max_states.
    """
    if bound < 0:
        raise VectorError("bound must be >= 0")
    n = sys.variable_count
    rows = [_quadruple_to_row(eq) for eq in sys.equations]
    rows = [r for r in rows if r]

    # Order variables so related ones are adjacent; equations resolve early.
    order: list[int] = []
    seen: set[int] = set()
    for row in rows:
        for v in sorted(row):
            if v not in seen:
                seen.add(v)
                order.append(v)
    for v in range(n):
        if v not in seen:
            order.append(v)

    m = len(rows)
    coef = np.zeros((m, n), dtype=np.int64)
    for r, row in enumerate(rows):
        for v, c in row.items():
            coef[r, v] = c

    # After processing prefix of length k, equation r can still change by
    # any amount in [lo_future[r, k], hi_future[r, k]].
    lo_future = np.zeros((m, n + 1), dtype=np.int64)
    hi_future = np.zeros((m, n + 1), dtype=np.int64)
    for k in range(n - 1, -1, -1):
        v = order[k]
        contrib = coef[:, v] * bound
        lo_future[:, k] = lo_future[:, k + 1] + np.minimum(contrib, 0)
        hi_future[:, k] = hi_future[:, k + 1] + np.maximum(contrib, 0)

    states = np.zeros((1, n), dtype=np.int64)
    sums = np.zeros((1, m), dtype=np.int64)
    for k, v in enumerate(order):
        top = 0 if v in sys.forced_zeros else bound
        reps = []
        new_sums = []
        for value in range(top + 1):
            reps.append(np.concatenate(
                [states[:, :v], np.full((len(states), 1), value, np.int64),
                 states[:, v + 1:]], axis=1))
            new_sums.append(sums + value * coef[:, v])
        states = np.concatenate(reps, axis=0)
        sums = np.concatenate(new_sums, axis=0)
        ok = ((sums + lo_future[:, k + 1] <= 0)
              & (sums + hi_future[:, k + 1] >= 0)).all(axis=1)
        states = states[ok]
        sums = sums[ok]
        if len(states) > max_states:
            raise ResourceLimitExceeded(
                f"brute force state population {len(states)} exceeds "
                f"{max_states}",
                candidates=len(states), elapsed=0.0)
    return {tuple(int(x) for x in row) for row in states}
