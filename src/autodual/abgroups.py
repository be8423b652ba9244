"""Finite abelian groups as explicit operation tables.

Everything here is desk scale: groups are given by n×n tables on elements
0..n−1.  A decomposition peels off a maximal-order cyclic factor and takes
its complement in one greedy pass over the elements, then is verified by
reconstructing the table.  The oracles and constructions that only the
tests call (characters, endomorphisms, annihilators over Z_m and the
zero-column fact) are in `autodual.operations`.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import lcm
from typing import Callable, Iterable, Optional, Sequence

from .algebras import CATALOG_STATE_CAP
from .errors import CapExceeded, InternalInconsistency, NotAbelian


def _prime_factors(n: int) -> dict:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def closure(start: Iterable, gens: Sequence, op: Callable) -> set:
    """Everything reachable from `start` by repeatedly applying x -> op(x, g)
    for g in `gens`, breadth first; `start` is included."""
    out = set(start)
    frontier = list(out)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = op(x, g)
                if y not in out:
                    out.add(y)
                    new.append(y)
        frontier = new
    return out


class AbelianGroup:
    """Finite abelian group on elements 0..n-1 with an explicit table."""

    def __init__(self, table: Sequence[Sequence[int]], labels=None):
        self.table = [list(row) for row in table]
        self.n = len(self.table)
        self.labels = list(labels) if labels is not None else list(range(self.n))
        self._validate()
        self.identity = self._find_identity()
        self._inv = [self._find_inverse(x) for x in range(self.n)]
        self._order = {}        # x -> its order, walked on first use

    def _validate(self):
        n, table = self.n, self.table
        if n == 0:
            raise NotAbelian("empty table")
        if any(len(row) != n or min(row) < 0 or max(row) >= n for row in table):
            raise NotAbelian("malformed table")
        if list(map(list, zip(*table))) != table:
            x, y = next((x, y) for x in range(n) for y in range(n) if table[x][y] != table[y][x])
            raise NotAbelian(f"not commutative at ({x}, {y})")
        # Light's test: in a commutative magma the g with (x·g)·y = x·(g·y)
        # for all x, y are closed under the product, so it is enough to check
        # the g of a generating set, chosen greedily; a group's has at most
        # log₂ n + 1 elements, so a group table costs O(n² log n).  The span
        # is the left-normed closure of the chosen g; a new g adds itself and
        # the old span times g, and only what is new is multiplied further.
        # In a group the span is the subgroup the chosen g generate, so each
        # new g at least doubles it (Lagrange); a table refused where one does
        # not costs O(n² log n) too
        chosen, span = [], set()
        for g in range(n):
            if g in span:
                continue
            chosen.append(g)
            g_row = table[g]
            for x, row in enumerate(table):
                xg_row = table[row[g]]
                if list(map(row.__getitem__, g_row)) != xg_row:
                    y = next(y for y in range(n) if xg_row[y] != row[g_row[y]])
                    raise NotAbelian(f"not associative at ({x}, {g}, {y})")
            before = len(span)
            fresh = {g, *(table[x][g] for x in span)} - span
            while fresh:
                span |= fresh
                fresh = {table[x][c] for x in fresh for c in chosen} - span
            if len(span) < 2 * before:
                raise NotAbelian(f"not a group: adding {g} grows the span of the chosen "
                                 f"elements from {before} to {len(span)}, less than double")

    def _find_identity(self) -> int:
        try:
            return self.table.index(list(range(self.n)))
        except ValueError:
            raise NotAbelian("no identity element") from None

    def _find_inverse(self, x: int) -> int:
        try:
            return self.table[x].index(self.identity)
        except ValueError:
            raise NotAbelian(f"no inverse for {x}") from None

    def op(self, x: int, y: int) -> int:
        return self.table[x][y]

    def inv(self, x: int) -> int:
        return self._inv[x]

    def order_of(self, x: int) -> int:
        if x not in self._order:
            acc, k = x, 1
            while acc != self.identity:
                acc = self.table[acc][x]
                k += 1
            self._order[x] = k
        return self._order[x]

    def power(self, x: int, k: int) -> int:
        k %= self.order_of(x)
        acc = self.identity
        for _ in range(k):
            acc = self.table[acc][x]
        return acc

    @property
    def exponent(self) -> int:
        return lcm(*map(self.order_of, range(self.n)))

    def elements(self):
        return range(self.n)

    def subgroup_generated(self, gens: Iterable[int]) -> frozenset:
        return frozenset(closure([self.identity], list(gens), self.op))

    def difference_subgroup(self, xs: Iterable[int]) -> frozenset:
        """⟨x⁻¹y : x, y in xs⟩, {e} for an empty xs; a Mal'cev closed xs is a
        coset of it.  Generated from one x₀ in xs as ⟨x₀⁻¹y : y in xs⟩, since
        x⁻¹y = (x₀⁻¹x)⁻¹(x₀⁻¹y)."""
        xs = list(xs)
        shift = self.table[self._inv[xs[0]]] if xs else ()
        return self.subgroup_generated({shift[y] for y in xs})

    def malcev_gap(self, xs: Sequence[int]) -> Optional[tuple]:
        """The first index triple (i, j, k), in nested-loop order, with
        xs[i]·xs[j]⁻¹·xs[k] outside xs, or None when xs is closed under
        x·y⁻¹·z; a nonempty xs is closed exactly when it is a coset.

        Only i = 0 is scanned: if x₀·y⁻¹·z is in xs for all y, z in xs, then
        T = x₀⁻¹·xs holds e and y⁻¹z for all x₀⁻¹y, x₀⁻¹z in T, so T⁻¹T ⊆ T,
        T is a subgroup and xs = x₀·T is closed.  So the first gap, if any,
        has i = 0."""
        inside = set(xs)
        for j, y in enumerate(xs):
            row = self.table[self.table[xs[0]][self._inv[y]]]
            if not inside.issuperset(map(row.__getitem__, xs)):
                return (0, j, next(k for k, z in enumerate(xs) if row[z] not in inside))
        return None

    # -- constructors ------------------------------------------------------

    @classmethod
    def cyclic(cls, n: int) -> "AbelianGroup":
        return cls([[(x + y) % n for y in range(n)] for x in range(n)])

    @classmethod
    def trivial(cls) -> "AbelianGroup":
        return cls.cyclic(1)

    @classmethod
    def of_orders(cls, *orders: int) -> "AbelianGroup":
        """Z_{d1} × ... × Z_{dk}, its elements labelled by coordinate tuples."""
        tuples = list(iproduct(*[range(d) for d in orders]))
        pos = {t: i for i, t in enumerate(tuples)}
        table = [[pos[tuple((a + b) % d for a, b, d in zip(t1, t2, orders))]
                  for t2 in tuples] for t1 in tuples]
        return cls(table, labels=tuples)

    def __repr__(self):
        return f"AbelianGroup(n={self.n})"


# ---------------------------------------------------------------------------
# primary decomposition
# ---------------------------------------------------------------------------

def cyclic_decomposition(G: AbelianGroup) -> list:
    """Primary decomposition into cyclic p-groups.

    Returns (generator, prime-power order) pairs with primes ascending and
    orders ascending within each prime.  Per prime, the least g of maximal
    order in the p-part P is a factor, and P is replaced by a complement K
    of ⟨g⟩, built in one pass over P in order: x joins K when ⟨K, x⟩ meets
    ⟨g⟩ only in e.  In a finite abelian p-group, a subgroup meeting a cyclic
    subgroup of maximal order only in e lies inside a complement of it (the
    step in the proof of the basis theorem), so the pass never needs to take
    an x back, and a rejected x stays rejected as K grows.  Correctness is
    established by reconstruction: the coordinate map must be a bijection
    onto G.
    """
    if G.n > CATALOG_STATE_CAP:
        raise CapExceeded(f"|G| = {G.n} exceeds the catalog state cap {CATALOG_STATE_CAP}")
    basis = []
    for p in sorted(_prime_factors(G.n)):
        primary = {x for x in G.elements() if _is_p_power(G.order_of(x), p)}
        part = []
        while len(primary) > 1:
            best = max(G.order_of(x) for x in primary)
            g = min(x for x in primary if G.order_of(x) == best)
            g_span, K, target = G.subgroup_generated([g]), {G.identity}, len(primary) // best
            for x in sorted(primary):
                if len(K) == target:
                    break
                if x not in K:
                    grown = closure(K, [x], G.op)
                    if len(grown & g_span) == 1:
                        K = grown
            if len(K) != target:
                raise InternalInconsistency("no complement for a maximal cyclic factor")
            part.append((g, best))
            primary = K
        basis.extend(sorted(part, key=lambda t: t[1]))
    _verify_decomposition(G, basis)
    return basis


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def _verify_decomposition(G: AbelianGroup, basis: list) -> None:
    total = 1
    for _, d in basis:
        total *= d
    if total != G.n:
        raise InternalInconsistency("decomposition orders do not multiply to |G|")
    coords_of, _ = coordinate_maps(G, basis)
    if len(coords_of) != G.n:
        raise InternalInconsistency("decomposition does not reconstruct the table")


def coordinate_maps(G: AbelianGroup, basis: list):
    """(element -> coords tuple, coords tuple -> element) for a basis."""
    elem_of = {}
    for coords in iproduct(*[range(d) for _, d in basis]):
        x = G.identity
        for (g, _), t in zip(basis, coords):
            x = G.op(x, G.power(g, t))
        elem_of[coords] = x
    coords_of = {x: c for c, x in elem_of.items()}
    return coords_of, elem_of
