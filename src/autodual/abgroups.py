"""Finite abelian groups as explicit operation tables.

Everything here is desk scale: groups are given by n×n tables on elements
0..n−1.  A decomposition peels off a maximal-order cyclic factor and takes
its complement in one greedy pass over the elements, then is verified by
reconstructing the table; the character construction is self-verified
element by element.
"""

from __future__ import annotations

from functools import reduce
from itertools import product as iproduct
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .algebras import CATALOG_STATE_CAP
from .errors import (BadParams, CapExceeded, ConstructionFailed, ExponentMismatch,
                     HypothesisFailed, IndexOutOfRange, InternalInconsistency,
                     NotAbelian, NotSubgroup, PropositionViolated)


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


def abelian_group_isomorphism_types(max_order: int) -> list:
    """All isomorphism types of abelian groups of order 1..max_order.

    Each type is returned as ("C2xC4"-style name, AbelianGroup built as a
    product of prime-power cyclic factors).
    """
    def partitions(k):
        if k == 0:
            yield ()
            return
        for first in range(k, 0, -1):
            for rest in partitions(k - first):
                if not rest or first >= rest[0]:
                    yield (first,) + rest

    out = []
    for order in range(1, max_order + 1):
        per_prime = []
        for p, e in sorted(_prime_factors(order).items()):
            per_prime.append([(p, part) for part in partitions(e)])
        if not per_prime:
            out.append(("C1", AbelianGroup.trivial()))
            continue
        for combo in iproduct(*per_prime):
            factors = []
            for p, part in combo:
                factors.extend(p ** e for e in sorted(part))
            name = "x".join(f"C{d}" for d in factors)
            out.append((name, AbelianGroup.of_orders(*factors)))
    return out


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


# ---------------------------------------------------------------------------
# endomorphism / character oracles
# ---------------------------------------------------------------------------

def _basis_maps(G: AbelianGroup, candidates: Callable, value: Callable) -> list:
    """Every map out of G fixed by images of the basis generators, as a tuple
    of values over G.elements(), in product order of the images.

    `candidates(d)` lists the images allowed for a generator of order d;
    `value(images, coords)` is the map's value at the element with these
    coordinates.  The trivial group has the empty basis and one map.
    """
    basis = cyclic_decomposition(G)
    coords_of, _ = coordinate_maps(G, basis)
    return [tuple(value(images, coords_of[x]) for x in G.elements())
            for images in iproduct(*[candidates(d) for _, d in basis])]


def all_endomorphisms(G: AbelianGroup) -> list:
    """Every endomorphism, as a tuple image vector (brute-force oracle)."""
    return _basis_maps(
        G, lambda d: [x for x in G.elements() if d % G.order_of(x) == 0],
        lambda images, coords: reduce(G.op, map(G.power, images, coords),
                                      G.identity))


def _check_modulus(m: int) -> None:
    if m < 1:
        raise BadParams(f"modulus m = {m} must be positive")


def all_characters(G: AbelianGroup, m: int) -> list:
    """Every homomorphism G -> Z_m, as a tuple of values (oracle)."""
    _check_modulus(m)
    return _basis_maps(G, lambda d: range(0, m, m // gcd(m, d)),
                       lambda images, coords: sum(map(mul, images, coords)) % m)


# ---------------------------------------------------------------------------
# the character-with-endomorphisms construction
# ---------------------------------------------------------------------------

class CharacterWitness(NamedTuple):
    chi: dict                    # element -> value in Z_m
    endo_provider: Callable      # element h -> endomorphism image tuple
    modulus: int

    def verify(self, H: AbelianGroup, u: int) -> None:
        m = self.modulus
        for x in H.elements():
            for y in H.elements():
                if (self.chi[x] + self.chi[y]) % m != self.chi[H.op(x, y)]:
                    raise ConstructionFailed("chi is not a homomorphism")
        for h in H.elements():
            if h == H.identity:
                continue
            phi = self.endo_provider(h)
            for x in H.elements():
                for y in H.elements():
                    if phi[H.op(x, y)] != H.op(phi[x], phi[y]):
                        raise ConstructionFailed("provided map is not an endomorphism")
            if phi[u] != u:
                raise ConstructionFailed("endomorphism does not fix u")
            if self.chi[phi[h]] % m == 0:
                raise ConstructionFailed(f"chi(phi(h)) = 0 for h = {h}")


def _vp(x: int, p: int, cap: int) -> int:
    """p-adic valuation of x in Z_{p^cap} (valuation of 0 is cap)."""
    if x == 0:
        return cap
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def huc_character(H: AbelianGroup, m: int, u: int) -> CharacterWitness:
    """Character chi: H -> Z_m with, per h ≠ e, an endomorphism fixing u
    that pushes h out of ker chi.

    Constructive: per prime, reindex coordinates so the last one carries a
    maximal-order component of u, project; the per-h endomorphisms come from
    the explicit two-coordinate formulas.  The result is self-verified.
    """
    if u not in H.elements():
        raise IndexOutOfRange(f"u = {u} is not an element of H")
    _check_modulus(m)
    if m % H.exponent != 0:
        raise ExponentMismatch(f"exponent {H.exponent} does not divide m = {m}")
    basis = cyclic_decomposition(H)
    coords_of, _ = coordinate_maps(H, basis)
    coords = {x: list(coords_of[x]) for x in H.elements()}

    exps = []          # coordinate i is cyclic of order p ** exps[i]
    by_prime = {}      # p -> its coordinate indices, orders ascending
    for idx, (_, d) in enumerate(basis):
        (p, e), = _prime_factors(d).items()
        exps.append(e)
        by_prime.setdefault(p, []).append(idx)

    # the last coordinate of each prime is the one chi projects onto
    for p, idxs in by_prime.items():
        dvals = [exps[i] - _vp(coords[u][i], p, exps[i]) for i in idxs]
        if dvals[-1] != max(dvals):
            cj, ck = idxs[dvals.index(max(dvals))], idxs[-1]
            shift, mod = p ** (exps[ck] - exps[cj]), p ** exps[ck]
            for x in H.elements():
                coords[x][ck] = (coords[x][ck] + shift * coords[x][cj]) % mod

    # the adjustments re-choose the coordinate isomorphism; rebuild its inverse
    elem_of = {tuple(c): x for x, c in coords.items()}

    chi = {}
    for x in H.elements():
        chi[x] = sum((m // p ** exps[idxs[-1]]) * coords[x][idxs[-1]]
                     for p, idxs in by_prime.items()) % m

    def shear_target(h: int) -> Optional[tuple]:
        """(p, j) with p the first prime where h has a nonzero coordinate,
        j the first such coordinate, and h's projected coordinate at p zero;
        None when the identity serves (h = e, or chi(h) ≠ 0 already)."""
        for p, idxs in by_prime.items():
            if coords[h][idxs[-1]] != 0:
                return None
            for j in idxs[:-1]:
                if coords[h][j] != 0:
                    return p, j
        return None

    def endo_provider(h: int):
        """The identity, unless h must be sheared off ker chi."""
        table = [list(coords[x]) for x in H.elements()]
        target = shear_target(h)
        if target is not None:
            p, cj = target
            ck = by_prime[p][-1]
            nj, nk = exps[cj], exps[ck]
            mODk = p ** nk
            uj, uk = coords[u][cj], coords[u][ck]
            d1 = nj - _vp(uj, p, nj)
            d2 = nk - _vp(uk, p, nk)
            aj = uj // (p ** (nj - d1)) if uj else 1
            ak = uk // (p ** (nk - d2)) if uk else 1
            d = d2 - d1
            b = pow(ak, -1, mODk)
            c = ((aj * (p ** d) - ak) * b) % mODk
            for row in table:
                mu = (p ** (nk - nj)) * row[cj]
                row[ck] = (mu - c * row[ck]) % mODk
        return tuple(elem_of[tuple(row)] for row in table)

    witness = CharacterWitness(chi, endo_provider, m)
    witness.verify(H, u)
    return witness


# ---------------------------------------------------------------------------
# annihilators over Z_m
# ---------------------------------------------------------------------------

def annihilator_system(m: int, H: Iterable[tuple]) -> list:
    """Generating rows of {c : c·x ≡ 0 (mod m) for all x in H}.

    The returned system is round-trip verified: its solution set in Z_m^k
    is exactly H (the double annihilator of a subgroup of Z_m^k is itself).
    """
    H = {tuple(x % m for x in row) for row in H}
    k = len(next(iter(H), ()))
    if not H or any(len(x) != k for x in H):
        raise NotSubgroup("need nonempty subset of Z_m^k")
    witness = rows_form_subgroup(MatrixZm(m, tuple(sorted(H))))
    if witness is not None:
        raise NotSubgroup(f"not a subgroup of Z_m^k: {witness} is missing")
    if m ** k > 10 ** 6:
        raise CapExceeded("annihilator enumeration too large")
    # c·x = x·c, so the annihilator is the solution set of H as a system
    ann = sorted(solve_system(m, k, H))
    rows = []
    span = {tuple([0] * k)}
    for c in ann:
        if c not in span:
            rows.append(c)
            span = closure([tuple([0] * k)], rows, lambda x, g: tuple(
                (a + b) % m for a, b in zip(x, g)))
            if len(span) == len(ann):
                break
    if solve_system(m, k, rows) != H:
        raise InternalInconsistency("annihilator round trip failed")
    return rows


def solve_system(m: int, k: int, rows: list) -> set:
    return {x for x in iproduct(range(m), repeat=k)
            if all(sum(c * xi for c, xi in zip(row, x)) % m == 0 for row in rows)}


# ---------------------------------------------------------------------------
# the zero-column proposition
# ---------------------------------------------------------------------------

class MatrixZm(NamedTuple):
    modulus: int
    rows: tuple  # of row tuples

    @property
    def k(self):
        return len(self.rows[0]) if self.rows else 0

    def columns(self):
        return [tuple(row[c] for row in self.rows) for c in range(self.k)]


def rows_form_subgroup(mat: MatrixZm) -> Optional[tuple]:
    """None if the distinct rows form a subgroup of Z_m^k, else a witness."""
    m = mat.modulus
    S = set(mat.rows)
    zero = tuple([0] * mat.k)
    if zero not in S:
        return zero
    for x in S:
        for y in S:
            s = tuple((a + b) % m for a, b in zip(x, y))
            if s not in S:
                return s
    return None


def columns_form_coset(mat: MatrixZm) -> Optional[tuple]:
    """None if the distinct columns are Mal'cev closed (x−y+z), else a witness.

    A subset of an abelian group is a coset of a subgroup iff it is closed
    under x−y+z.
    """
    m = mat.modulus
    C = set(mat.columns())
    for x in C:
        for y in C:
            for z in C:
                w = tuple((a - b + c) % m for a, b, c in zip(x, y, z))
                if w not in C:
                    return w
    return None


def every_row_has_zero(mat: MatrixZm) -> Optional[tuple]:
    for row in mat.rows:
        if 0 not in row:
            return row
    return None


def find_zero_column(mat: MatrixZm) -> int:
    """Least index of an all-zero column; hypotheses are checked first.

    Under the verified hypotheses a zero column must exist; its absence
    would falsify the underlying proposition and aborts loudly.
    """
    for which, check in (("rows-subgroup", rows_form_subgroup),
                         ("columns-coset", columns_form_coset),
                         ("row-zero", every_row_has_zero)):
        witness = check(mat)
        if witness is not None:
            raise HypothesisFailed(which, witness)
    for c, col in enumerate(mat.columns()):
        if all(v == 0 for v in col):
            return c
    raise PropositionViolated(
        "matrix satisfies all hypotheses but has no zero column")
