"""Finite powers, subuniverse generation, hom enumeration and counting.

Power elements are plain tuples of element codes over the index set
{0, …, n−1}.  Generated subalgebras are materialized as `Groupoid`s
(opaque finite groupoids kept by their nonzero products) so that hom search
works uniformly for catalog algebras and for subalgebras of powers.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, reduce
from itertools import chain, compress, islice
from operator import and_, getitem, itemgetter, or_
from typing import Iterable, Optional, Sequence

from .algebras import ZERO, AutomaticAlgebra
from .errors import BadParams, CapExceeded, IndexOutOfRange

HOM_CAP_DEFAULT = 64


# ---------------------------------------------------------------------------
# power elements and subuniverse generation
# ---------------------------------------------------------------------------

def pointwise_mul(M: AutomaticAlgebra, u: tuple, v: tuple) -> tuple:
    return tuple(M.mul(x, y) for x, y in zip(u, v))


def generate_subuniverse(M: AutomaticAlgebra, n: int,
                         generators: Sequence[tuple],
                         max_elements: Optional[int] = None) -> list:
    """The elements of the subalgebra of M^n the generators generate, in
    generation order: the generators, first occurrences only, then one round
    at a time, where round r multiplies every known u with every v found in
    round r - 1, u·v before v·u.  Past `max_elements` elements it raises
    CapExceeded."""
    return _closure(M, n, generators, max_elements)[0]


def _closure(M: AutomaticAlgebra, n: int, generators: Sequence[tuple],
             max_elements: Optional[int], partners: Optional[list] = None) -> tuple:
    """(elements, index of the zero tuple) as in `generate_subuniverse`, and
    into `partners`, if it is a list, the `Groupoid.partners` of them.  As
    x·y is 0 unless x is a state and y a letter, u·v is the zero tuple unless
    some coordinate holds a state in u and a letter in v.  Only those
    products are computed, from the table of M; no |A|×|A| table is built.
    The zero tuple u0·u0, the first product, follows the generators."""
    size, n_states = M.size(), M.n_states
    mt = M.product_table()
    elems, index = [], {}
    for g in generators:
        if len(g) != n:
            raise BadParams("generator has wrong index size")
        if any(not 0 <= x < size for x in g):
            raise BadParams("generator has a coordinate outside M")
        if g not in index:
            index[g] = len(elems)
            elems.append(g)
    mt_rows = []    # mt_rows[i][c] = mt[elems[i][c]], so u·v = map(getitem, mt_rows[u], v)
    states, letters = [], []    # bitmasks of the coordinates of elems[i] in Q and in Σ

    def index_of(w):
        k = index.get(w)
        if k is None:
            k = index[w] = len(elems)
            elems.append(w)
            if max_elements is not None and len(elems) > max_elements:
                raise CapExceeded(f"subuniverse exceeded {max_elements} elements")
        return k

    zero = index_of((ZERO,) * n) if elems else -1
    start = 0       # the frontier is elems[start:known]
    while start < len(elems):
        known = len(elems)
        for u in elems[len(mt_rows):]:
            mt_rows.append(tuple(map(mt.__getitem__, u)))
            states.append(sum(1 << c for c, x in enumerate(u) if 0 < x <= n_states))
            letters.append(sum(1 << c for c, x in enumerate(u) if x > n_states))
            if partners is not None:
                partners.append([])
        # the only frontier elements that can stand right of a nonzero product
        right = [j for j in range(start, known) if letters[j]]
        for i in range(known):
            u, mt_u, s_u, l_u = elems[i], mt_rows[i], states[i], letters[i]
            # a frontier u has already met, as v, every frontier element before it
            lo = max(start, i)
            for j in range(lo, known) if l_u else right[bisect_left(right, lo):]:
                t = index_of(tuple(map(getitem, mt_u, elems[j]))) if s_u & letters[j] else zero
                s = index_of(tuple(map(getitem, mt_rows[j], u))) if states[j] & l_u else zero
                if partners is not None and (t != zero or s != zero):
                    partners[i].append((j, t, s))   # j != i: u·u is the zero tuple
                    partners[j].append((i, s, t))
        start = known
    return elems, zero


# ---------------------------------------------------------------------------
# finite groupoids
# ---------------------------------------------------------------------------

class Groupoid:
    """Finite groupoid on 0..n-1, kept by its products that are not the zero:
    `zero` is the absorbing element, -1 if there is none, and `partners[i]`
    lists (j, i·j, j·i), ascending in j, for each j with i·j or j·i not the
    zero, every j if there is none.  `Groupoid(table)` keeps those of a table."""

    def __init__(self, table: Sequence[Sequence[int]] = (), labels=None, *,
                 partners: Optional[list] = None, zero: int = -1):
        if partners is None:
            n = len(table)      # a row of length n >= 1 is not empty, for min() and max()
            if any(len(row) != n or min(row) < 0 or max(row) >= n for row in table):
                raise BadParams("malformed multiplication table")
            ids = list(range(n))    # one int object per element, shared
            zero = next((k for k in ids if table[k].count(k) == n
                         and all(row[k] == k for row in table)), -1)
            partners = [[(j, t, s) for j, t, s in zip(ids, row, col) if t != zero or s != zero]
                        for row, col in zip(table, zip(*table))]
        self.partners, self.zero, self.n = partners, zero, len(partners)
        self.labels = list(labels) if labels is not None else list(range(self.n))

    def mul(self, i: int, j: int) -> int:
        row = self.partners[i]
        k = bisect_left(row, (j,))
        return row[k][1] if k < len(row) and row[k][0] == j else self.zero

    @cached_property
    def search_index(self) -> tuple:
        """(pre_left, pre_right) for `_search_root`, built on first use and
        kept: pre_left[t], pre_right[t] list the pairs (k, j) with k·j = t
        not the zero, in row order.  No list of non-partners is kept: the
        search reaches them through each value's first holder."""
        pre_left, pre_right = [[] for _ in range(self.n)], [[] for _ in range(self.n)]
        for k, row in enumerate(self.partners):
            for j, t, _ in row:
                if t != self.zero:
                    pre_left[t].append(k)
                    pre_right[t].append(j)
        return pre_left, pre_right

    @classmethod
    def from_algebra(cls, M: AutomaticAlgebra) -> "Groupoid":
        G = cls.from_power(M, [(x,) for x in M.elements()])
        G.labels = [M.name(x) for x in M.elements()]
        return G

    @classmethod
    def from_power(cls, M: AutomaticAlgebra, elements: Sequence[tuple]) -> "Groupoid":
        """The groupoid on `elements`: distinct tuples of one width, closed
        under the product."""
        n = len(elements[0]) if elements else 0
        partners = []
        try:
            elems, zero = _closure(M, n, elements, len(elements), partners)
        except CapExceeded:
            elems = None
        if elems != list(elements):
            raise BadParams("element list is not closed under product")
        return cls(labels=elems, partners=partners, zero=zero)


# ---------------------------------------------------------------------------
# homomorphism enumeration
# ---------------------------------------------------------------------------

def enumerate_homs(A: Groupoid, M: AutomaticAlgebra, injective_only: bool = False,
                   max_elements: int = HOM_CAP_DEFAULT,
                   limit: Optional[int] = None,
                   preassigned: Optional[dict] = None) -> list:
    """All homomorphisms A -> M as tuples of element codes, indexed by A,
    whose value at each element of `preassigned` lies in its set of codes,
    in lexicographic order: the leaves of `_walk` over every element of A.
    More than `limit` homs raise CapExceeded.  A call with neither
    `injective_only` nor `preassigned`, each of which changes what is
    counted, first raises it, before any search, when `_hom_lower_bound`
    exceeds `limit`.

    The walk needs no sort.  Each frame branches on the first open element
    k, so every element before k is decided there, and tries k's values in
    ascending order.  Two leaves part at the deepest frame they share: they
    agree on every element before its k, and the one reached first has the
    lower value at k.  So each hom comes once, and in lexicographic order.
    """
    allowed = _allowed_masks(A, M, preassigned, max_elements)
    if limit is not None and not injective_only and not allowed \
            and _hom_lower_bound(A, M) > limit:
        raise CapExceeded(f"more than {limit} homomorphisms")
    root = _search_root(A, M, injective_only, allowed)
    homs = [] if root is None else list(islice(_walk(root, range(A.n), ()),
                                               None if limit is None else max(limit + 1, 0)))
    if limit is not None and len(homs) > limit:
        raise CapExceeded(f"more than {limit} homomorphisms")
    return homs


def _walk(root: tuple, on: Sequence[int], swaps: Sequence[tuple]):
    """The restrictions to `on` of the leaves below the `_search_root` state
    `root`, the nodes where all of `on` is decided.  Each frame branches on
    the first open element of `on`, its values ascending; with `swaps` (see
    `restriction_counts`) those at q start from the value at p, and a leaf
    that descends along a pair is skipped.  A leaf is yielded while its
    state is live, so the reader can search below it."""
    img, dom, trail, decided, try_value, undo = root[:6]
    floors = [[on[p] for p, q in swaps if q == k] for k in range(len(on))]
    frames = []     # as `_backtrack` reads them
    while True:
        # the position of the first open element of `on`, whose image is -1
        k = next(compress(range(len(on)), map((-1).__eq__, map(img.__getitem__, on))), len(on))
        if k < len(on):
            values = dom[on[k]]
            for x in floors[k]:
                values &= -1 << img[x]      # the codes from img[x] up
            frames += (on[k], values, len(trail), len(decided))
        else:
            r = tuple(map(img.__getitem__, on))
            if not any(r[p] > r[q] for p, q in swaps):
                yield r
        if not _backtrack(frames, try_value, undo):
            return


def _backtrack(frames: list, try_value, undo) -> bool:
    """Decide the next value that propagates of the last frame, four flat
    ints: an element, its untried values, and the trail and decided marks
    that undo its choice; drop each frame with none left.  False if none is."""
    while frames:
        undo(frames[-2], frames[-1])
        values = frames[-3]
        if not values:
            del frames[-4:]
            continue
        low = values & -values
        frames[-3] = values ^ low
        if try_value(frames[-4], low.bit_length() - 1):
            return True
    return False


def _allowed_masks(A: Groupoid, M: AutomaticAlgebra, preassigned: Optional[dict],
                   max_elements: int) -> list:
    """(element, mask of its allowed values) per `preassigned` set, each
    checked, then A checked against the size cap."""
    allowed, size = [], M.size()
    for j, values in (preassigned or {}).items():
        _check_element(A, j, "preassigned element")
        if not isinstance(values, (set, frozenset)):
            raise BadParams(f"preassigned values {values!r} are not a set of codes")
        for v in values:
            if not isinstance(v, int) or not 0 <= v < size:
                raise BadParams(f"preassigned value {v!r} is not an element of M")
        allowed.append((j, sum(1 << v for v in values)))
    if A.n > max_elements:
        raise CapExceeded(f"|A| = {A.n} exceeds hom-enumeration cap {max_elements}")
    return allowed


def _hom_lower_bound(A: Groupoid, M: AutomaticAlgebra) -> int:
    """A lower bound on |hom(A, M)|.  Only a state times a letter is nonzero
    in M, so T·T = {0} for T = Q ∪ {0} and for T = Σ ∪ {0}.  Let S be the
    elements of A that are no product, the t but the zero with an empty
    `pre_left[t]` (the zero is 0·0, yet has no preimage pairs).  Every map
    that sends each product of A to 0 and each element of S into T is a
    hom, so there are at least (max(|Q|, |Σ|) + 1)^|S|."""
    free = A.search_index[0].count([]) - (A.zero >= 0)
    return (max(M.n_states, M.n_letters) + 1) ** free


def _search_root(A: Groupoid, M: AutomaticAlgebra, injective_only: bool,
                 allowed: list) -> Optional[tuple]:
    """The state and the moves of the hom search, at the root: the absorbing
    element decided as 0, then each `allowed` mask (a `preassigned` set)
    narrowed, each propagated.  None when that fails, else the tuple (img,
    dom, trail, decided, try_value, undo, free_values) `_walk` reads.

    The search is depth-first over bitmask domains (AC-3 style narrowing).
    `dom[j]` is the set of values still possible for element j, as a bitmask
    over the element codes of M.  An absorbing element z of A, if there is
    one, is decided at the root, before `allowed`, as 0, the one idempotent
    of M; its preimage pairs, which would narrow nothing there
    (0·c = c·0 = c·c = 0 in M), are left out of the index.  Deciding
    element i with value v propagates along every product that involves i:

    - j not a partner: both products go to 0, so dom[j] keeps one mask,
      Z[v] = L[v][0] & R[v][0], and none is visited when Z[v] is full.
      v's holder f, the first element decided as v on the path, walks
      every element and narrows the non-partners of f (`mark` names the
      partners of the element propagating); a later i with value v walks
      only the partners of f that are no partner of i.  i's other
      non-partners are non-partners of f, narrowed by f's walk whichever
      of f and i the queue pops first, as f is decided before i and undone
      after it (residual supports; Lecoutre and Hemery 2007);
    - i·j and j·i with j a decided partner: the product's image is forced;
    - j an open partner and v·c = 0 (or c·v = 0) for every c of M, as when
      v is no state (no letter): i·j (or j·i) is decided as 0 first, which
      under `injective_only` fails when 0 is in `used`;
    - j an open partner, i·j (or j·i) decided as w: dom[j] keeps the c
      with v·c = w (or c·v = w), the precomputed masks L[v][w] and R[v][w];
    - j an open partner and i·j (or j·i) open, under `injective_only`:
      that product can take no value another element already has, so
      dom[j] loses L[v][u] (or R[v][u]) for every u in `used`;
    - i = k·j in A, through the preimage index of A
      (`pre_left[i]`, `pre_right[i]`: the pairs (k, j) with k·j = i): with
      k decided, dom[j] keeps L[img k][v]; with j decided, dom[k] keeps
      R[img j][v]; with k = j open, v must be 0, as c·c = 0 for every c.

    Under `injective_only`, a value in `used` is refused where it is
    chosen: when it is tried, and when a product or a singleton domain
    forces it.  A domain that empties is a contradiction; one that shrinks
    to a single value decides its element.  Every domain change goes on
    `trail` as the flat pair (element, previous domain), and every decision
    on `decided`.

    The masks, Z among them, depend on M alone and are kept on M; the index
    of A, on A alone and kept on A once it passes the cap.  So a run of
    searches into one M, or from one A, builds each side once."""
    size, n = M.size(), A.n
    zero, partners, (pre_left, pre_right) = A.zero, A.partners, A.search_index
    mt = M.product_table()
    full = (1 << size) - 1
    L, R, FR, Z = _search_masks(M)

    img = [-1] * n
    dom = [full] * n
    trail = []
    decided = []
    queue = []
    used = 0  # values taken so far, kept under injective_only
    holder = [0] * size     # v's holder, while its image is v; undo leaves it stale
    mark = [-1] * n         # mark[j] = i once j is read as a partner of i

    def decide(i, v):
        nonlocal used
        bit = 1 << v
        if not dom[i] & bit or used & bit:
            return False
        if injective_only:
            used |= bit
        trail.append(i)
        trail.append(dom[i])
        dom[i] = bit
        img[i] = v
        if img[holder[v]] != v:     # i is the first on the path with value v
            holder[v] = i
        decided.append(i)
        queue.append(i)
        return True

    def narrow(j, mask):
        d = dom[j]
        if d & mask == d:
            return True
        d &= mask
        if not d:
            return False
        trail.append(j)
        trail.append(dom[j])
        dom[j] = d
        if d & (d - 1):
            return True
        return decide(j, d.bit_length() - 1)

    def propagate():
        while queue:
            i = queue.pop()
            v = img[i]
            row_v, L_v, R_v, Z_v = mt[v], L[v], R[v], Z[v]
            # v·c = 0 (c·v = 0) for every c: v is no state (no letter), or
            # one with no transition, so an open i·j (j·i) is decided as 0
            left_zero, right_zero = L_v[ZERO] == full, R_v[ZERO] == full
            # what an injective search adds for an open product: no c whose
            # product with v is in `seen`, the values of `used` folded in so
            # far; `used` only grows while propagating, so each is folded once
            open_l = open_r = full
            seen = 0
            for j, t, s in partners[i]:
                mark[j] = i
                y = img[j]
                if y >= 0:      # t = i·j and s = j·i are forced
                    w = row_v[y]
                    z = img[t]
                    if z != w and (z >= 0 or not decide(t, w)):
                        return False
                    w = mt[y][v]
                    z = img[s]
                    if z != w and (z >= 0 or not decide(s, w)):
                        return False
                else:           # an open image reads the full mask at index -1
                    if left_zero and img[t] < 0 and not decide(t, ZERO):
                        return False
                    if right_zero and img[s] < 0 and not decide(s, ZERO):
                        return False
                    z, w = img[t], img[s]
                    mask = L_v[z] & R_v[w]
                    if used and (z < 0 or w < 0):
                        if seen != used:
                            rest, seen = used & ~seen, used
                            while rest:
                                u = rest.bit_length() - 1
                                rest ^= 1 << u
                                open_l &= ~L_v[u]
                                open_r &= ~R_v[u]
                        if z < 0:
                            mask &= open_l
                        if w < 0:
                            mask &= open_r
                    d = dom[j]
                    if d & mask != d and not narrow(j, mask):
                        return False
            if Z_v != full:     # a non-partner j of i has dom[j] inside Z_v
                f = holder[v]
                for j in range(n) if f == i else map(itemgetter(0), partners[f]):
                    if mark[j] != i:
                        d = dom[j]
                        if d & Z_v != d and not narrow(j, Z_v):
                            return False
            for k, j in zip(pre_left[i], pre_right[i]):
                x, y = img[k], img[j]
                if x >= 0:
                    if y < 0 and not narrow(j, L[x][v]):
                        return False
                elif y >= 0:
                    if not narrow(k, R[y][v]):
                        return False
                elif k == j and v != ZERO:      # c·c = 0 for every c of M
                    return False
        return True

    def try_value(i, v):
        """Decide i = v and propagate; on failure leave the undo to the caller."""
        if decide(i, v) and propagate():
            return True
        queue.clear()
        return False

    def undo(trail_mark, decided_mark):
        nonlocal used
        while len(trail) > trail_mark:
            old = trail.pop()
            dom[trail.pop()] = old
        while len(decided) > decided_mark:
            j = decided.pop()
            used &= ~(1 << img[j])
            img[j] = -1

    def free_values(j):
        """The values of an open j whose products and preimage pairs have
        every other element decided.  Propagation has narrowed dom[j] by
        every product of j but j·k = j, k·j = j and j·j = j, so j's values
        are the c in dom[j] with c·img k = c for j·k = j (FR[img k]),
        c·c = c for j·j = j (FR[-1]), and c = 0 for k·j = j."""
        values = dom[j]
        for k, l in zip(pre_left[j], pre_right[j]):     # k·l = j, and j is k or l
            # c·img l = c, where l = j reads FR[-1]: c·c = c; img k·c = c only at 0
            values &= FR[img[l]] if k == j else 1 << ZERO
        return values

    if zero >= 0 and not try_value(zero, ZERO):
        return None
    for j, mask in allowed:
        if not narrow(j, mask) or not propagate():
            return None
    return img, dom, trail, decided, try_value, undo, free_values


def restriction_counts(A: Groupoid, M: AutomaticAlgebra, on: Sequence[int],
                       swaps: Sequence[tuple] = (), limit: Optional[int] = None,
                       max_elements: int = HOM_CAP_DEFAULT,
                       preassigned: Optional[dict] = None) -> tuple:
    """(R, count): R the set of the restrictions to the elements `on` of
    the homs A -> M with values in the `preassigned` sets, as tuples of
    codes, and count their number, or None when it exceeds `limit`.

    At each leaf of `_walk` over `on`, the walk of `enumerate_homs` and
    `find_embedding`, it splits the open elements into
    components and multiplies their counts, as model counters do (Bayardo
    and Pehoushek, "Counting models using connected components", AAAI
    2000), so a component with no hom is refuted once, not once per value
    of the others.  Two open elements are linked when (a) they share a
    partner triple (i, j, i·j, j·i) whose product is open or decided
    nonzero, or one is the open product of the other, or (b) their domains
    are not zero against each other both ways (Z).  So when x and y lie in
    different components, x·y and y·x are decided as 0, and any values of
    x and y multiply to 0 both ways; a product of x with a decided element
    is decided too, or is an open element of x's component.  Deciding an
    element then narrows no domain outside its component, and one choice
    per component, each propagated from the same node, makes a hom.  A
    component's count is the sum, over the values of its element with the
    smallest domain, then the most partners, then the lowest index, of the
    counts below, split again: in thm_wc a few letters meet every other
    element, and once they are decided the rest falls apart.  A lone open
    element counts its `free_values`.  Most often (b) alone joins every
    open element, which one pass over their distinct domains shows.

    A leaf counts up to what `limit` has left over the size of its orbit
    (below): a component up to that over the product of the counts before
    it, a value up to what its component has left, and once the product
    passes it, each later component up to its first hom; one with none
    makes the product 0.  Once the count has passed `limit`, or from the
    start when nothing is preassigned and `_hom_lower_bound` exceeds
    `limit`, a leaf counts up to a first hom; with `on` empty too, no
    search is made, as the map onto 0 is a hom.

    `swaps` are pairs p < q of positions of `on` that an automorphism σ of
    A exchanges while it fixes the other elements of `on`.  Then h ↦ h∘σ
    is a bijection of hom(A, M) that exchanges the values at p and q of
    every restriction, so the restrictions that extend are closed under
    the swaps, and the members of an orbit have equally many extensions.
    The swaps generate the full symmetric group on each connected block of
    positions, and an orbit's member sorted within each block breaks no
    pair.  So the walk keeps only the leaves that ascend along every pair
    (lex-leader symmetry breaking), and tries no value at q below p's.
    A kept r that extends adds its orbit (`close_under_swaps`) to R, and
    |orbit| times its extensions to the count.  A leaf whose r is in R is
    skipped, as several members of an orbit may ascend along every pair
    (both (a, b, c) and (a, c, b) along (0, 1) and (0, 2)).
    """
    allowed = _allowed_masks(A, M, preassigned, max_elements)
    for j in on:
        _check_element(A, j, "restriction element")
    for swap in swaps:
        if (not isinstance(swap, (tuple, list)) or len(swap) != 2
                or not all(isinstance(p, int) and 0 <= p < len(on) for p in swap)
                or swap[0] >= swap[1]):
            raise BadParams(f"swap {swap!r} is no pair p < q of restriction positions")
    budget = M.size() ** A.n if limit is None else limit
    count = 0 if budget >= 0 and (allowed or _hom_lower_bound(A, M) <= budget) else None
    if count is None and not on and not allowed:
        return {()}, None
    root = _search_root(A, M, False, allowed)
    if root is None:
        return set(), count
    img, dom, trail, decided, try_value, undo, free_values = root
    partners, (pre_left, pre_right) = A.partners, A.search_index
    near = {}   # x -> x's masks for `split` (below), built when first read
    Z, codes, zero_with = _search_masks(M)[3], range(M.size()), {}
    # the branch element: the smallest domain, then the most partners, then the lowest index
    ties = [(A.n - len(row)) * A.n + j for j, row in enumerate(partners)]

    def split(opens):
        """The components of `opens`, each a list."""
        unseen, groups = 0, {}      # groups: a domain -> its open elements, a bitmask
        for x in opens:
            unseen |= 1 << x
            groups[dom[x]] = groups.get(dom[x], 0) | 1 << x
        linked = {}     # a domain -> the open elements (b) links to it
        for d in groups:
            if d not in zero_with:
                zero_with[d] = reduce(and_, (Z[c] for c in codes if d >> c & 1))
            # the groups are disjoint, so their sum is their union
            linked[d] = sum(g for e, g in groups.items() if e & ~zero_with[d])
        # most often (b) alone joins every open element, group by group
        reach, grown = 0, unseen & -unseen
        while grown != reach:
            reach = grown
            grown = reduce(or_, (linked[e] for e, g in groups.items() if g & reach), reach)
        if reach == unseen:
            return [opens] if opens else []
        comps = []
        while unseen:
            todo, comp = unseen & -unseen, []
            unseen ^= todo
            while todo:
                x = todo.bit_length() - 1
                todo ^= 1 << x
                comp.append(x)
                if x not in near:   # x's factors and its triples' products; its partners
                    js, ts, ss = list(zip(*partners[x])) or ((), (), ())
                    pairs = chain(pre_left[x], pre_right[x], ts, ss)
                    near[x] = (reduce(or_, map((1).__lshift__, pairs), 0),
                               reduce(or_, map((1).__lshift__, js), 0))
                # an open product t of x and j links j too, as j is a factor
                # of t, so only a partner j not linked yet needs its triple read
                linked_x, partners_x = near[x]
                linked_x |= linked[dom[x]]
                if partners_x & unseen & ~linked_x:
                    for j, t, s in partners[x]:
                        if img[t] or img[s]:    # open (-1) or decided nonzero
                            linked_x |= 1 << j
                linked_x &= unseen
                unseen ^= linked_x
                todo |= linked_x
            comps.append(comp)
        return comps

    def branch(comp, bound):
        counts = list(map(int.bit_count, map(dom.__getitem__, comp)))
        least = min(counts)
        best = min(compress(comp, map(least.__eq__, counts)), key=ties.__getitem__)
        return [best, dom[best], len(trail), len(decided), comp, 0, bound]

    def count_below(bound):
        """The homs below this node, exact up to `bound`, else some number
        above it; the node is left as it was."""
        # a node: [its components left, the product of the counts so far, bound];
        # a branch: [element, untried values, trail and decided marks, component,
        # the sum of the counts so far, bound]; `below` is what the last frame popped
        stack = [[split([j for j in range(A.n) if img[j] < 0]), 1, bound]]
        below = None
        while stack:
            frame = stack[-1]
            if len(frame) == 3:
                comps, total, bound = frame
                if below is not None:
                    total = frame[1] = total * below
                    if not below:
                        comps.clear()
                below = None
                if comps:
                    comp = comps.pop()
                    if len(comp) == 1:      # a lone element is free
                        below = free_values(comp[0]).bit_count()
                    else:
                        stack.append(branch(comp, bound // total))
                else:
                    below = stack.pop()[1]
                continue
            best, values, trail_mark, decided_mark, comp, total, bound = frame
            if below is not None:
                total += below
                undo(trail_mark, decided_mark)
                below = None
            while values and total <= bound:
                low = values & -values
                values ^= low
                if try_value(best, low.bit_length() - 1):
                    opens = [j for j in comp if img[j] < 0]
                    if opens:
                        frame[1], frame[5] = values, total
                        stack.append([split(opens), 1, bound - total])
                        break
                    total += 1
                undo(trail_mark, decided_mark)
            else:
                stack.pop()
                below = total
        return below

    found = set()
    for r in _walk(root, on, swaps):
        if r in found:
            continue
        if count is None:       # the orbit's size is not needed
            if count_below(0):
                found |= close_under_swaps([r], swaps)
        else:
            orbit = close_under_swaps([r], swaps)
            bound = (budget - count) // len(orbit)
            below = count_below(bound)
            if below:
                found |= orbit
                count = None if below > bound else count + len(orbit) * below
    return found, count


def close_under_swaps(restrictions: Iterable[tuple], swaps: Sequence[tuple]) -> set:
    """The restrictions and all that exchanging the values at positions p
    and q, for pairs (p, q) of `swaps`, makes of them, again and again."""
    closed, todo = set(restrictions), list(restrictions)
    while todo:
        r = todo.pop()
        for p, q in swaps:
            image = r[:p] + (r[q],) + r[p + 1:q] + (r[p],) + r[q + 1:]
            if image not in closed:
                closed.add(image)
                todo.append(image)
    return closed


def _check_element(A: Groupoid, j, what: str) -> None:
    if not isinstance(j, int) or not 0 <= j < A.n:
        raise IndexOutOfRange(f"{what} {j!r} not in 0..{A.n - 1}")


def _search_masks(M: AutomaticAlgebra) -> tuple:
    """(L, R, FR, Z) of M: L[x][z] is the mask of the c with x·c = z, R[x][z]
    of the c with c·x = z, FR[x] of the c with c·x = c, Z[x] of the c with
    x·c = c·x = 0.  L[x][-1] and R[x][-1] are full, for an open z; FR[-1]
    holds the c with c·c = c.

    Built on first use from the rows of `M.product_table()` and kept on M,
    like the table.  Only a state times a letter is not 0, so every list
    starts as `blank`, each c at z = 0, shared by the rows of letters and 0
    and the columns of states and 0.  So c·c = 0 for every c, x·c = c only
    for c = 0, and 0 is the one idempotent, which the search uses unmasked.
    """
    if M._masks is None:
        size = M.size()
        full = (1 << size) - 1
        bits = [1 << c for c in range(size)]
        blank = [full] + [0] * (size - 1) + [full]
        L, R, FR = [], [blank] * size, [1] * size
        for x, row in enumerate(M.product_table()):
            L_x = blank[:] if any(row) else blank
            L.append(L_x)
            for c in compress(range(size), row):    # x·c = z ≠ 0
                z = row[c]
                if R[c] is blank:
                    R[c] = blank[:]
                L_x[z] |= bits[c]
                L_x[0] ^= bits[c]
                R[c][z] |= bits[x]
                R[c][0] ^= bits[x]
                if z == x:
                    FR[c] |= bits[x]
        M._masks = (L, R, FR + [1], [L_x[0] & R_x[0] for L_x, R_x in zip(L, R)])
    return M._masks


def find_embedding(A: Groupoid, M: AutomaticAlgebra,
                   max_elements: int = HOM_CAP_DEFAULT,
                   preassigned: Optional[dict] = None) -> Optional[tuple]:
    """Least injective hom A -> M (as a tuple of codes) whose values lie in
    the `preassigned` sets, or None: the injective walk's first leaf."""
    root = _search_root(A, M, True, _allowed_masks(A, M, preassigned, max_elements))
    return None if root is None else next(_walk(root, range(A.n), ()), None)


def hom_exists(A: Groupoid, M: AutomaticAlgebra, preassigned: Optional[dict] = None,
               max_elements: int = HOM_CAP_DEFAULT) -> bool:
    """Is there a hom A -> M with its value at each element of
    `preassigned` in that element's set of codes?  A count up to a first
    hom (`restriction_counts`)."""
    return bool(restriction_counts(A, M, (), (), 0, max_elements, preassigned)[0])
