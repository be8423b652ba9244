"""Finite powers, subuniverse generation, hom enumeration, compatibility.

Power elements are plain tuples of element codes over the index set
{0, …, n−1}.  Generated subalgebras are materialized as `Groupoid`s
(opaque finite groupoids kept by their nonzero products) so that hom search
works uniformly for catalog algebras and for subalgebras of powers.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, reduce
from itertools import chain, compress, product
from operator import and_, getitem, or_
from typing import Iterable, NamedTuple, Optional, Sequence

from .algebras import ZERO, AutomaticAlgebra
from .errors import BadParams, CapExceeded, IndexOutOfRange, PreconditionViolated

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
        """(pre_left, pre_right, zeros) for `enumerate_homs`, built on first
        use and kept: pre_left[t], pre_right[t] list the pairs (k, j) with
        k·j = t not the zero, in row order, and zeros[i] the j that are no
        partners of i: O(n²), but only an A under the cap is indexed."""
        ids, zeros = list(range(self.n)), []    # one int object per element, shared
        pre_left, pre_right = [[] for _ in ids], [[] for _ in ids]
        for k, row in enumerate(self.partners):
            for j, t, _ in row:
                if t != self.zero:
                    pre_left[t].append(k)
                    pre_right[t].append(j)
            near = {j for j, _, _ in row}
            zeros.append([j for j in ids if j not in near])
        return pre_left, pre_right, zeros

    @cached_property
    def links(self) -> list:
        """links[i]: the elements but i and the zero of i's partner triples
        and preimage pairs, descending, as the last are most often open in
        `enumerate_homs`; built on first use and kept."""
        pre_left, pre_right, _ = self.search_index
        return [sorted(set().union(*row, left, right) - {i, self.zero}, reverse=True)
                for i, (row, left, right) in enumerate(zip(self.partners, pre_left, pre_right))]

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
                   distinct_on: Optional[Sequence[int]] = None,
                   preassigned: Optional[dict] = None,
                   swaps: Sequence[tuple] = ()) -> list:
    """All homomorphisms A -> M as tuples of element codes, indexed by A,
    sorted, so the output order is canonical regardless of search order.

    With `limit`, enumeration aborts with CapExceeded once more than that
    many homs exist.  With `preassigned`, a map from elements of A to sets
    of element codes, only the homs whose value at each such element lies
    in its set are returned.  Each set narrows its element's domain at the
    root, after the absorbing element; a set of one code decides the
    element there, a larger one leaves it to the branching below.

    A `limit` is first checked against a lower bound on |hom(A, M)|, before
    any search, when the call has no `injective_only`, no `distinct_on` and
    no `preassigned`, since each of those changes what is counted.  Only a
    state times a letter is nonzero in M, so T·T = {0} for T = Q ∪ {0} and
    for T = Σ ∪ {0}.  Let S be the elements of A that are no product, the t
    but the zero with an empty `pre_left[t]`.  Every map that sends each
    product of A to 0 and each element of S into T is a hom, so there are at
    least (max(|Q|, |Σ|) + 1)^|S| homs; when that exceeds `limit`, the call
    raises the CapExceeded that listing limit + 1 homs would raise.

    The search is depth-first over bitmask domains (AC-3 style narrowing).
    `dom[j]` is the set of values still possible for element j, as a bitmask
    over the element codes of M.  An absorbing element z of A, if there is
    one, is decided at the root, before `preassigned`, as 0, the one
    idempotent of M; its preimage pairs, which would narrow nothing there
    (0·c = c·0 = c·c = 0 in M), are left out of the index.  The partners of
    i (`Groupoid.partners`) are about 11 of the 88 elements of thm_nondcomm
    at N = 4.  Deciding element i with value v propagates along every
    product that involves i:

    - j not a partner: both products go to 0, so dom[j] keeps one mask,
      Z[v] = L[v][0] & R[v][0], and none is visited when Z[v] is full;
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
    on `decided`, whose length alone tells a leaf.  Branching takes the
    open element with the smallest domain, lowest index first, and tries
    its values in code order; the branch stack is explicit, so the depth
    of the search is not bounded by Python's recursion limit.

    An open element j is free when every other element of its products
    and preimage pairs (`Groupoid.links`) is decided.  dom[j] then holds
    every product of j but k·j = j, j·k = j and j·j = j: one whose other
    factor and value are decided through the partner rules (a forced 0
    among them), the zero or preimage rules, j·j = t with t decided as 0.
    So j's values are the c in dom[j], not in `used`, with c·img k = c for
    j·k = j, img k·c = c for k·j = j and c·c = c for j·j = j; the masks FR
    of M hold the c that pass the first and, at FR[-1], the last, and only
    c = 0 passes the second.  When every open element is free and any two
    of their values multiply to 0 both ways (Z), the homs below the frame
    are the product of those values, emitted without branching.  A lone
    open element is always free, and is emitted so in every search (its
    least value only, under `distinct_on` without it).  Several are emitted
    so only in a listing with neither `injective_only` nor `distinct_on`:
    a product filtered for distinct values would lose the pruning of
    branching smallest domain first, and a restriction search keeps one
    hom below such a frame, which branching reaches about as fast.  The
    branch element's links are read first, so a frame that must branch
    pays one scan, then those of the other open elements.

    `distinct_on`, a sequence of elements of A, asks for one hom per
    distinct restriction to those elements.  The search then branches on
    the open ones among them first, in the order given, and after each hom
    drops every deeper frame and backtracks straight to the last branch on
    one of them.  Two homs found this way differ on some branched element,
    and every restriction that extends to a hom is reached, since the
    search below the last such branch is complete.  `distinct_on=()` stops
    at the first hom.

    `swaps`, pairs p < q of positions in `distinct_on`, drops every node at
    which, for some pair, the elements at p and q are both decided and the
    value at p is the greater code; a lone open element of a pair is
    branched on, not emitted free, so each hom passes through such a test.
    The search then returns one hom per restriction whose values ascend
    along every pair, and no other.  When each pair is exchanged by an
    automorphism σ of A that fixes the other elements of `distinct_on`,
    h ↦ h∘σ is a bijection of hom(A, M) that exchanges the values at p and
    q of every restriction, so the restrictions that extend to a hom are
    closed under the swaps.  The swaps generate the full symmetric group on
    each connected block of positions, and the member of an orbit sorted
    ascending by code within each block breaks no pair, so every orbit
    keeps a member: closing the returned restrictions under the swaps
    (`close_under_swaps`) gives back those of the search without them
    (lex-leader symmetry breaking).

    The masks, Z among them, depend on M alone and are kept on M; the index
    and links of A, on A alone and kept on A once it passes the cap.  So a
    run of searches into one M, or from one A, builds each side once.
    """
    size, n = M.size(), A.n
    first = distinct_on or ()
    for j in first:
        _check_element(A, j, "distinct_on element")
    ordered = []    # per swap, the elements at p and q
    for swap in swaps:      # no position is valid without distinct_on
        if (not isinstance(swap, (tuple, list)) or len(swap) != 2
                or not all(isinstance(p, int) and 0 <= p < len(first) for p in swap)
                or swap[0] >= swap[1]):
            raise BadParams(f"swap {swap!r} is no pair p < q of distinct_on positions")
        ordered.append((first[swap[0]], first[swap[1]]))
    swapped = frozenset(chain.from_iterable(ordered))
    allowed = _allowed_masks(A, M, preassigned, max_elements)
    if (limit is not None and not injective_only and distinct_on is None and not allowed
            and _hom_lower_bound(A, M) > limit):
        raise CapExceeded(f"more than {limit} homomorphisms")
    keep = frozenset(first)     # frames on these survive a hom
    # only a plain listing emits several free elements at once, as below
    links = A.links if not injective_only and distinct_on is None else None
    Z = _search_masks(M)[3]
    root = _search_root(A, M, injective_only, allowed)
    if root is None:
        return []
    img, dom, trail, decided, try_value, undo, taken, free_values = root
    out = []

    def branch_element():
        """The first open element of `distinct_on`, else the open element
        with the smallest domain, lowest index first."""
        for j in first:
            if img[j] < 0:
                return j
        best, best_count = -1, size + 1
        for j in range(n):
            if img[j] < 0:
                count = dom[j].bit_count()
                if count < best_count:
                    best, best_count = j, count
                    if count <= 2:
                        break
        return best

    def emit_free(opens):
        """Emit the homs below a frame whose open elements are `opens` and
        return True if each of them is free, else return False."""
        if len(opens) > 1 and -1 in map(img.__getitem__,
                                        chain.from_iterable(map(links.__getitem__, opens))):
            return False
        stop = distinct_on is not None and keep.isdisjoint(opens)
        earlier, choices, used = 0, [], taken()     # the values of the open elements before j
        for j in opens:
            values = free_values(j) & ~used
            rest, codes = values, []
            while rest:
                low = rest & -rest
                rest ^= low
                codes.append(low.bit_length() - 1)
                if earlier & ~Z[codes[-1]]:     # a nonzero product; Z is symmetric
                    return False
            earlier |= values
            choices.append(codes[:1] if stop else codes)
        for head in product(*choices[:-1]):
            for j, c in zip(opens, head):
                img[j] = c
            for c in choices[-1]:
                img[opens[-1]] = c
                out.append(tuple(img))
            if limit is not None and len(out) > limit:
                raise CapExceeded(f"more than {limit} homomorphisms")
        for j in opens:
            img[j] = -1
        return True

    # one frame per branching element, four flat ints: the element, its
    # untried values, and the trail and decided marks that undo its choice
    frames = []
    while True:
        found = len(out)
        if ordered and any(img[x] > img[y] >= 0 for x, y in ordered):
            pass        # a swap maps every hom below to a lesser restriction
        elif len(decided) == n:
            out.append(tuple(img))
            if limit is not None and len(out) > limit:
                raise CapExceeded(f"more than {limit} homomorphisms")
        elif len(decided) < n - 1 or swapped and img.index(-1) in swapped:
            best = branch_element()
            # the branch element's links first, then those of every open j (img[j] == -1)
            if (links is None or -1 in map(img.__getitem__, links[best])
                    or not emit_free(list(compress(range(n), map((-1).__eq__, img))))):
                frames += (best, dom[best], len(trail), len(decided))
        else:
            emit_free([img.index(-1)])
        if distinct_on is not None and len(out) > found:
            while frames and frames[-4] not in keep:
                del frames[-4:]
        while frames:       # the next value that propagates, backtracking
            undo(frames[-2], frames[-1])
            values = frames[-3]
            if not values:
                del frames[-4:]
                continue
            low = values & -values
            frames[-3] = values ^ low
            if try_value(frames[-4], low.bit_length() - 1):
                break
        else:
            break
    out.sort()
    return out


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
    """(max(|Q|, |Σ|) + 1)^|S|, the bound on |hom(A, M)| of `enumerate_homs`;
    the zero is 0·0, yet has no preimage pairs, so it is not counted in S."""
    free = A.search_index[0].count([]) - (A.zero >= 0)
    return (max(M.n_states, M.n_letters) + 1) ** free


def _search_root(A: Groupoid, M: AutomaticAlgebra, injective_only: bool,
                 allowed: list) -> Optional[tuple]:
    """The state and the moves of the hom search that `enumerate_homs`
    describes and `count_homs` shares, at the root: the absorbing element
    decided as 0, then each `allowed` mask narrowed, each propagated.  None
    when that fails, else (img, dom, trail, decided, try_value, undo,
    taken, free_values), `taken()` being the mask `used`."""
    size, n = M.size(), A.n
    zero, partners, (pre_left, pre_right, zeros) = A.zero, A.partners, A.search_index
    mt = M.product_table()
    full = (1 << size) - 1
    L, R, FR, Z = _search_masks(M)

    img = [-1] * n
    dom = [full] * n
    trail = []
    decided = []
    queue = []
    used = 0  # values taken so far, kept under injective_only

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
            if Z_v != full:     # a decided zero partner outside Z_v fails
                for j in zeros[i]:
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
        """The values of a free open element j (see `enumerate_homs`)."""
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
    return img, dom, trail, decided, try_value, undo, lambda: used, free_values


def count_homs(A: Groupoid, M: AutomaticAlgebra, limit: Optional[int] = None,
               preassigned: Optional[dict] = None,
               max_elements: int = HOM_CAP_DEFAULT) -> int:
    """The number of homs A -> M with values in the `preassigned` sets, as
    `enumerate_homs` lists them, counted without listing any.  With
    `limit`, it raises the CapExceeded of `enumerate_homs` exactly when
    that number exceeds `limit`, and when nothing is preassigned, checks
    `limit` against the same lower bound first.

    It shares the search of `enumerate_homs` (`_search_root`) and, at each
    node, splits the open elements into components and multiplies their
    counts, as model counters do (Bayardo and Pehoushek, "Counting models
    using connected components", AAAI 2000).  Two open elements are linked
    when (a) they share a partner triple (i, j, i·j, j·i) whose product is
    open or decided nonzero, or one is the open product of the other, or
    (b) their domains are not zero against each other both ways (Z).  So
    when x and y lie in different components, x·y and y·x are decided as
    0, and any values of x and y multiply to 0 both ways; a product of x
    with a decided element is decided too, or is an open element of x's
    component.  Deciding an element then narrows no domain outside its
    component, and one choice per component, each propagated from the same
    node, makes a hom.  A component's count is the sum, over the values of
    its element with the smallest domain, then the most partners, then the
    lowest index, of the counts below, split again: in thm_wc a few letters
    meet every other element, and once they are decided the rest falls
    apart.  A lone open element is free (see `enumerate_homs`), so its
    count is that of its free values.  The stack of frames is explicit.

    Under `limit`, a component is counted only up to `limit` over the
    product of the counts before it, a value only up to what its component
    has left, and once the product passes `limit`, each later component
    only up to its first hom: one with none makes the product 0.
    """
    allowed = _allowed_masks(A, M, preassigned, max_elements)
    if limit is not None and (limit < 0 or not allowed and _hom_lower_bound(A, M) > limit):
        raise CapExceeded(f"more than {limit} homomorphisms")
    root = _search_root(A, M, False, allowed)
    if root is None:
        return 0
    img, dom, trail, decided, try_value, undo, _, free_values = root
    partners, (pre_left, pre_right, _) = A.partners, A.search_index
    factors = {}    # x -> the k and j with k·j = x, a bitmask, built when first read
    Z, codes, zero_with = _search_masks(M)[3], range(M.size()), {}
    full = (1 << M.size()) - 1

    def split(opens):
        """The components of `opens`, each a list."""
        unseen, groups = 0, {}      # groups: a domain -> its open elements, a bitmask
        for x in opens:
            unseen |= 1 << x
            groups[dom[x]] = groups.get(dom[x], 0) | 1 << x
        linked = {}     # a domain -> the open elements (b) links to it
        for d in groups:
            if d not in zero_with:
                zero_with[d] = reduce(and_, (Z[c] for c in codes if d >> c & 1), full)
            # the groups are disjoint, so their sum is their union
            linked[d] = sum(g for e, g in groups.items() if e & ~zero_with[d])
        comps = []
        while unseen:
            todo, comp = unseen & -unseen, []
            unseen ^= todo
            while todo:
                x = todo.bit_length() - 1
                todo ^= 1 << x
                comp.append(x)
                if x not in factors:
                    pairs = chain(pre_left[x], pre_right[x])
                    factors[x] = reduce(or_, map((1).__lshift__, pairs), 0)
                near = linked[dom[x]] | factors[x]
                for j, t, s in partners[x]:
                    if img[t] or img[s]:    # open (-1) or decided nonzero
                        near |= 1 << j | 1 << t | 1 << s
                near &= unseen
                unseen ^= near
                todo |= near
            comps.append(comp)
        return comps

    def branch(comp, bound):
        best = min(comp, key=lambda j: (dom[j].bit_count(), -len(partners[j]), j))
        return [best, dom[best], len(trail), len(decided), comp, 0, bound]

    # a node: [its components left, the product of the counts so far, bound];
    # a branch: [element, untried values, trail and decided marks, component,
    # the sum of the counts so far, bound]; `below` is what the last frame popped
    stack = [[split([j for j in range(A.n) if img[j] < 0]), 1,
              M.size() ** A.n if limit is None else limit]]
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
    if limit is not None and below > limit:
        raise CapExceeded(f"more than {limit} homomorphisms")
    return below


def close_under_swaps(restrictions: Iterable[tuple], swaps: Sequence[tuple]) -> set:
    """The restrictions and all that exchanging the values at positions p
    and q, for pairs (p, q) of `swaps`, makes of them, again and again: from
    what a `distinct_on` search returns with `swaps`, when each pair comes
    from an automorphism, the restrictions it returns without them."""
    closed = set(restrictions)
    todo = list(closed)
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
    the `preassigned` sets, as in `enumerate_homs`, or None."""
    homs = enumerate_homs(A, M, injective_only=True, max_elements=max_elements,
                          preassigned=preassigned)
    return homs[0] if homs else None


def hom_exists(A: Groupoid, M: AutomaticAlgebra, preassigned: Optional[dict] = None,
               max_elements: int = HOM_CAP_DEFAULT) -> bool:
    """Is there a hom A -> M with its value at each element of
    `preassigned` in that element's set of codes?"""
    return bool(enumerate_homs(A, M, distinct_on=(), preassigned=preassigned,
                               max_elements=max_elements))


# ---------------------------------------------------------------------------
# compatibility
# ---------------------------------------------------------------------------

def is_compatible(M: AutomaticAlgebra, relation: Iterable[tuple]) -> bool:
    """True iff the relation is closed under the pointwise product."""
    rel = set(relation)
    return all(pointwise_mul(M, u, v) in rel for u in rel for v in rel)


class PartialOperation(NamedTuple):
    name: str
    table: dict  # argument tuple -> value

    @property
    def domain(self):
        return self.table.keys()

    def __call__(self, *args):
        return self.table[args]

    def graph(self) -> set:
        return {args + (value,) for args, value in self.table.items()}


# ---------------------------------------------------------------------------
# the compatible-operation library
# ---------------------------------------------------------------------------

def _tabulate(name: str, M: AutomaticAlgebra, arity: int, value,
              keep=None) -> PartialOperation:
    """The operation sending each `arity`-tuple of elements of M that `keep`
    accepts (every tuple, without `keep`) to value(*args), the tuples taken
    in `product` order."""
    args = product(M.elements(), repeat=arity)
    return PartialOperation(name, {a: value(*a) for a in args
                                   if keep is None or keep(*a)})


def op_g_uv(M: AutomaticAlgebra, u: int, v: int) -> PartialOperation:
    """Binary total op: u on the single pair (u, v), 0 elsewhere.

    Needs a letter among {u, v}, else the pair (u, v) could be hit by a
    product and the operation would not be a homomorphism.
    """
    if not (M.is_letter(u) or M.is_letter(v)):
        raise PreconditionViolated("g_uv needs a letter among its parameters")
    return _tabulate("g_uv", M, 2, lambda x, y: u if (x, y) == (u, v) else ZERO)


def op_join(M: AutomaticAlgebra) -> PartialOperation:
    """Partial join of the flat order (0 below every state)."""
    table = {}
    for x in M.elements():
        table[(x, x)] = x
    for s in M.states():
        table[(ZERO, s)] = s
        table[(s, ZERO)] = s
    return PartialOperation("join", table)


def op_quasi_meet(M: AutomaticAlgebra) -> PartialOperation:
    """Total quasi-meet: first argument if both are states or both letters.

    Only a homomorphism on total algebras.
    """
    if not M.is_total():
        raise PreconditionViolated("quasi-meet needs a total algebra")
    Q, S = set(M.states()), set(M.letters())
    return _tabulate("quasi_meet", M, 2,
                     lambda x, y: x if {x, y} <= Q or {x, y} <= S else ZERO)


def op_chain_meet(M: AutomaticAlgebra) -> PartialOperation:
    """Total meet for the constant-letter setting.

    Requires: total, every letter constant, and the letter-value map a
    bijection onto the states.  States and their letters are ranked by
    state index; the meet of two states (or two letters) is the one with
    the larger index, mixed pairs meet at 0.
    """
    from .classify import constant_letter_values
    values = constant_letter_values(M)
    if values is None:
        raise PreconditionViolated("chain meet needs total constant letters")
    if sorted(values) != list(range(M.n_states)):
        raise PreconditionViolated("chain meet needs letter values to enumerate Q")
    letter_rank = {M.letter(j): values[j] for j in range(M.n_letters)}
    state_rank = {M.state(i): i for i in range(M.n_states)}

    def meet(x, y):
        for rank in (state_rank, letter_rank):
            if x in rank and y in rank:
                return x if rank[x] >= rank[y] else y
        return ZERO
    return _tabulate("chain_meet", M, 2, meet)


def op_h(M: AutomaticAlgebra, state_index: int = 0) -> PartialOperation:
    """Ternary partial op from the constant-letter dualizability argument.

    Domain excludes the distinguished state's letter in the first slot;
    the value is the join of y, z over {0, q} when x = q, else 0.
    """
    from .classify import constant_letter_values
    values = constant_letter_values(M)
    if values is None:
        raise PreconditionViolated("h needs total constant letters")
    q1 = M.state(state_index)
    with_value = [j for j in range(M.n_letters) if values[j] == state_index]
    if len(with_value) != 1:
        raise PreconditionViolated("h needs exactly one letter with the chosen value")
    a1 = M.letter(with_value[0])
    joins = {(ZERO, q1), (q1, ZERO), (q1, q1)}     # the (y, z) that join to q1
    return _tabulate("h", M, 3, lambda x, y, z: q1 if x == q1 and (y, z) in joins else ZERO,
                     keep=lambda x, y, z: x != a1)


def op_lambda(M: AutomaticAlgebra, g: int) -> PartialOperation:
    """Unary total translation by g on g's component, identity elsewhere."""
    from .structure import component_group, components
    if not M.is_state(g):
        raise PreconditionViolated(f"lambda_g needs a state g, got {M.name(g)}")
    comp = next(c for c in components(M) if M.state_index(g) in c)
    data = component_group(M, comp)
    table = {(x,): x for x in M.elements()}
    for s in comp:
        table[(M.state(s),)] = M.state(data.op_states(M.state_index(g), s))
    return PartialOperation("lambda_g", table)


def op_diamond(M: AutomaticAlgebra) -> PartialOperation:
    """Binary partial op separating same-coset pairs from cross-coset ones."""
    from .structure import components, component_group
    table = {(ZERO, ZERO): ZERO}
    for a in M.letters():
        for b in M.letters():
            table[(a, b)] = a
    for comp in components(M):
        data = component_group(M, comp)
        for u in comp:
            for v in comp:
                diff = data.op_states(data.inv_state(u), v)
                in_H = data.group_index(diff) in data.subgroup_H
                table[(M.state(u), M.state(v))] = ZERO if not in_H else M.state(u)
    return PartialOperation("diamond", table)


def _letter_component(M: AutomaticAlgebra, component_index: int) -> tuple:
    """(component, its group data), for a component every letter acts on."""
    from .structure import components, component_group
    comps = components(M)
    if not 0 <= component_index < len(comps):
        raise IndexOutOfRange(f"no component {component_index}")
    data = component_group(M, comps[component_index])
    for j in range(M.n_letters):
        if j not in data.letter_images:
            raise PreconditionViolated(
                f"letter {M.letter_names[j]} is undefined on this component")
    return comps[component_index], data


def op_pbar(M: AutomaticAlgebra, component_index: int = 0) -> PartialOperation:
    """Mal'cev operation xy⁻¹z on one component, extended to letter triples.

    Needs the letter images on the component to be closed under the Mal'cev
    operation (the letter-affine condition there).
    """
    comp, data = _letter_component(M, component_index)
    G = data.group
    image_of = {a: data.letter_images[M.letter_index(a)] for a in M.letters()}
    if G.malcev_gap(list(image_of.values())) is not None:
        raise PreconditionViolated("letter images are not Mal'cev closed on this component")
    # the operation itself: x·y⁻¹·z in the group, on states and on letters
    carriers = (({M.state(s): k for k, s in enumerate(comp)},
                 lambda g: M.state(comp[g])),
                (image_of, lambda g: _least_letter_with_image(M, data, g)))
    table = {(ZERO, ZERO, ZERO): ZERO}
    for index_of, element in carriers:
        for x, y, z in product(index_of, repeat=3):
            table[(x, y, z)] = element(G.op(G.op(index_of[x], G.inv(index_of[y])),
                                            index_of[z]))
    return PartialOperation("pbar", table)


def _least_letter_with_image(M: AutomaticAlgebra, data, group_index: int) -> int:
    for j in range(M.n_letters):
        if data.letter_images.get(j) == group_index:
            return M.letter(j)
    raise PreconditionViolated("no letter realizes the required image")


def op_psi(M: AutomaticAlgebra, endo: dict, component_index: int = 0) -> PartialOperation:
    """Unary partial op extending an endomorphism of H that fixes u.

    `endo` maps group indices of H to group indices of H; it must fix
    u = a^{|G/H|} where a is the image of the least letter.  The extension
    sends a^t·h to a^t·endo(h) on the component and acts on letters through
    their images; it is defined on C ∪ Σ ∪ {0}.
    """
    comp, data = _letter_component(M, component_index)
    if not data.letter_images:
        raise PreconditionViolated("no letter acts on this component")
    G, H = data.group, data.subgroup_H
    for h in H:
        if endo.get(h) not in H:
            raise PreconditionViolated("endo must map H into H")
    for h1 in H:
        for h2 in H:
            if endo[G.op(h1, h2)] != G.op(endo[h1], endo[h2]):
                raise PreconditionViolated("endo is not a homomorphism on H")
    a_i = data.letter_images[min(data.letter_images)]
    n_i = G.n // len(H)
    u_i = G.power(a_i, n_i)
    if endo[u_i] != u_i:
        raise PreconditionViolated("endo must fix u = a^{|G/H|}")

    def xi(g: int) -> int:
        for t in range(n_i):
            h = G.op(G.inv(G.power(a_i, t)), g)
            if h in H:
                return G.op(G.power(a_i, t), endo[h])
        raise PreconditionViolated("G/H is not generated by the chosen letter image")

    images = set(data.letter_images.values())
    table = {(ZERO,): ZERO}
    for s in comp:
        table[(M.state(s),)] = M.state(data.state_of_group_index(xi(data.group_index(s))))
    for a in M.letters():
        gi = xi(data.letter_images[M.letter_index(a)])
        if gi not in images:
            raise PreconditionViolated(
                "extension leaves the letter images; component is not letter-affine")
        table[(a,)] = _least_letter_with_image(M, data, gi)
    return PartialOperation("psi", table)

