import gc
import hashlib
import itertools
import random
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autodual import powers
from autodual.algebras import ZERO, AutomaticAlgebra, catalog, standard_catalog
from autodual.classify import gen_chain
from autodual.errors import (BadParams, CapExceeded, IndexOutOfRange,
                             PreconditionViolated)
from autodual.operations import (is_compatible, op_chain_meet, op_diamond, op_g_uv, op_h,
                                 op_join, op_lambda, op_pbar, op_psi, op_quasi_meet)
from autodual.powers import (Groupoid, _search_masks, close_under_swaps, enumerate_homs,
                             find_embedding, generate_subuniverse, hom_exists,
                             pointwise_mul, restriction_counts)
from autodual.structure import component_group, components
from autodual.witness import CONSTRUCTION_NAMES, build_truncation
from small_algebras import every_algebra


def test_generate_subuniverse_examples():
    B = catalog("B")
    q, r, a = (B.element_by_name(x) for x in "qra")
    got = generate_subuniverse(B, 2, [(q, q), (a, a)])
    assert set(got) == {(q, q), (a, a), (r, r), (ZERO, ZERO)}
    assert got[:2] == [(q, q), (a, a)]  # generators first
    assert generate_subuniverse(B, 1, [(ZERO,)]) == [(ZERO,)]
    F0 = catalog("F", 0)
    q, r, a = (F0.element_by_name(x) for x in "qra")
    assert set(generate_subuniverse(F0, 1, [(q,), (a,)])) == \
        {(q,), (a,), (r,), (ZERO,)}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=0, max_size=3, unique=True),
       st.lists(st.integers(0, 6), min_size=0, max_size=3, unique=True))
def test_subuniverse_monotone_idempotent(xs, ys):
    B = catalog("B")
    pool = [(x, y) for x in B.elements() for y in B.elements()][:49]
    X = [pool[i * 7 % len(pool)] for i in xs]
    Y = X + [pool[i * 5 % len(pool)] for i in ys]
    sg_x = generate_subuniverse(B, 2, X)
    sg_again = generate_subuniverse(B, 2, sg_x)
    assert set(sg_again) == set(sg_x)
    assert set(sg_x) <= set(generate_subuniverse(B, 2, Y))


def naive_power_groupoid(M, n, generators, max_elements=None):
    """Reference closure: products through pointwise_mul, then the full
    table of the elements, kept by Groupoid(table)."""
    elems, index = [], {}
    for g in generators:
        if g not in index:
            index[g] = len(elems)
            elems.append(g)
    frontier = list(elems)
    while frontier:
        new = []
        for u in list(elems):
            for v in frontier:
                for w in (pointwise_mul(M, u, v), pointwise_mul(M, v, u)):
                    if w not in index:
                        index[w] = len(elems)
                        elems.append(w)
                        new.append(w)
                        if max_elements is not None and len(elems) > max_elements:
                            raise CapExceeded("reference closure over cap")
        frontier = new
    pos = {u: i for i, u in enumerate(elems)}
    table = [[pos[pointwise_mul(M, u, v)] for v in elems] for u in elems]
    return elems, Groupoid(table, labels=elems)


def dense_table(A):
    """The full multiplication table of A, read back product by product."""
    return [[A.mul(i, j) for j in range(A.n)] for i in range(A.n)]


def zero_of(table):
    """The absorbing element of a full table, or -1."""
    ids = range(len(table))
    return next((z for z in ids if all(table[z][j] == table[j][z] == z for j in ids)), -1)


def index_from_table(table):
    """What `Groupoid.search_index` returns, worked out cell by cell from a
    full table: the pairs (k, j) of each product k·j but the zero, in row
    order."""
    ids = range(len(table))
    zero = zero_of(table)
    pre_left, pre_right = [[] for _ in ids], [[] for _ in ids]
    for k in ids:
        for j in ids:
            if table[k][j] != zero:
                pre_left[table[k][j]].append(k)
                pre_right[table[k][j]].append(j)
    assert zero < 0 or pre_left[zero] == []
    return pre_left, pre_right


def assert_closure_matches(M, n, gens):
    """Both entry points of the sparse closure against the naive one:
    `generate_subuniverse` gives the same elements, and `Groupoid.from_power`
    on them every product u·v the one pointwise_mul gives and the same search
    index as a full table of those products."""
    elems = generate_subuniverse(M, n, gens)
    G = Groupoid.from_power(M, elems)
    ref_elems, ref = naive_power_groupoid(M, n, gens)
    assert elems == ref_elems and G.labels == ref.labels
    pos = {u: i for i, u in enumerate(elems)}
    table = [[pos[pointwise_mul(M, u, v)] for v in elems] for u in elems]
    assert dense_table(G) == dense_table(ref) == table
    assert (G.zero, G.partners) == (ref.zero, ref.partners)
    assert G.search_index == ref.search_index == index_from_table(table)
    # the cap applies to the elements products add, not to the generators
    cap = len(ref_elems) - 1
    got = closure_or_cap(generate_subuniverse, M, n, gens, cap)
    assert got == closure_or_cap(lambda *args: naive_power_groupoid(*args)[0], M, n, gens, cap)
    assert (got == "cap") == (len(ref_elems) > len(set(gens)))
    assert generate_subuniverse(M, n, gens, len(ref_elems)) == ref_elems


def closure_or_cap(build, M, n, gens, cap):
    try:
        return build(M, n, gens, cap)
    except CapExceeded:
        return "cap"


@pytest.mark.parametrize("N", [4, 5])
@pytest.mark.parametrize("name", CONSTRUCTION_NAMES)
def test_power_groupoid_matches_reference_on_constructions(name, N):
    spec = build_truncation(name, (), N).spec
    gens = [t for _, t in spec.a0] + [t for _, t in spec.b]
    assert_closure_matches(spec.algebra, spec.width, gens)


@pytest.mark.parametrize("name, size, digest", [
    ("thm_nondcomm", 745, "ad36c057b00cb3399234fe9a9465fd4e2d96a15821ade0c4468c5885606d4080"),
    ("thm_pcomm_case1", 187, "9bfd6741dadd1c0083b8cf21071c0743d19f26f7f7dcd89f56c389c9b2f815ab"),
])
def test_truncation_at_6_is_byte_identical_to_golden(name, size, digest):
    # recorded from the closure that built every product, before products
    # where no state meets a letter were skipped
    trunc = build_truncation(name, (), 6)
    assert len(trunc.elements) == size
    A = Groupoid.from_power(trunc.spec.algebra, trunc.elements)
    got = repr((trunc.elements, dense_table(A))).encode()
    assert hashlib.sha256(got).hexdigest() == digest


@st.composite
def partial_algebras(draw, max_states=4):
    """Automatic algebras with 1 to `max_states` states and 1-3 letters, each
    transition undefined or any state."""
    nq, ns = draw(st.integers(1, max_states)), draw(st.integers(1, 3))
    pairs = list(itertools.product(range(nq), range(ns)))
    targets = draw(st.lists(st.integers(0, nq), min_size=len(pairs), max_size=len(pairs)))
    return AutomaticAlgebra([f"q{i}" for i in range(nq)], [f"a{j}" for j in range(ns)],
                            {p: t for p, t in zip(pairs, targets) if t < nq})


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from([catalog("B"), catalog("F", 0), catalog("N", 1)]),
                 partial_algebras()),
       st.integers(0, 4), st.data())
def test_power_groupoid_matches_reference_on_random_generators(M, n, data):
    element = st.one_of(st.tuples(*[st.sampled_from(M.elements())] * n),
                        st.just((ZERO,) * n))
    gens = data.draw(st.lists(element, min_size=0, max_size=4))
    assert_closure_matches(M, n, gens)


def test_power_groupoid_order_puts_uv_before_vu():
    B = catalog("B")
    q, r, a = (B.element_by_name(x) for x in "qra")
    elems = generate_subuniverse(B, 2, [(q, a), (a, q)])
    G = Groupoid.from_power(B, elems)
    assert elems == [(q, a), (a, q), (ZERO, ZERO), (r, ZERO), (ZERO, r)]
    assert G.mul(0, 1) == 3 and G.mul(1, 0) == 4
    assert_closure_matches(B, 3, [(q, a, r), (a, q, q), (r, a, a)])


def test_power_groupoid_rejects_bad_generators():
    B = catalog("B")
    with pytest.raises(BadParams):
        generate_subuniverse(B, 2, [(ZERO,)])
    for build in (lambda gens: generate_subuniverse(B, 1, gens),
                  lambda gens: Groupoid.from_power(B, gens)):
        with pytest.raises(BadParams):
            build([(B.size(),)])


def preserving(A, M, maps):
    """The maps A -> M (tuples indexed by A) that preserve every product of A,
    sorted."""
    mt = [[M.mul(x, y) for y in range(M.size())] for x in range(M.size())]
    triples = [(i, j, A.mul(i, j)) for i in range(A.n) for j in range(A.n)]
    return sorted(h for h in maps
                  if all(h[t] == mt[h[i]][h[j]] for i, j, t in triples))


def brute_force_homs(A, M):
    """Every map A -> M, kept when it preserves every product of A."""
    return preserving(A, M, itertools.product(M.elements(), repeat=A.n))


def assert_counted(A, M, preassigned=None, listed=None):
    """The count of `restriction_counts` with `on` empty is the length of
    the listing with the same `preassigned` sets, None at a limit one below
    it and not at it."""
    if listed is None:
        listed = enumerate_homs(A, M, max_elements=A.n, preassigned=preassigned)
    count = len(listed)
    assert restriction_counts(A, M, (), (), None, A.n, preassigned)[1] == count
    assert restriction_counts(A, M, (), (), count - 1, A.n, preassigned)[1] is None
    assert restriction_counts(A, M, (), (), count, A.n, preassigned)[1] == count


def small_sources():
    keys = [("R",), ("C", 3)] + [("F", m) for m in range(3)] + [("N", k) for k in range(6)]
    sources = [Groupoid.from_algebra(catalog(*key)) for key in keys]
    N0, F0 = catalog("N", 0), catalog("F", 0)
    q, r, a = (N0.element_by_name(x) for x in "qra")
    sources.append(Groupoid.from_power(N0, generate_subuniverse(
        N0, 2, [(q, q), (q, r), (a, a)])))
    q, a = F0.element_by_name("q"), F0.element_by_name("a")
    sources.append(Groupoid.from_power(F0, generate_subuniverse(F0, 2, [(q, a), (a, a)])))
    return sources


def small_pairs(targets):
    """The (source, target) pairs small enough to check by brute force."""
    sources = small_sources()
    return [(A, M) for M in targets for A in sources if M.size() ** A.n <= 10 ** 5]


def power_sources(M, rng, draws=32, width=2, generators=2):
    """The distinct subalgebras of M^width, of two elements or more and
    small enough to check by brute force, that `draws` lists of `generators`
    tuples drawn from `rng` generate."""
    tuples = list(itertools.product(M.elements(), repeat=width))
    found = {}
    for _ in range(draws):
        elems = generate_subuniverse(M, width, [rng.choice(tuples) for _ in range(generators)])
        if 1 < len(elems) and M.size() ** len(elems) <= 10 ** 5:
            found.setdefault(tuple(elems), None)
    return [Groupoid.from_power(M, list(elems)) for elems in found]


def assert_homs_match(A, M):
    """Every kind of search of A -> M returns what brute force finds."""
    homs = brute_force_homs(A, M)
    embeddings = [h for h in homs if len(set(h)) == A.n]
    assert enumerate_homs(A, M) == homs
    assert enumerate_homs(A, M, injective_only=True) == embeddings
    assert find_embedding(A, M) == (embeddings[0] if embeddings else None)
    for i in range(A.n):
        for c in M.elements():
            extending = [h for h in homs if h[i] == c]
            assert enumerate_homs(A, M, preassigned={i: {c}}) == extending
            assert enumerate_homs(A, M, injective_only=True, preassigned={i: {c}}) \
                == [h for h in embeddings if h[i] == c]
            assert hom_exists(A, M, {i: {c}}) == bool(extending)
            assert_counted(A, M, {i: {c}}, extending)
        states = set(M.states())
        assert enumerate_homs(A, M, preassigned={i: states}) \
            == [h for h in homs if h[i] in states]
        assert_counted(A, M, {i: states})
    for S in ((), (0, A.n - 1), (A.n - 1, 1)):
        assert_restrictions_counted(A, M, S, homs=homs)
    if homs:
        with pytest.raises(CapExceeded):
            enumerate_homs(A, M, limit=len(homs) - 1)
    assert enumerate_homs(A, M, limit=len(homs)) == homs
    assert_counted(A, M, listed=homs)


@pytest.mark.parametrize("target", [("F", 0), ("N", 1), ("R",), ("B",)])
def test_hom_search_matches_brute_force(target):
    M = catalog(*target)
    pairs = small_pairs([M])
    powers = power_sources(M, random.Random(0), draws=8)
    for A in [A for A, _ in pairs] + powers:
        assert_homs_match(A, M)
    assert len(pairs) >= 3 and len(powers) >= 2


def restrictions_to(homs, S):
    return {tuple(h[i] for i in S) for h in homs}


def assert_restrictions_counted(A, M, S, swaps=(), homs=None):
    """`restriction_counts` gives the restrictions to S of the homs A -> M
    that brute force finds, or `homs`, and their number, which a limit one
    below leaves out."""
    if homs is None:
        homs = brute_force_homs(A, M)
    want = restrictions_to(homs, S)
    assert restriction_counts(A, M, S, swaps, max_elements=A.n) == (want, len(homs))
    assert restriction_counts(A, M, S, swaps, len(homs), A.n) == (want, len(homs))
    assert restriction_counts(A, M, S, swaps, len(homs) - 1, A.n) == (want, None)


@st.composite
def tables(draw):
    """Tables on 1-4 elements: some with an absorbing element, some
    without, some with extra idempotents i·i = i."""
    n = draw(st.integers(1, 4))
    table = [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        z = draw(st.integers(0, n - 1))
        for k in range(n):
            table[z][k] = table[k][z] = z
    for i in draw(st.sets(st.integers(0, n - 1))):
        table[i][i] = i
    return table


groupoid_tables = tables().map(Groupoid)


@settings(max_examples=200, deadline=None)
@given(tables())
def test_groupoid_keeps_every_product_of_a_table(table):
    A = Groupoid(table)
    assert dense_table(A) == table
    assert A.zero == zero_of(table)
    assert A.search_index == index_from_table(table)
    # without an absorbing element every product is kept
    assert (A.zero < 0) == (A.partners == [[(j, t, s) for j, (t, s) in enumerate(zip(row, col))]
                                           for row, col in zip(table, zip(*table))])


@settings(max_examples=300, deadline=None)
@given(groupoid_tables,
       st.one_of(st.sampled_from([catalog("B"), catalog("F", 0), catalog("N", 1)]),
                 partial_algebras()),
       st.data())
def test_hom_search_matches_brute_force_on_random_tables(A, M, data):
    homs = brute_force_homs(A, M)
    assert enumerate_homs(A, M) == homs
    assert enumerate_homs(A, M, injective_only=True) == [h for h in homs
                                                         if len(set(h)) == A.n]
    i = data.draw(st.integers(0, A.n - 1))
    c = data.draw(st.sampled_from(M.elements()))
    assert enumerate_homs(A, M, preassigned={i: {c}}) == [h for h in homs if h[i] == c]
    # a set of several codes leaves i open at the root
    values = data.draw(st.sets(st.sampled_from(M.elements())))
    within = [h for h in homs if h[i] in values]
    assert enumerate_homs(A, M, preassigned={i: values}) == within
    assert enumerate_homs(A, M, injective_only=True, preassigned={i: values}) \
        == [h for h in within if len(set(h)) == A.n]
    assert_counted(A, M, {i: values}, within)
    assert_counted(A, M, listed=homs)
    S = data.draw(st.lists(st.integers(0, A.n - 1), max_size=3, unique=True))
    assert_restrictions_counted(A, M, tuple(S), homs=homs)
    if homs:
        with pytest.raises(CapExceeded):
            enumerate_homs(A, M, limit=len(homs) - 1)
    assert enumerate_homs(A, M, limit=len(homs)) == homs


def test_absorbing_element_preassigned_nonzero_has_no_hom():
    A, B = Groupoid.from_algebra(catalog("F", 0)), catalog("B")
    z = A.labels.index("0")
    homs = enumerate_homs(A, B)
    assert enumerate_homs(A, B, preassigned={z: {ZERO}}) == homs
    for c in B.elements():
        if c != ZERO:
            assert enumerate_homs(A, B, preassigned={z: {c}}) == []
            assert enumerate_homs(A, B, injective_only=True, preassigned={z: {c}}) == []
            assert not hom_exists(A, B, {z: {c}})


def groupoid(n, products):
    """The groupoid on 0..n-1 with the given products, 0 elsewhere."""
    return Groupoid([[products.get((i, j), 0) for j in range(n)] for i in range(n)])


# Groupoids whose last element j is the last one the search leaves open, each
# with one kind of product of j that no domain enforces, or none.  0 absorbs
# but in "no-zero", where 0·0 = 2 and 0 and 2 both go to 0 in M.
# A restriction to (1,) leaves j out, one to (1, j) puts it in.
LAST_OPEN = {
    "jk=j": groupoid(3, {(2, 1): 2}),
    "kj=j": groupoid(3, {(1, 2): 2}),
    "jj=j": groupoid(3, {(2, 2): 2}),
    "none": groupoid(4, {(3, 1): 2, (1, 3): 2}),
    "no-zero": groupoid(4, {(0, 0): 2, (3, 1): 3}),
}


@pytest.mark.parametrize("name", LAST_OPEN)
def test_last_open_element_values_are_homs(name):
    A = LAST_OPEN[name]
    j = A.n - 1
    emitted_several = 0
    for M in (catalog("R"), catalog("B"), catalog("F", 0)):
        homs = brute_force_homs(A, M)
        assert enumerate_homs(A, M) == homs
        assert_counted(A, M, listed=homs)
        assert enumerate_homs(A, M, injective_only=True) == [h for h in homs
                                                             if len(set(h)) == A.n]
        for S in ((1,), (1, j), ()):
            assert_restrictions_counted(A, M, S, homs=homs)
        # with every other element preassigned, j's values are the whole search
        for rest in sorted({h[:j] for h in homs}):
            extending = [h for h in homs if h[:j] == rest]
            pre = {k: {v} for k, v in enumerate(rest)}
            assert enumerate_homs(A, M, preassigned=pre) == extending
            assert enumerate_homs(A, M, preassigned=pre, limit=len(extending)) == extending
            assert_counted(A, M, pre, extending)
            if len(extending) > 1:      # j was left open, so this path raises
                emitted_several += 1
                with pytest.raises(CapExceeded):
                    enumerate_homs(A, M, preassigned=pre, limit=len(extending) - 1)
    # in an automatic algebra x·c = c and c·c = c hold only for c = 0, so j
    # keeps several values only in the cases without k·j = j or j·j = j
    assert bool(emitted_several) == (name in ("jk=j", "none", "no-zero"))


# Groupoids with several elements that nothing but 0 multiplies, so a search
# can leave several of them open and free at once: the zero semigroup on
# five elements, one product k·j = t beside two idle elements, two elements
# j with 1·j = 3 beside an idle one, and two elements j with j·1 = j
FREE_SOURCES = {
    "zero-5": groupoid(6, {}),
    "product-and-idle": groupoid(6, {(1, 2): 3}),
    "two-preimages": groupoid(6, {(1, 2): 3, (1, 4): 3}),
    "two-fixed": groupoid(6, {(2, 1): 2, (4, 1): 4}),
}


def free_pairs():
    """(name, source, target): the sources above, and the subalgebras of M³
    that 8 seeded triples of generators generate, into three catalog
    targets, each pair small enough to check by brute force."""
    pairs = []
    for key in (("F", 0), ("N", 1), ("R",)):
        M = catalog(*key)
        cubes = power_sources(M, random.Random(3), draws=8, width=3, generators=3)
        sources = list(FREE_SOURCES.items()) + [(f"M³ {k}", A) for k, A in enumerate(cubes)]
        pairs += [(f"{name} -> {''.join(map(str, key))}", A, M)
                  for name, A in sources if M.size() ** A.n <= 10 ** 5]
    return pairs


def test_free_frames_match_brute_force():
    pairs = free_pairs()
    assert len(pairs) >= 36
    for name, A, M in pairs:
        homs = brute_force_homs(A, M)
        assert enumerate_homs(A, M) == homs, name
        assert enumerate_homs(A, M, injective_only=True) == [h for h in homs
                                                             if len(set(h)) == A.n]
        for i in range(A.n):
            for c in M.elements():
                extending = [h for h in homs if h[i] == c]
                assert enumerate_homs(A, M, preassigned={i: {c}}) == extending
                assert_counted(A, M, {i: {c}}, extending)
        assert_counted(A, M, listed=homs)
        with pytest.raises(CapExceeded, match=f"more than {len(homs) - 1} homomorphisms"):
            enumerate_homs(A, M, limit=len(homs) - 1)
        assert enumerate_homs(A, M, limit=len(homs)) == homs
        # restrictions to (), to each element but 0, and to the last and 1
        for S in [(), *((j,) for j in range(1, A.n)), (A.n - 1, 1)]:
            assert_restrictions_counted(A, M, S, homs=homs)


def test_restriction_counts_validates_elements():
    A = Groupoid.from_algebra(catalog("F", 0))
    for bad in ((A.n,), (0, -1), ("q",)):
        with pytest.raises(IndexOutOfRange):
            restriction_counts(A, catalog("B"), bad)


def is_automorphism(A, sigma):
    """Does the permutation `sigma` (a list over 0..A.n-1) preserve A's product?"""
    return all(A.mul(sigma[i], sigma[j]) == sigma[A.mul(i, j)]
               for i in range(A.n) for j in range(A.n))


def symmetric_sources():
    """(name, A, on, swaps, automorphisms): sources with, per swap, an
    automorphism of A that exchanges the elements of `on` at its two
    positions and fixes the others.  Any permutation of the zero
    semigroup's nonzero elements, 2 and 4 below 1·j = 3 or with j·1 = j, and
    the coordinate swap of the subalgebras of M² that u and its mirror
    generate, on the pair and the diagonal elements."""
    def exchange(n, i, j):
        sigma = list(range(n))
        sigma[i], sigma[j] = j, i
        return sigma

    zero5 = FREE_SOURCES["zero-5"]
    pairs = list(itertools.combinations(range(5), 2))
    out = [("zero-5", zero5, (1, 2, 3, 4, 5), pairs,
            [exchange(6, p + 1, q + 1) for p, q in pairs]),
           ("two-preimages", FREE_SOURCES["two-preimages"], (2, 5, 4), [(0, 2)],
            [exchange(6, 2, 4)]),
           ("two-fixed", FREE_SOURCES["two-fixed"], (2, 4), [(0, 1)], [exchange(6, 2, 4)])]
    for key in (("F", 0), ("N", 1), ("R",)):
        M = catalog(*key)
        for u in itertools.combinations(M.elements(), 2):
            elems = generate_subuniverse(M, 2, [u, u[::-1]])
            if M.size() ** len(elems) <= 10 ** 5:
                pos = {t: i for i, t in enumerate(elems)}
                diagonal = tuple(i for i, t in enumerate(elems) if t == t[::-1])
                out.append((f"{u} -> {''.join(map(str, key))}", Groupoid.from_power(M, elems),
                            (pos[u], *diagonal, pos[u[::-1]]), [(0, len(diagonal) + 1)],
                            [[pos[t[::-1]] for t in elems]]))
    return out


def test_swaps_keep_a_restriction_of_every_orbit(monkeypatch):
    closed = []     # the restrictions whose orbits the walk closes
    monkeypatch.setattr("autodual.powers.close_under_swaps",
                        lambda rs, W: closed.extend(rs) or close_under_swaps(rs, W))
    sources = symmetric_sources()
    assert len(sources) >= 10
    pruned = 0
    for name, A, S, W, automorphisms in sources:
        for (p, q), sigma in zip(W, automorphisms):
            assert is_automorphism(A, sigma), name
            assert [sigma[j] for j in S] == [S[q] if k == p else S[p] if k == q else j
                                             for k, j in enumerate(S)], name
        for M in (catalog("F", 0), catalog("N", 1), catalog("R")):
            homs = brute_force_homs(A, M)
            assert_restrictions_counted(A, M, S, W, homs)
            # whichever orbit the limit runs out on, the count is left out
            if len(W) == 1:
                assert all(restriction_counts(A, M, S, W, k, A.n)[1] is None
                           for k in range(len(homs))), (name, M)
            # past the limit at once: each orbit that extends is closed from
            # one restriction, which ascends along every pair
            closed.clear()
            restriction_counts(A, M, S, W, 0, A.n)
            assert all(r[p] <= r[q] for r in closed for p, q in W), (name, M)
            assert len({frozenset(close_under_swaps([r], W)) for r in closed}) == len(closed)
            pruned += len(closed) < len(restrictions_to(homs, S))
    assert pruned >= 10


def test_swaps_are_validated():
    A, M = FREE_SOURCES["zero-5"], catalog("F", 0)
    assert restriction_counts(A, M, (1, 2), swaps=()) == restriction_counts(A, M, (1, 2))
    for S, bad in (((), [(0, 1)]), ((1, 2), [(1, 0)]), ((1, 2), [(0, 0)]),
                   ((1, 2), [(0, 2)]), ((1, 2), [(-1, 1)]), ((1, 2), [(0,)]),
                   ((1, 2), [0]), ((1, 2), [("0", 1)])):
        with pytest.raises(BadParams):
            restriction_counts(A, M, S, swaps=bad)


def assert_embeddings_match(targets, sources):
    """Every injective search of a source into a target returns the
    embeddings that a filter over all injective maps finds; returns how many
    (source, target) pairs have one.  Each target is searched again after
    its successor, so a search that read the masks of the previous target
    would fail."""
    oracle = {}
    embedded = 0
    for t1 in range(len(targets)):
        t2 = (t1 + 1) % len(targets)
        for t in (t1, t2, t1):
            M = targets[t]
            for k, A in enumerate(sources):
                if (k, t) not in oracle:
                    oracle[k, t] = preserving(
                        A, M, itertools.permutations(M.elements(), A.n))
                    embedded += bool(oracle[k, t])
                want = oracle[k, t]
                assert enumerate_homs(A, M, injective_only=True) == want
                assert find_embedding(A, M) == (want[0] if want else None)
    return embedded


def test_injective_search_matches_permutation_oracle():
    targets = [M for nq in range(3) for ns in range(3) for M in every_algebra(nq, ns)]
    three_states = [M for ns in (1, 2) for M in every_algebra(3, ns)]
    targets += random.Random(7).sample(three_states, 24)
    assert assert_embeddings_match(targets, small_sources()) >= 100


def test_search_masks_hold_one_target():
    A = Groupoid.from_algebra(catalog("F", 0))
    M1 = AutomaticAlgebra.build("qr", "ab", [("q", "a", "r")])
    M2 = AutomaticAlgebra.build("qr", "ab", [("q", "a", "r"), ("r", "b", "q")])
    assert find_embedding(A, M1) is not None
    assert find_embedding(A, M2) is not None
    ref = weakref.ref(M1)
    del M1
    gc.collect()
    assert ref() is None


def masks_by_product_loop(M):
    """The reference for `_search_masks`: every product of M, one at a time.
    Asserts the facts the search takes without a mask: c·c = 0 for every c,
    x·c = c only for c = 0, and 0 is the one idempotent."""
    size = M.size()
    full = (1 << size) - 1
    L = [[0] * size + [full] for _ in range(size)]
    R = [[0] * size + [full] for _ in range(size)]
    D = [0] * size
    for x, c in itertools.product(range(size), repeat=2):
        L[x][M.mul(x, c)] |= 1 << c
        R[x][M.mul(c, x)] |= 1 << c
    for c in range(size):
        D[M.mul(c, c)] |= 1 << c
    assert D == [full] + [0] * (size - 1)
    idempotents = sum(1 << c for c in range(size) if M.mul(c, c) == c)
    assert idempotents == 1 << ZERO
    FL = [sum(1 << c for c in range(size) if M.mul(x, c) == c) for x in range(size)]
    assert FL == [1 << ZERO] * size
    FR = [sum(1 << c for c in range(size) if M.mul(c, x) == c) for x in range(size)]
    Z = [sum(1 << c for c in range(size) if M.mul(x, c) == M.mul(c, x) == ZERO)
         for x in range(size)]
    return L, R, FR + [idempotents], Z


def test_search_masks_match_the_product_loop():
    targets = [M for nq in range(4) for ns in range(3) for M in every_algebra(nq, ns)]
    targets += [gen_chain(3), catalog("L"), catalog("F", 4)]
    for M in targets:
        masks = _search_masks(M)
        assert masks == masks_by_product_loop(M)
        assert _search_masks(M) is masks        # kept with M


def test_hom_search_deeper_than_recursion_limit():
    # a zero semigroup leaves every element but its zero to its own branch,
    # so the search goes deeper than CPython's default recursion limit, 1000
    n = 1100
    A = Groupoid([[0] * n for _ in range(n)])
    assert hom_exists(A, catalog("F", 0), max_elements=n)


def test_hom_exists_validates_preassignment():
    F0, B = catalog("F", 0), catalog("B")
    A = Groupoid.from_algebra(F0)
    for bad in ({A.n: {ZERO}}, {-1: {ZERO}}, {"q": {ZERO}}):
        with pytest.raises(IndexOutOfRange):
            hom_exists(A, B, bad)
    for bad in ({0: {B.size()}}, {0: {-1}}, {0: {"q"}}, {0: ZERO}, {0: [ZERO]}):
        with pytest.raises(BadParams):
            hom_exists(A, B, bad)
        with pytest.raises(BadParams):      # checked before the size cap
            enumerate_homs(A, B, preassigned=bad, max_elements=1)


def test_enumerate_homs_examples():
    B = catalog("B")
    identity = tuple(B.elements())
    homs = enumerate_homs(Groupoid.from_algebra(B), B)
    assert identity in homs
    F0 = catalog("F", 0)
    A = Groupoid.from_algebra(F0)
    embeddings = enumerate_homs(A, B, injective_only=True)
    by_name = [{A.labels[i]: B.name(x) for i, x in enumerate(h)} for h in embeddings]
    assert {"q": "q", "r": "r", "a": "a", "0": "0"} in by_name
    N0, N1 = catalog("N", 0), catalog("N", 1)
    assert enumerate_homs(Groupoid.from_algebra(N0), N1, injective_only=True) == []
    assert find_embedding(Groupoid.from_algebra(N0), N1) is None


def test_homs_preserve_absorbing_zero():
    N1 = catalog("N", 1)
    A = Groupoid.from_algebra(catalog("N", 0))
    z = A.labels.index("0")
    assert all(A.mul(z, j) == A.mul(j, z) == z for j in range(A.n))
    homs = enumerate_homs(A, N1)
    assert homs
    for h in homs:
        assert h[z] == ZERO


def test_hom_cap():
    M2 = gen_chain(2)
    with pytest.raises(CapExceeded):
        enumerate_homs(Groupoid.from_algebra(M2), M2, max_elements=3)
    with pytest.raises(CapExceeded):
        enumerate_homs(Groupoid.from_algebra(catalog("F", 0)), catalog("B"), limit=2)


def test_a_source_over_the_hom_cap_is_refused_before_it_is_indexed():
    M = catalog("B")
    for search in (enumerate_homs, find_embedding):
        A = Groupoid.from_algebra(catalog("F", 0))
        with pytest.raises(CapExceeded, match=re.escape(f"|A| = {A.n} exceeds")):
            search(A, M, max_elements=A.n - 1)
        assert "search_index" not in vars(A)
        search(A, M, max_elements=A.n)
        assert "search_index" in vars(A)    # indexed once under the cap


def hom_lower_bound(A, M):
    """(max(|Q|, |Σ|) + 1)^|S|, S the elements of A that are no product: the
    homs that send every product to 0 and S into Q ∪ {0}, or into Σ ∪ {0}."""
    products = {t for row in dense_table(A) for t in row}
    return (max(M.n_states, M.n_letters) + 1) ** (A.n - len(products))


def assert_limit_decided_like_listing(A, M):
    """The bound is at most the number of homs, and a `limit` around either
    raises exactly when the full listing holds more, with the listing's
    message, in a listing and in a count."""
    homs = enumerate_homs(A, M)
    bound = hom_lower_bound(A, M)
    assert bound <= len(homs)
    for k in {bound - 1, bound, len(homs) - 1, len(homs)}:
        if len(homs) > k:
            with pytest.raises(CapExceeded) as err:
                enumerate_homs(A, M, limit=k)
            assert str(err.value) == f"more than {k} homomorphisms"
            assert restriction_counts(A, M, (), (), k)[1] is None
        else:
            assert enumerate_homs(A, M, limit=k) == homs
            assert restriction_counts(A, M, (), (), k)[1] == len(homs)


def test_hom_lower_bound_on_small_sources():
    targets = [M for nq in range(3) for ns in range(3) for M in every_algebra(nq, ns)]
    three_states = [M for ns in (1, 2) for M in every_algebra(3, ns)]
    targets += random.Random(17).sample(three_states, 24)
    sources = small_sources()
    for M in targets:
        for A in sources:
            assert_limit_decided_like_listing(A, M)


@settings(max_examples=200, deadline=None)
@given(groupoid_tables,
       st.sampled_from([catalog("B"), catalog("F", 0), catalog("N", 1), catalog("R"),
                        catalog("L")]))
def test_hom_lower_bound_on_random_tables(A, M):
    assert_limit_decided_like_listing(A, M)


def test_hom_lower_bound_leaves_other_searches_alone():
    # 4^16 homs by the bound, but each of these searches counts fewer
    tr = build_truncation("ex_all4_L", (), 4)
    M, a0 = tr.spec.algebra, tr.a0_indices
    A = Groupoid.from_power(M, tr.elements)
    assert hom_lower_bound(A, M) == 4 ** 16
    embeddings = enumerate_homs(A, M, injective_only=True)
    assert enumerate_homs(A, M, injective_only=True, limit=len(embeddings)) == embeddings
    restricted, count = restriction_counts(A, M, a0, limit=4 ** 16 - 1)
    assert 1 < len(restricted) and count is None
    pinned = {i: {v} for i, v in zip(a0, max(restricted))}
    extending = enumerate_homs(A, M, preassigned=pinned)
    assert enumerate_homs(A, M, preassigned=pinned, limit=len(extending)) == extending
    counted = restriction_counts(A, M, (), (), len(extending), preassigned=pinned)[1]
    assert counted == len(extending)
    first = extending[0]
    pinned = {i: {v} for i, v in enumerate(first)}
    assert enumerate_homs(A, M, preassigned=pinned, limit=1) == [first]
    assert restriction_counts(A, M, (), (), 1, preassigned=pinned)[1] == 1


def counted_backtracks(monkeypatch):
    """A list that gets one entry per `_backtrack` call from now on."""
    calls = []
    backtrack = powers._backtrack
    monkeypatch.setattr(powers, "_backtrack",
                        lambda *args: calls.append(None) or backtrack(*args))
    return calls


def test_a_count_under_the_lower_bound_makes_no_search(monkeypatch):
    # with nothing preassigned the map onto 0 is a hom, so a count that the
    # bound already refuses, and a bare existence test, need no walk
    calls = counted_backtracks(monkeypatch)
    for name, N in (("ex_all4_L", 4), ("thm_pcomm_case1", 6)):
        tr = build_truncation(name, (), N)
        M = tr.spec.algebra
        A = Groupoid.from_power(M, tr.elements)
        assert hom_lower_bound(A, M) > 20000
        assert restriction_counts(A, M, (), (), 20000, A.n) == ({()}, None)
        assert hom_exists(A, M, max_elements=A.n)
    assert calls == []


def test_find_embedding_stops_at_the_first_leaf(monkeypatch):
    # gen_chain(3) has 252 embeddings into gen_chain(4); the least is the
    # walk's first leaf, reached without visiting the others
    A, M = Groupoid.from_algebra(gen_chain(3)), gen_chain(4)
    embeddings = enumerate_homs(A, M, injective_only=True)
    assert len(embeddings) == 252
    calls = counted_backtracks(monkeypatch)
    assert find_embedding(A, M) == embeddings[0]
    assert len(calls) <= 10


def test_from_algebra_matches_mul():
    for _, M in standard_catalog():
        elems = M.elements()
        A = Groupoid.from_algebra(M)
        assert dense_table(A) == [[elems.index(M.mul(x, y)) for y in elems] for x in elems]
        assert A.labels == [M.name(x) for x in elems]
        assert all(type(x) is int for row in A.partners for p in row for x in p)


def test_from_power_refuses_a_list_that_is_no_subalgebra():
    F0 = catalog("F", 0)
    q, a = F0.element_by_name("q"), F0.element_by_name("a")
    elems = generate_subuniverse(F0, 2, [(q, q), (a, a)])
    A = Groupoid.from_power(F0, elems)
    assert A.labels == elems
    assert dense_table(A) == [[elems.index(pointwise_mul(F0, u, v)) for v in elems]
                              for u in elems]
    # not closed: the last element is a product, and so is (r, r) = (q, q)·(a, a);
    # then tuples of two widths
    for bad in (elems[:-1], [(q, q), (a, a)], elems + [(q,)], [(q, q), (a,)]):
        with pytest.raises(BadParams):
            Groupoid.from_power(F0, bad)


def test_hom_lower_bound_leaves_out_the_zero():
    # the zero semigroup on 0, 1, 2 has S = {1, 2}: at least 3² = 9 homs into
    # F_0 (|Q| = 2), and 14 in all; counting the zero too, the bound would
    # be 3³ = 27 and refuse limit=14
    A, F0 = Groupoid([[0] * 3 for _ in range(3)]), catalog("F", 0)
    assert hom_lower_bound(A, F0) == 9
    assert len(enumerate_homs(A, F0, limit=14)) == 14
    with pytest.raises(CapExceeded, match="more than 13 homomorphisms"):
        enumerate_homs(A, F0, limit=13)


def test_hom_exists_with_preassignment():
    F0 = catalog("F", 0)
    B = catalog("B")
    A = Groupoid.from_algebra(F0)
    qpos = A.labels.index("q")
    assert hom_exists(A, B, {qpos: {B.element_by_name("q")}})
    # r = q·a, but no letter of B sends q to s, so this pair is impossible
    rpos = A.labels.index("r")
    assert not hom_exists(A, B, {qpos: {B.element_by_name("q")},
                                 rpos: {B.element_by_name("s")}})


def test_is_compatible_examples():
    B = catalog("B")
    q, r, a = (B.element_by_name(x) for x in "qra")
    g = op_g_uv(B, q, a)
    assert is_compatible(B, g.graph())
    assert is_compatible(B, {(x, x) for x in B.elements()})
    assert not is_compatible(B, {(q, r)})


def test_compatible_op_values():
    L = catalog("L")
    q, r, a = (L.element_by_name(x) for x in "qra")
    qm = op_quasi_meet(L)
    assert qm(q, r) == q
    assert qm(q, a) == ZERO
    j = op_join(L)
    assert j(ZERO, q) == q
    assert j(q, q) == q
    assert (q, r) not in j.domain


def test_quasi_meet_needs_total():
    with pytest.raises(PreconditionViolated):
        op_quasi_meet(catalog("B"))


CONSTANT_D2 = AutomaticAlgebra.build(
    "qr", "ab", [("q", "a", "q"), ("r", "a", "q"), ("q", "b", "r"), ("r", "b", "r")])


BIG_CONSTANT = AutomaticAlgebra.build(
    ["q1", "q2", "q3"], ["a1", "a2", "a3"],
    [(s, f"a{i}", f"q{i}") for s in ("q1", "q2", "q3") for i in (1, 2, 3)])


def table_sample():
    from autodual.algebras import standard_catalog
    return standard_catalog() + [("chain1", gen_chain(1)), ("chain2", gen_chain(2)),
                                 ("D2", CONSTANT_D2), ("big", BIG_CONSTANT)]


def constant_values(M):
    """State index of each letter's value, from the transitions, if every
    letter is total and constant, else None."""
    values = []
    for j in range(M.n_letters):
        targets = {M.mul(s, M.letter(j)) for s in M.states()}
        if len(targets) != 1 or ZERO in targets:
            return None
        values.append(M.state_index(targets.pop()))
    return values


def test_operation_tables_match_their_definitions():
    ranked = set()
    for name, M in table_sample():
        E, Q, S = M.elements(), set(M.states()), set(M.letters())
        for u, v in itertools.product(E, repeat=2):
            if u in S or v in S:
                want = {(x, y): u if (x, y) == (u, v) else ZERO
                        for x, y in itertools.product(E, repeat=2)}
                assert op_g_uv(M, u, v).table == want, (name, u, v)
        want = {(x, x): x for x in E}
        want.update({p: s for s in Q for p in ((ZERO, s), (s, ZERO))})
        assert op_join(M).table == want, name
        if M.is_total():
            want = {(x, y): x if {x, y} <= Q or {x, y} <= S else ZERO
                    for x, y in itertools.product(E, repeat=2)}
            assert op_quasi_meet(M).table == want, name
        values = constant_values(M)
        if values is None or sorted(values) != list(range(M.n_states)):
            with pytest.raises(PreconditionViolated):
                op_chain_meet(M)
        else:
            rank = {M.state(i): i for i in range(M.n_states)}
            rank.update({M.letter(j): values[j] for j in range(M.n_letters)})

            def meet(x, y):
                if {x, y} <= Q or {x, y} <= S:
                    return max(x, y, key=rank.__getitem__)
                return ZERO
            want = {(x, y): meet(x, y) for x, y in itertools.product(E, repeat=2)}
            assert op_chain_meet(M).table == want, name
            ranked.add(name)
        for i in range(M.n_states):
            hits = [] if values is None else \
                [M.letter(j) for j in range(M.n_letters) if values[j] == i]
            if len(hits) != 1:
                with pytest.raises(PreconditionViolated):
                    op_h(M, i)
                continue
            q = M.state(i)

            def h(x, y, z):
                if x == q and {y, z} <= {ZERO, q}:
                    return q if q in (y, z) else ZERO
                return ZERO
            want = {(x, y, z): h(x, y, z)
                    for x, y, z in itertools.product(E, repeat=3) if x != hits[0]}
            assert op_h(M, i).table == want, (name, i)
    assert ranked == {"D2", "big"}


def test_chain_meet_and_h_on_constant_display():
    assert is_compatible(CONSTANT_D2, op_chain_meet(CONSTANT_D2).graph())
    for i in range(2):
        assert is_compatible(CONSTANT_D2, op_h(CONSTANT_D2, i).graph())
    with pytest.raises(PreconditionViolated):
        op_chain_meet(catalog("L"))
    with pytest.raises(PreconditionViolated):
        op_h(catalog("N", 4))


def test_group_ops_compatible():
    for M in (catalog("C", 3), gen_chain(2)):
        for g in M.states():
            assert is_compatible(M, op_lambda(M, g).graph())
        assert is_compatible(M, op_diamond(M).graph())
    M2 = gen_chain(2)
    assert is_compatible(M2, op_pbar(M2, 0).graph())
    data = component_group(M2, components(M2)[0])
    identity_endo = {h: h for h in data.subgroup_H}
    assert is_compatible(M2, op_psi(M2, identity_endo, 0).graph())


def test_lambda_refuses_a_letter_or_zero():
    C3 = catalog("C", 3)
    for g, name in ((C3.letter(0), "b"), (ZERO, "0")):
        with pytest.raises(PreconditionViolated, match=f"needs a state g, got {name}$"):
            op_lambda(C3, g)


def test_pbar_needs_letter_affine():
    with pytest.raises(PreconditionViolated):
        op_pbar(catalog("C", 3), 0)


def test_component_ops_refuse_components_some_letter_misses():
    M = AutomaticAlgebra.build(["q0", "q1", "q2"], ["a", "b"],
                               [("q0", "a", "q1"), ("q1", "a", "q0"), ("q2", "b", "q2")])
    with pytest.raises(PreconditionViolated, match="letter b is undefined"):
        op_pbar(M, 0)
    with pytest.raises(PreconditionViolated, match="letter a is undefined"):
        op_psi(M, {0: 0}, 1)
    isolated = AutomaticAlgebra.build(["q0", "q1", "q2"], ["a"],
                                      [("q0", "a", "q1"), ("q1", "a", "q0")])
    with pytest.raises(PreconditionViolated, match="letter a is undefined"):
        op_psi(isolated, {0: 0}, 1)      # q2's component has no letters
    bare = AutomaticAlgebra(["q"], [], {})
    with pytest.raises(PreconditionViolated, match="no letter acts"):
        op_psi(bare, {0: 0}, 0)
    with pytest.raises(IndexOutOfRange):
        op_pbar(M, 2)


def test_lambda_example_on_C3():
    C3 = catalog("C", 3)
    lam = op_lambda(C3, C3.element_by_name("2"))
    assert C3.name(lam(C3.element_by_name("1"))) == "2"
    assert C3.name(lam(C3.element_by_name("b"))) == "b"
    assert lam(ZERO) == ZERO


def test_evaluation_maps_preserve_compatible_relations():
    # evaluations are restrictions of coordinates, so they preserve every
    # compatible relation; spot-check on a small instance
    F0 = catalog("F", 0)
    q, a = F0.element_by_name("q"), F0.element_by_name("a")
    elems = generate_subuniverse(F0, 2, [(q, q), (q, a)])
    A = Groupoid.from_power(F0, elems)
    homs = enumerate_homs(A, F0)
    relations = [{(x, x) for x in F0.elements()},
                 op_join(F0).graph(),
                 op_g_uv(F0, q, a).graph()]
    for rel in relations:
        k = len(next(iter(rel)))
        for a_idx in range(A.n):
            for rows in zip(*[homs] * k):
                if all(tuple(h[b] for h in rows) in rel for b in range(A.n)):
                    assert tuple(h[a_idx] for h in rows) in rel
