import random
from itertools import product as iproduct

import pytest

import complement_search
from autodual.abgroups import AbelianGroup, coordinate_maps, cyclic_decomposition
from autodual.operations import (CharacterWitness, MatrixZm, abelian_group_isomorphism_types,
                                 all_characters, all_endomorphisms, annihilator_system,
                                 columns_form_coset, every_row_has_zero, find_zero_column,
                                 huc_character, rows_form_subgroup, solve_system)
from autodual.errors import (BadParams, ExponentMismatch, HypothesisFailed,
                             IndexOutOfRange, NotAbelian, NotSubgroup)


def test_group_table_validation():
    with pytest.raises(NotAbelian):
        AbelianGroup([[0, 1], [1, 1]])
    G = AbelianGroup.cyclic(5)
    assert G.identity == 0 and G.inv(2) == 3 and G.order_of(2) == 5
    assert G.exponent == 5


def associative_by_triples(table) -> bool:
    """The reference associativity check: (x·y)·z = x·(y·z) on all n³ triples."""
    n = len(table)
    return all(table[table[x][y]][z] == table[x][table[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


def light_failure(table):
    """The message of `AbelianGroup`'s Light's test on a commutative table,
    or None when it passes; a table refused later, for its identity or
    inverses, passed it."""
    try:
        AbelianGroup(table)
    except NotAbelian as exc:
        return str(exc) if str(exc).startswith(("not associative", "not a group")) else None
    return None


def first_light_failure(table):
    """The message the associativity check must raise, or None.  Every g in
    the span of the chosen ones passes Light's test, so a failing g is never
    skipped: the check names the least failing g, then the least x, then y."""
    n = len(table)
    for g, x, y in iproduct(range(n), repeat=3):
        if table[table[x][g]][y] != table[x][table[g][y]]:
            return f"not associative at ({x}, {g}, {y})"
    return None


def light_reference(table):
    """The reference for Light's test with its doubling check.  It chooses
    each g least outside the span, checks g on every (x, y), and recomputes
    the span anew as every left-normed product of the chosen g; a
    group's grows at least twofold with each g, by Lagrange."""
    n = len(table)
    chosen, span = [], set()
    for g in range(n):
        if g in span:
            continue
        chosen.append(g)
        for x, y in iproduct(range(n), repeat=2):
            if table[table[x][g]][y] != table[x][table[g][y]]:
                return f"not associative at ({x}, {g}, {y})"
        grown, frontier = set(chosen), list(chosen)
        while frontier:
            frontier = [z for z in {table[x][c] for x in frontier for c in chosen}
                        if z not in grown]
            grown.update(frontier)
        if len(grown) < 2 * len(span):
            return (f"not a group: adding {g} grows the span of the chosen elements "
                    f"from {len(span)} to {len(grown)}, less than double")
        span = grown
    return None


def refusal_reference(table):
    """The reason `AbelianGroup` must refuse `table` with, or None: its
    checks made cell by cell, in the same order."""
    n = len(table)
    if n == 0:
        return "empty table"
    if any(len(row) != n or any(not 0 <= v < n for v in row) for row in table):
        return "malformed table"
    for x, y in iproduct(range(n), repeat=2):
        if table[x][y] != table[y][x]:
            return f"not commutative at ({x}, {y})"
    light = light_reference(table)
    if light is not None:
        return light
    identities = [e for e in range(n) if all(table[e][x] == x for x in range(n))]
    if not identities:
        return "no identity element"
    for x in range(n):
        if all(table[x][y] != identities[0] for y in range(n)):
            return f"no inverse for {x}"
    return None


def test_refusal_reasons_match_the_cell_by_cell_checks():
    tables = [[], [[]], [[0, 1]], [[0], [0]], [[0, 1], [1]], [[0, 1], [1, 0, 0]],
              [[0, 2], [2, 0]], [[-1, 0], [0, 1]], [[0, 1, 2], [1, 2], [2, 0, 1]]]
    for n in range(1, 4):
        tables += [[list(cells[x * n:(x + 1) * n]) for x in range(n)]
                   for cells in iproduct(range(n), repeat=n * n)]
    reasons = set()
    for table in tables:
        try:
            AbelianGroup(table)
            reason = ""
        except NotAbelian as exc:
            reason = str(exc)
        assert reason == (refusal_reference(table) or ""), table
        reasons.add(reason)
    assert "" in reasons        # some tables are groups
    for kind in ("empty table", "malformed table", "not commutative", "not associative",
                 "not a group", "no identity element", "no inverse"):
        assert any(reason.startswith(kind) for reason in reasons), kind


def is_group(table) -> bool:
    n = len(table)
    identities = [e for e in range(n) if table[e] == list(range(n))]
    return (associative_by_triples(table) and bool(identities)
            and all(identities[0] in row for row in table))


def relabelled(G: AbelianGroup, rng: random.Random) -> AbelianGroup:
    """G with its elements renamed by a seeded permutation."""
    relabel = rng.sample(range(G.n), G.n)
    back = {v: k for k, v in enumerate(relabel)}
    return AbelianGroup([[relabel[G.op(back[x], back[y])] for y in range(G.n)]
                         for x in range(G.n)])


def commutative_tables():
    """Every commutative table on at most 3 elements, then seeded random
    ones on 4 to 8 elements: arbitrary, with an identity adjoined, relabelled
    abelian groups, and groups with one symmetric pair of cells changed."""
    def symmetric(n, values):
        table = [[0] * n for _ in range(n)]
        for (x, y), v in zip([(x, y) for x in range(n) for y in range(x, n)], values):
            table[x][y] = table[y][x] = v
        return table

    for n in range(1, 4):
        for values in iproduct(range(n), repeat=n * (n + 1) // 2):
            yield symmetric(n, values)
    rng = random.Random(18)
    for _ in range(400):
        n = rng.randint(4, 8)
        table = symmetric(n, [rng.randrange(n) for _ in range(n * (n + 1) // 2)])
        if rng.random() < 0.5:
            e = rng.randrange(n)
            table[e] = list(range(n))
            for x in range(n):
                table[x][e] = x
        yield table
    for _, G in abelian_group_isomorphism_types(8):
        for _ in range(10):
            table = relabelled(G, rng).table
            yield table
            if G.n > 1:
                x, y = rng.randrange(G.n), rng.randrange(G.n)
                table = [row[:] for row in table]
                table[x][y] = table[y][x] = (table[x][y] + 1) % G.n
                yield table


def test_light_associativity_test_matches_triples():
    outcomes, with_identity, failing_g, refused = set(), set(), set(), set()
    for table in commutative_tables():
        expected = associative_by_triples(table)
        failure = light_failure(table)
        assert failure == light_reference(table), table
        if failure is None:
            assert expected, table
        elif failure.startswith("not associative"):
            assert failure == first_light_failure(table), table
            failing_g.add(failure.split(", ")[1])
        else:
            assert not is_group(table), table
            refused.add(expected)
        if is_group(table):
            AbelianGroup(table)
        outcomes.add(expected)
        n = len(table)
        if any(table[e] == list(range(n)) for e in range(n)):
            with_identity.add(expected)
    assert outcomes == with_identity == refused == {True, False}
    assert len(failing_g) > 2
    # commutative, with no identity, and not associative:
    # (0·0)·1 = 0 but 0·(0·1) = 1
    with pytest.raises(NotAbelian, match=r"not associative at \("):
        AbelianGroup([[1, 0], [0, 0]])


def test_cyclic_decomposition_examples():
    assert [d for _, d in cyclic_decomposition(AbelianGroup.cyclic(6))] == [2, 3]
    assert cyclic_decomposition(AbelianGroup.trivial()) == []
    G = AbelianGroup.of_orders(2, 4)
    assert [d for _, d in cyclic_decomposition(G)] == [2, 4]
    G = AbelianGroup.of_orders(2, 2, 3)
    assert [d for _, d in cyclic_decomposition(G)] == [2, 2, 3]


def assert_basis_reconstructs(G: AbelianGroup, basis: list) -> None:
    """Check that coordinatewise addition over `basis` rebuilds G's table."""
    coords_of, elem_of = coordinate_maps(G, basis)
    assert len(coords_of) == G.n and len(elem_of) == G.n
    for x in G.elements():
        for y in G.elements():
            cx, cy = coords_of[x], coords_of[y]
            cz = tuple((a + b) % d for (a, b), (_, d) in
                       zip(zip(cx, cy), basis))
            assert elem_of[cz] == G.op(x, y)


def test_decomposition_reconstructs_table():
    for _, G in abelian_group_isomorphism_types(12):
        assert_basis_reconstructs(G, cyclic_decomposition(G))


def test_decomposition_matches_the_complement_search():
    # the one-pass complement returns the backtracking search's basis,
    # generator for generator; the pass runs over the elements in order, so
    # the groups are also taken under relabellings
    groups = []
    for _, G in abelian_group_isomorphism_types(128):
        groups.append(G)
        if G.n <= 64:
            groups += [relabelled(G, random.Random(seed)) for seed in range(5)]
    for G in groups:
        assert cyclic_decomposition(G) == complement_search.cyclic_decomposition(G), G.table


def test_isomorphism_types_census():
    names = [n for n, _ in abelian_group_isomorphism_types(12)]
    assert len(names) == 17
    assert "C2xC4" in names and "C2xC2xC2" in names and "C4xC3" in names


def test_huc_character_examples():
    # Z2 x Z2 with u = (1, 0): brute force confirms some valid chi exists and
    # the constructed witness self-verifies
    H = AbelianGroup.of_orders(2, 2)
    u = H.labels.index((1, 0))
    w = huc_character(H, 2, u)
    assert w.chi[u] != 0 or any(w.chi[x] for x in H.elements())
    trivial = AbelianGroup.trivial()
    w = huc_character(trivial, 4, 0)
    assert w.chi == {0: 0}
    H = AbelianGroup.cyclic(6)
    w = huc_character(H, 6, 2)
    for h in H.elements():
        if h != H.identity:
            assert w.chi[w.endo_provider(h)[h]] % 6 != 0


def test_huc_exponent_mismatch():
    with pytest.raises(ExponentMismatch):
        huc_character(AbelianGroup.cyclic(4), 6, 1)


def test_huc_rejects_u_outside_the_group():
    with pytest.raises(IndexOutOfRange) as err:
        huc_character(AbelianGroup.cyclic(4), 4, 7)
    assert err.value.exit_code == 3


def test_huc_rejects_modulus_zero():
    with pytest.raises(BadParams) as err:
        huc_character(AbelianGroup.cyclic(4), 0, 1)
    assert err.value.exit_code == 3


def test_all_characters_rejects_modulus_zero():
    with pytest.raises(BadParams) as err:
        all_characters(AbelianGroup.cyclic(4), 0)
    assert err.value.exit_code == 3


def test_huc_against_oracle_sample():
    # full sweep lives in the acceptance suite; spot-check the awkward shapes
    for orders in [(2, 4), (2, 2, 2), (3, 3), (2, 2, 3)]:
        H = AbelianGroup.of_orders(*orders)
        endos = all_endomorphisms(H)
        m = H.exponent
        for u in H.elements():
            w = huc_character(H, m, u)
            for h in H.elements():
                if h == H.identity:
                    continue
                phi = w.endo_provider(h)
                assert phi in endos
                assert phi[u] == u and w.chi[phi[h]] % m != 0


def test_all_characters_oracle():
    H = AbelianGroup.cyclic(4)
    chars = all_characters(H, 4)
    assert len(chars) == 4
    for ch in chars:
        for x in H.elements():
            for y in H.elements():
                assert (ch[x] + ch[y]) % 4 == ch[H.op(x, y)]


def test_basis_map_oracles_match_brute_force():
    # every map G -> G (order <= 5) or G -> Z_m (order <= 4) that respects
    # the table, found without any decomposition
    def homs(G, codomain, op):
        return sorted(f for f in iproduct(codomain, repeat=G.n)
                      if all(f[G.op(x, y)] == op(f[x], f[y])
                             for x in G.elements() for y in G.elements()))

    for name, G in abelian_group_isomorphism_types(5):
        endos = all_endomorphisms(G)
        assert len(set(endos)) == len(endos), name
        assert sorted(endos) == homs(G, G.elements(), G.op), name
        if G.n > 4:
            continue
        for m in (G.exponent, 2 * G.exponent):
            chars = all_characters(G, m)
            assert len(set(chars)) == len(chars), (name, m)
            assert sorted(chars) == homs(G, range(m),
                                         lambda a, b: (a + b) % m), (name, m)


def test_annihilator_examples():
    rows = annihilator_system(2, {(0, 0), (1, 1)})
    assert solve_system(2, 2, rows) == {(0, 0), (1, 1)}
    assert (1, 1) in rows
    full = {t for t in iproduct(range(3), repeat=2)}
    assert annihilator_system(3, full) == []
    zero_only = annihilator_system(2, {(0, 0)})
    assert solve_system(2, 2, zero_only) == {(0, 0)}
    with pytest.raises(NotSubgroup):
        annihilator_system(2, {(1, 1)})


def test_annihilator_random_roundtrip():
    rng = random.Random(2024)
    for _ in range(50):
        m = rng.choice([2, 3, 4, 6])
        k = rng.randint(1, 3)
        gens = [tuple(rng.randrange(m) for _ in range(k))
                for _ in range(rng.randint(0, 2))]
        span = {tuple([0] * k)}
        frontier = list(span)
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = tuple((a + b) % m for a, b in zip(x, g))
                    if y not in span:
                        span.add(y)
                        new.append(y)
            frontier = new
        rows = annihilator_system(m, span)
        assert solve_system(m, k, rows) == span


def test_zero_column_examples():
    mat = MatrixZm(2, ((0, 0), (0, 1)))
    assert find_zero_column(mat) == 0
    assert find_zero_column(MatrixZm(2, ((0,),))) == 0
    with pytest.raises(HypothesisFailed) as err:
        find_zero_column(MatrixZm(2, ((0, 0), (1, 1))))
    assert err.value.which == "row-zero"
    with pytest.raises(HypothesisFailed):
        find_zero_column(MatrixZm(2, ((0, 1),)))  # rows not a subgroup


def test_hypothesis_checkers():
    good = MatrixZm(3, ((0, 0), (0, 1), (0, 2)))
    assert rows_form_subgroup(good) is None
    assert every_row_has_zero(good) is None
    # its two distinct columns are not a coset (coset sizes in Z_3^3 are powers of 3)
    assert columns_form_coset(good) is not None
    singleton_cols = MatrixZm(3, ((0, 0, 0), (1, 1, 1), (2, 2, 2)))
    assert columns_form_coset(singleton_cols) is None
    assert rows_form_subgroup(MatrixZm(3, ((0, 1),))) is not None


def test_malcev_closure_characterizes_cosets():
    # oracle: enumerate all subgroups of Z_6 and their cosets
    G = AbelianGroup.cyclic(6)
    subgroups = [s for s in
                 ({frozenset(G.subgroup_generated([g])) for g in G.elements()}
                  | {frozenset(G.subgroup_generated([2, 3]))})]
    cosets = {frozenset(G.op(x, h) for h in H) for H in subgroups
              for x in G.elements()}
    for bits in range(1, 2 ** 6):
        S = frozenset(i for i in range(6) if bits >> i & 1)
        closed = all((x - y + z) % 6 in S for x in S for y in S for z in S)
        assert closed == (S in cosets), S
        assert (G.malcev_gap(sorted(S)) is None) == (S in cosets), S
        if S in cosets:
            x = min(S)
            assert G.difference_subgroup(sorted(S)) == {(s - x) % 6 for s in S}, S


@pytest.mark.parametrize("orders", [(8,), (2, 4), (3, 3), (2, 2, 2), (12,), (2, 6), (4, 4)])
def test_difference_subgroup_matches_all_pairwise_differences(orders):
    # the oracle closes all k² differences x⁻¹y; the empty set gives {e}
    G = AbelianGroup.of_orders(*orders)
    rng = random.Random(36)
    subsets = [[]] + [rng.sample(range(G.n), rng.randint(1, G.n)) for _ in range(300)]
    for xs in subsets:
        want = G.subgroup_generated({G.op(G.inv(x), y) for x in xs for y in xs})
        assert G.difference_subgroup(iter(xs)) == want, xs
    assert G.difference_subgroup([]) == {G.identity}


def malcev_gap_by_triples(G, xs):
    """The reference scan over all k³ triples of xs."""
    inside = set(xs)
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            for k, z in enumerate(xs):
                if G.op(G.op(x, G.inv(y)), z) not in inside:
                    return (i, j, k)
    return None


def test_malcev_gap_matches_triple_scan():
    rng = random.Random(19)
    outcomes = set()
    for _, G in abelian_group_isomorphism_types(32):
        for _ in range(40):
            if rng.random() < 0.5:
                xs = [rng.randrange(G.n) for _ in range(rng.randint(0, G.n))]
            else:   # a coset, shuffled, with repeats and sometimes one stray element
                H = G.subgroup_generated([rng.randrange(G.n) for _ in range(rng.randint(0, 2))])
                shift = rng.randrange(G.n)
                xs = [G.op(shift, h) for h in H] * rng.randint(1, 2)
                if rng.random() < 0.3:
                    xs.append(rng.randrange(G.n))
                rng.shuffle(xs)
            expected = malcev_gap_by_triples(G, xs)
            assert G.malcev_gap(xs) == expected, (G.n, xs)
            outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_zero_column_exhaustive_z2():
    found = 0
    for j in range(1, 4):
        for k in range(1, 4):
            for flat in iproduct(range(2), repeat=j * k):
                rows = tuple(tuple(flat[r * k:(r + 1) * k]) for r in range(j))
                mat = MatrixZm(2, rows)
                try:
                    find_zero_column(mat)
                    found += 1
                except HypothesisFailed:
                    pass
    assert found > 0
