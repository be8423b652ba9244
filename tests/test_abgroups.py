import random
from itertools import product as iproduct

import pytest

from autodual.abgroups import (AbelianGroup, CharacterWitness, MatrixZm,
                               abelian_group_isomorphism_types, all_characters,
                               all_endomorphisms, annihilator_system,
                               columns_form_coset, coordinate_maps,
                               cyclic_decomposition, every_row_has_zero,
                               find_zero_column, huc_character,
                               rows_form_subgroup, solve_system)
from autodual.errors import (ExponentMismatch, HypothesisFailed, NotAbelian,
                             NotSubgroup)


def test_group_table_validation():
    with pytest.raises(NotAbelian):
        AbelianGroup([[0, 1], [1, 1]])
    G = AbelianGroup.cyclic(5)
    assert G.identity == 0 and G.inv(2) == 3 and G.order_of(2) == 5
    assert G.exponent == 5


def test_cyclic_decomposition_examples():
    assert [d for _, d in cyclic_decomposition(AbelianGroup.cyclic(6))] == [2, 3]
    assert cyclic_decomposition(AbelianGroup.trivial()) == []
    G = AbelianGroup.of_orders(2, 4)
    assert [d for _, d in cyclic_decomposition(G)] == [2, 4]
    G = AbelianGroup.of_orders(2, 2, 3)
    assert [d for _, d in cyclic_decomposition(G)] == [2, 2, 3]


def test_decomposition_reconstructs_table():
    for _, G in abelian_group_isomorphism_types(12):
        basis = cyclic_decomposition(G)
        coords_of, elem_of = coordinate_maps(G, basis)
        assert len(coords_of) == G.n and len(elem_of) == G.n
        for x in G.elements():
            for y in G.elements():
                cx, cy = coords_of[x], coords_of[y]
                cz = tuple((a + b) % d for (a, b), (_, d) in
                           zip(zip(cx, cy), basis))
                assert elem_of[cz] == G.op(x, y)


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
