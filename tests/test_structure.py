import random

import pytest

from autodual.abgroups import AbelianGroup
from autodual.algebras import ZERO, AutomaticAlgebra, catalog, random_algebra, standard_catalog
from autodual.classify import gen_chain
from autodual.errors import NotCommuting, NotPermutational
from autodual.structure import (component_group, components, letter_affine_analysis,
                                letter_sets, nondcomm_check, permutation_profile,
                                rankill_check, whiskery_check)
from autodual.terms import WHISKERY_QUASI, check_quasi_identity


def test_components_examples():
    L = catalog("L")
    assert components(L) == [[0, 1, 2]]
    isolated = AutomaticAlgebra(["q"], ["a"], {})
    assert components(isolated) == [[0]]
    M3 = gen_chain(3)
    comps = components(M3)
    assert len(comps) == 2
    assert comps[0] == [0, 1, 2] and len(comps[1]) == 7


def test_letter_sets():
    N1 = catalog("N", 1)
    sets = letter_sets(N1)
    assert sets[0].dom == {0, 1} and sets[0].ran == {1} and sets[0].ks == set()
    assert sets[1].dom == {1} and sets[1].ks == {0}


def test_rankill_examples():
    N1 = catalog("N", 1)
    w = rankill_check(N1)
    assert (w.case, N1.letter_names[w.letter], N1.state_names[w.state],
            [N1.letter_names[j] for j in w.word]) == (1, "b", "q", ["a"])
    N3 = catalog("N", 3)
    w = rankill_check(N3)
    assert (w.case, N3.letter_names[w.letter], N3.state_names[w.state],
            [N3.letter_names[j] for j in w.word]) == (2, "b", "q", ["a"])
    L3 = catalog("L3star")
    w = rankill_check(L3)
    assert (w.case, L3.letter_names[w.letter], L3.state_names[w.state],
            [L3.letter_names[j] for j in w.word]) == (2, "b", "s", ["a", "c"])
    assert rankill_check(catalog("L")) is None  # total algebra
    assert rankill_check(catalog("C", 3)) is None


def test_rankill_total_chain_6_returns_at_once():
    # every letter of a chain stage is total, so no letter kills a state
    # and no path search runs; stage 6 has 39 states and 609 letters
    M = gen_chain(6)
    assert all(not M.kills(j) for j in range(M.n_letters))
    assert rankill_check(M) is None


def test_whiskery_examples():
    B = catalog("B")
    wf = whiskery_check(B)
    assert (B.letter_names[wf.letter], B.state_names[wf.state]) == ("a", "q")
    assert wf.forbidden_m == 0
    assert whiskery_check(catalog("L")) is None
    ident = AutomaticAlgebra.build("qr", "a", [("q", "a", "q"), ("r", "a", "r")])
    assert whiskery_check(ident) is None
    R = catalog("R")
    wf = whiskery_check(R)
    assert (R.letter_names[wf.letter], R.state_names[wf.state]) == ("a", "r")


def test_whiskery_three_way_agreement_on_randoms():
    rng = random.Random(1)
    for _ in range(120):
        M = random_algebra(rng, 4, 3)
        direct = whiskery_check(M)  # internally cross-asserts all three ways
        quasi = check_quasi_identity(M, WHISKERY_QUASI)
        assert (direct is None) == (quasi is None)


def test_permutation_profile_examples():
    prof = permutation_profile(catalog("C", 3))
    assert prof.permutational and prof.commuting
    prof = permutation_profile(catalog("B"))
    assert not prof.permutational
    prof = permutation_profile(catalog("N", 4))
    assert not prof.permutational  # a maps both states to r
    assert prof.component_status[0][0] == "partial"


def test_component_group_c3():
    C3 = catalog("C", 3)
    data = component_group(C3, [0, 1, 2])
    assert data.e_state == 0
    assert data.group.n == 3
    # both letter images generate; H is the whole group
    assert data.subgroup_H == frozenset(range(3))
    assert sorted(data.letter_images.values()) == [1, 2]
    assert data.exponent == 3
    assert [d for _, d in data.decomposition] == [3]


def test_component_group_trivial_and_cycle():
    single = AutomaticAlgebra.build("q", "a", [("q", "a", "q")])
    data = component_group(single, [0])
    assert data.group.n == 1 and data.subgroup_H == frozenset({0})
    cyc = AutomaticAlgebra.build(["1", "2", "3", "4"], ["a"],
                                 [("1", "a", "2"), ("2", "a", "3"),
                                  ("3", "a", "4"), ("4", "a", "1")])
    data = component_group(cyc, [0, 1, 2, 3])
    assert data.group.n == 4
    assert data.subgroup_H == frozenset({data.group.identity})
    assert [d for _, d in data.decomposition] == [4]


def test_component_group_errors():
    with pytest.raises(NotPermutational):
        component_group(catalog("B"), [0, 1, 2])
    noncomm = AutomaticAlgebra.build(
        ["1", "2", "3"], ["a", "b"],
        [("1", "a", "2"), ("2", "a", "1"), ("3", "a", "3"),
         ("1", "b", "1"), ("2", "b", "3"), ("3", "b", "2")])
    with pytest.raises(NotCommuting):
        component_group(noncomm, [0, 1, 2])


def test_letter_affine_examples():
    rep = letter_affine_analysis(catalog("C", 3))
    assert not rep.affine
    comp, kind, triple = rep.failure
    assert kind == "malcev" and triple == ("b", "c", "b")
    M2 = gen_chain(2)
    rep = letter_affine_analysis(M2)
    assert rep.affine
    single_perm = AutomaticAlgebra.build(["1", "2"], ["a"],
                                         [("1", "a", "2"), ("2", "a", "1")])
    assert letter_affine_analysis(single_perm).affine


def test_letter_affine_remark_55_variant():
    # two components; b is totally undefined on the first and a permutation
    # on the second: still letter-affine, with b dropped on component one
    M = AutomaticAlgebra.build(
        ["p", "u", "v"], ["a", "b"],
        [("p", "a", "p"), ("u", "a", "u"), ("v", "a", "v"),
         ("u", "b", "v"), ("v", "b", "u")])
    rep = letter_affine_analysis(M)
    assert rep.affine
    assert rep.components[0].dropped == (1,)
    partial = AutomaticAlgebra.build(
        ["u", "v"], ["a", "b"],
        [("u", "a", "u"), ("v", "a", "v"), ("u", "b", "v")])
    rep = letter_affine_analysis(partial)
    assert not rep.affine and rep.failure[1] == "not-permutational"


def test_nondcomm_examples():
    w = nondcomm_check(catalog("C", 3))
    C3 = catalog("C", 3)
    assert (C3.letter_names[w.b], C3.letter_names[w.c], w.m) == ("b", "c", 3)
    assert nondcomm_check(gen_chain(2)) is None  # identity letter gives a coset
    assert nondcomm_check(catalog("B")) is None  # not permutational
    w = nondcomm_check(gen_chain(3))
    assert w.m == 7


def test_rankill_none_excludes_trailing_letter_flips():
    # cross-module form of the range/kill corollary: on whiskery-passing
    # algebras that rankill clears, no single letter moved past a short word
    # flips a product between zero and nonzero from a kill or range state
    rng = random.Random(11)
    algebras = [M for _, M in standard_catalog()]
    algebras += [random_algebra(rng, 3, 2) for _ in range(60)]
    for M in algebras:
        if whiskery_check(M) is not None or rankill_check(M) is not None:
            continue
        words = [()]
        for _ in range(4):
            words += [w + (j,) for w in words if len(w) < 4
                      for j in range(M.n_letters)]
        for j in range(M.n_letters):
            for i in M.kills(j):
                for w in words:
                    assert M.word(M.state(i), w + (j,)) == ZERO
            for i in M.ran(j):
                for w in words:
                    end = M.word(M.state(i), w)
                    if end != ZERO:
                        assert M.mul(end, M.letter(j)) != ZERO


def test_nondcomm_subset_oracle():
    # the cyclic-generator coset test agrees with brute-force subset search
    from itertools import combinations
    from autodual.structure import _coset_inside, _compose, _perm_inverse, _perm_order

    def brute(actions, m):
        acts = sorted(actions)
        for size in range(1, len(acts) + 1):
            for subset in combinations(acts, size):
                k = subset[0]
                H = {_compose(_perm_inverse(k), s) for s in subset}
                ident = tuple(range(len(k)))
                if ident not in H or len(H) <= 1 or m % len(H) != 0:
                    continue
                if all(_compose(a, b) in H for a in H for b in H):
                    return True
        return False

    rng = random.Random(9)
    from itertools import permutations
    perms4 = list(permutations(range(4)))
    for _ in range(200):
        actions = {rng.choice(perms4) for _ in range(rng.randint(1, 4))}
        # keep only commuting families, as in the intended use
        acts = sorted(actions)
        if not all(_compose(a, b) == _compose(b, a) for a in acts for b in acts):
            continue
        for m in (2, 3, 4, 6, 12):
            assert _coset_inside(actions, m) == brute(actions, m)


def test_letter_affine_coset_normal_form():
    # whenever the analysis says yes, the letter images are exactly the
    # H-coset of the least letter's image
    for M in (gen_chain(2), gen_chain(4)):
        rep = letter_affine_analysis(M)
        assert rep.affine
        for cr in rep.components:
            data = cr.data
            least = data.letter_images[min(data.letter_images)]
            coset = {data.group.op(least, h) for h in data.subgroup_H}
            assert coset == set(data.letter_images.values())
