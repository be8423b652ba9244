import itertools
import random
from collections import deque
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from action_algebras import shared_action_algebras
from embedding_search import first_embedded, state_orbit_roots
from small_algebras import every_algebra
from test_classify import translation_action
from test_powers import partial_algebras
from autodual.abgroups import AbelianGroup, cyclic_decomposition
from autodual.algebras import ZERO, AutomaticAlgebra, catalog, random_algebra, standard_catalog
from autodual.classify import (RULES, _forbidden_two_state, classify, gen_chain,
                               normalize_algebra, verify_certificate)
from autodual.errors import BadParams, InternalInconsistency, NotCommuting, NotPermutational
from autodual.operations import CharacterWitness, MatrixZm, PartialOperation
from autodual.powers import Groupoid, find_embedding
from autodual.structure import (RanKillWitness, _component_index, _compose, _coset_inside,
                                _perm_order, _tree_maps, _whiskery_at, _whiskery_direct,
                                component_actions, component_group, components,
                                difference_order, generated_group, group_law_holds,
                                least_tail_embedding, letter_affine_analysis,
                                nondcomm_check, permutation_profile, rankill_check,
                                whiskery_check)
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
    assert N1.dom(0) == {0, 1} and N1.ran(0) == {1} and N1.kills(0) == set()
    assert N1.dom(1) == {1} and N1.kills(1) == {0}


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


def rankill_by_sources(M):
    """Reference: rankill's witness from one breadth-first search per source
    in state order, keeping the first of the shortest words."""
    def search(sources, targets):
        best = None
        for src in sorted(sources):
            seen, queue, found = {src}, deque([(src, ())]), None
            if src in targets:
                found = ()
            while queue and found is None:
                cur, word = queue.popleft()
                for j in range(M.n_letters):
                    t = M.delta.get((cur, j))
                    if t is not None and t in targets:
                        found = word + (j,)
                        break
                    if t is not None and t not in seen:
                        seen.add(t)
                        queue.append((t, word + (j,)))
            if found is not None and (best is None or len(found) < len(best[1])):
                best = (src, found)
        return best

    for case, sources, targets in ((2, M.ran, M.kills), (1, M.kills, M.dom)):
        for j in range(M.n_letters):
            hit = search(sources(j), targets(j))
            if hit is not None:
                return (case, j) + hit
    return None


def assert_rankill_matches(M):
    w = rankill_check(M)
    assert (None if w is None else (w.case, w.letter, w.state, w.word)) == \
        rankill_by_sources(M), M.emit()


def test_rankill_matches_the_per_source_search_on_random_algebras():
    rng = random.Random(2025)
    for _ in range(1000):
        assert_rankill_matches(random_algebra(rng, 8, 3))


def test_rankill_matches_the_per_source_search_on_every_small_algebra():
    for M in (M for nq in range(4) for ns in range(3) for M in every_algebra(nq, ns)):
        assert_rankill_matches(M)


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


def whiskery_direct_by_pairs(M):
    """The first failing (letter, state), one walk from every pair: the
    reference `_whiskery_direct` is checked against."""
    return next(((j, i) for j in range(M.n_letters) for i in range(M.n_states)
                 if not _whiskery_at(M, i, j)), None)


def test_whiskery_direct_matches_the_per_pair_walks_on_every_small_algebra():
    found = set()
    for M in (M for nq in range(4) for ns in range(3) for M in every_algebra(nq, ns)):
        direct = _whiskery_direct(M)
        assert direct == whiskery_direct_by_pairs(M)
        found.add(direct)
    assert None in found and len(found) > 4


@settings(max_examples=300, deadline=None)
@given(st.one_of(partial_algebras(max_states=9), shared_action_algebras()))
def test_whiskery_direct_matches_the_per_pair_walks_on_random_algebras(M):
    assert _whiskery_direct(M) == whiskery_direct_by_pairs(M)


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


def test_result_types_are_immutable_named_fields():
    # NamedTuples, whose reprs read as the fields do and whose fields cannot
    # be set
    C3 = catalog("C", 3)
    results = (
        (rankill_check(catalog("B")), "RanKillWitness(case=2, letter=0, state=1, word=())"),
        (whiskery_check(catalog("B")),
         "WhiskeryFailure(letter=0, state=0, forbidden_m=0, "
         "embedding={'q': 'q', 'r': 'r', 'a': 'a', '0': '0'})"),
        (permutation_profile(C3),
         "PermProfile(permutational=True, commuting=True, perms=((1, 2, 0), (2, 0, 1)), "
         "component_status=(('total', 'total'),))"),
        (nondcomm_check(C3), "NondcommWitness(b=0, c=1, m=3, coset_report=[((0, 1, 2), 2)])"),
    )
    for result, text in results:
        assert repr(result) == text
        with pytest.raises(AttributeError):
            setattr(result, result._fields[0], None)
    assert rankill_check(catalog("L")) is None
    assert repr(RanKillWitness(1, 0, 0, (0,))) == \
        "RanKillWitness(case=1, letter=0, state=0, word=(0,))"
    report = letter_affine_analysis(C3)
    assert report.components[0][:3] == ((0, 1, 2), (0, 1), ())
    with pytest.raises(AttributeError):
        report.components[0].data = None
    verdict = classify(catalog("B"))
    assert repr(verdict).startswith("Verdict(outcome='non_dualizable', rule='whiskery', "
                                    "certificate={'kind': 'whiskery_failure'")
    with pytest.raises(AttributeError):
        verdict.rule = "unknown"
    assert repr(MatrixZm(3, ((0, 1),))) == "MatrixZm(modulus=3, rows=((0, 1),))"
    assert repr(PartialOperation("p", {(1,): 2})) == "PartialOperation(name='p', table={(1,): 2})"
    assert [rule._fields for rule in RULES] == [("name", "detect", "kinds")] * len(RULES)
    assert CharacterWitness._fields == ("chi", "endo_provider", "modulus")
    # these two are not tuples, so tests tell them from an (error, message) pair
    for result in (component_group(C3, [0, 1, 2]), report):
        assert not isinstance(result, tuple) and not hasattr(result, "__dict__")


def test_component_group_c3():
    C3 = catalog("C", 3)
    data = component_group(C3, [0, 1, 2])
    assert data.e_state == 0
    assert data.group.n == 3
    # both letter images generate; H is the whole group
    assert data.subgroup_H == frozenset(range(3))
    assert sorted(data.letter_images.values()) == [1, 2]
    assert data.group.exponent == 3
    assert [d for _, d in cyclic_decomposition(data.group)] == [3]


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
    assert [d for _, d in cyclic_decomposition(data.group)] == [4]


def test_component_group_errors():
    with pytest.raises(NotPermutational):
        component_group(catalog("B"), [0, 1, 2])
    noncomm = AutomaticAlgebra.build(
        ["1", "2", "3"], ["a", "b"],
        [("1", "a", "2"), ("2", "a", "1"), ("3", "a", "3"),
         ("1", "b", "1"), ("2", "b", "3"), ("3", "b", "2")])
    with pytest.raises(NotCommuting):
        component_group(noncomm, [0, 1, 2])


def test_component_group_refuses_letters_that_are_rows_of_no_group():
    # on C_5, a is +1 and b = (q0 q3 q2)(q1 q4): each letter is the tree row
    # of its image, so only the group checks on the rows refuse them
    b = [3, 4, 0, 2, 1]
    M = AutomaticAlgebra([f"q{i}" for i in range(5)], ["a", "b"],
                         {**{(i, 0): (i + 1) % 5 for i in range(5)},
                          **{(i, 1): t for i, t in enumerate(b)}})
    index = component_actions(M, range(5))
    rows = _tree_maps(index, 5)
    assert all(act == rows[act[0]] for act in index)
    with pytest.raises(NotCommuting, match="^letters a, b do not commute$"):
        component_group(M, range(5))
    assert letter_affine_analysis(M).failure == \
        ((0, 1, 2, 3, 4), "not-commuting", "letters a, b do not commute")


def group_law_by_cells(M, comp, G, images):
    """`group_law_holds` one cell q·a at a time, through the product of M."""
    return all(M.mul(M.state(s), M.letter(j)) == M.state(comp[G.op(k, g)])
               for k, s in enumerate(comp) for j, g in images.items())


def test_group_law_matches_the_cell_by_cell_check():
    # every component with letters of every algebra with at most three
    # states and two letters, or four states and one letter; each abelian
    # group of its order, and its own component group where it has one, with
    # every assignment of images to its letters, partial ones included, as
    # the verifier meets them
    held = failed = 0
    algebras = [M for nq in range(1, 4) for ns in (1, 2) for M in every_algebra(nq, ns)]
    for M in algebras + list(every_algebra(4, 1)):
        for comp in components(M):
            letters = sorted(j for js in component_actions(M, comp).values() for j in js)
            groups = [AbelianGroup.cyclic(len(comp))]
            if len(comp) == 4:
                groups.append(AbelianGroup.of_orders(2, 2))
            data = outcome(component_group, M, comp)
            if not isinstance(data, tuple):
                groups.append(data.group)
            for G in groups:
                for images in itertools.product(range(len(comp)), repeat=len(letters)):
                    images = dict(zip(letters, images))
                    holds = group_law_by_cells(M, comp, G, images)
                    assert group_law_holds(M, comp, G, images) == holds, (M, comp, images)
                    held, failed = held + holds, failed + (not holds)
    assert held > 1000 and failed > 1000, (held, failed)


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


def test_letter_affine_indexes_each_component_once(monkeypatch):
    import autodual.structure as structure
    indexed = []
    monkeypatch.setattr(structure, "component_actions", lambda M, comp:
                        indexed.append(tuple(comp)) or component_actions(M, comp))
    M = gen_chain(4)
    assert letter_affine_analysis(M).affine
    assert indexed == [tuple(comp) for comp in components(M)]


def test_classify_and_verify_index_each_component_once(monkeypatch):
    import autodual.structure as structure
    indexed = []
    monkeypatch.setattr(structure, "component_actions", lambda M, comp:
                        indexed.append(tuple(comp)) or component_actions(M, comp))
    M = gen_chain(5)
    verdict = classify(M)
    assert verify_certificate(M, verdict) == (True, "")
    assert indexed == [tuple(comp) for comp in components(M)]


def test_kept_components_cannot_leak_or_go_stale():
    M = gen_chain(3)
    comps = components(M)
    comps[0].append(99)
    comps.pop()
    assert components(M) == [list(comp) for comp, _ in _component_index(M)] == \
        components(fresh_copy(M))
    for M in every_algebra(3, 2):
        components(M)       # a derived algebra must not inherit M's index
        derived = [M.drop_letter(j) for j in range(M.n_letters)]
        derived += [M.drop_state(i) for i in range(M.n_states) if i not in M.delta.values()]
        derived += [M.component_subalgebra(comp) for comp in components(M)]
        for D in derived:
            assert _component_index(D) == _component_index(fresh_copy(D)), (M, D)


def fresh_copy(M):
    return AutomaticAlgebra(M.state_names, M.letter_names, dict(M.delta))


def test_component_group_refuses_a_state_set_that_is_no_component():
    C3 = catalog("C", 3)
    for states in ([0, 1], [0, 1, 2, 2], [0, 1, 2, 3], []):
        with pytest.raises(BadParams, match="not a component"):
            component_group(C3, states)
    assert component_group(C3, [2, 0, 1]).states == (0, 1, 2)


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
    # translation families of Z_8 and Z_2 × Z_4, whose cyclic subgroups
    # have order 4 and 8, with up to all 8 translations
    pairs = list(itertools.product(range(2), range(4)))
    for translations in ([tuple((x + t) % 8 for x in range(8)) for t in range(8)],
                         [tuple(pairs.index(((x + s) % 2, (y + t) % 4)) for x, y in pairs)
                          for s, t in pairs]):
        for size in range(1, 9):
            for _ in range(6):
                actions = set(rng.sample(translations, size))
                for m in (2, 3, 4, 6, 8):
                    assert _coset_inside(actions, m) == brute(actions, m)
    # translation families of Z_9, Z_3 × Z_3 and Z_12, which hold cosets of
    # subgroups of composite order (9 in Z_9; 4, 6 and 12 in Z_12); each is
    # found through a subgroup of prime order inside it
    for orders in ((9,), (3, 3), (12,)):
        G = AbelianGroup.of_orders(*orders)
        translations = [tuple(G.table[x]) for x in G.elements()]
        for size in range(1, G.n + 1):
            for _ in range(4):
                actions = set(rng.sample(translations, size))
                for m in (3, 9, 12, 18):
                    assert _coset_inside(actions, m) == brute(actions, m)
        for H in {G.subgroup_generated([h]) for h in G.elements()} | {frozenset(G.elements())}:
            if len(H) < 4:      # composite orders only
                continue
            for k in G.elements():
                actions = {translations[G.op(k, h)] for h in H}
                for m in (3, 9, 12, 18):
                    assert _coset_inside(actions, m) == brute(actions, m) == (gcd(m, len(H)) > 1)


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


# -- reference oracles: the per-letter scans that the action index replaced --

def letters_on(M, comp):
    return [j for j in range(M.n_letters) if any((s, j) in M.delta for s in comp)]


def perm_on(M, comp, j):
    pos = {s: k for k, s in enumerate(comp)}
    images = tuple(pos.get(M.delta.get((s, j))) for s in comp)
    if None in images or len(set(images)) != len(comp):
        return None
    return images


def profile_by_letters(M):
    perms = tuple(M.action(j) for j in range(M.n_letters))
    permutational = all(None not in p and len(set(p)) == M.n_states for p in perms)
    commuting = all(M.word(q, (a, b)) == M.word(q, (b, a)) for q in M.states()
                    for a, b in combinations(range(M.n_letters), 2))
    status = []
    for comp in components(M):
        on = letters_on(M, comp)
        status.append(tuple("undefined" if j not in on else
                            "partial" if perm_on(M, comp, j) is None else "total"
                            for j in range(M.n_letters)))
    return permutational, commuting, perms if permutational else None, tuple(status)


def group_by_letters(M, comp):
    """component_group's letter images, or the (type, message) it raises."""
    letters = letters_on(M, comp)
    perms = {j: perm_on(M, comp, j) for j in letters}
    for j in letters:
        if perms[j] is None:
            return (NotPermutational,
                    f"letter {M.letter_names[j]} is not a permutation of the component")
    for j1, j2 in combinations(letters, 2):
        if _compose(perms[j1], perms[j2]) != _compose(perms[j2], perms[j1]):
            return (NotCommuting,
                    f"letters {M.letter_names[j1]}, {M.letter_names[j2]} do not commute")
    group = generated_group(perms.values(), len(comp))
    # permutations of a component connect it both ways, so act transitively
    assert len({p[0] for p in group}) == len(comp)
    if len(group) != len(comp):
        return (InternalInconsistency, "transitive abelian action is not regular")
    return {j: perms[j][0] for j in letters}


def generated_table(M, comp):
    """The table of the group the letters generate on the component, row g
    the permutation that takes the least state to g."""
    return [list(p) for p in sorted(generated_group(component_actions(M, comp), len(comp)))]


def test_component_group_matches_the_letter_scan_on_z128():
    # every translation of Z_128 is a letter: the generated group is the
    # letters themselves, and the tree reads the same table
    M = translation_action(128, range(128))
    comp = list(range(128))
    data = component_group(M, comp)
    assert data.letter_images == group_by_letters(M, comp) == {j: j for j in comp}
    assert data.group.table == generated_table(M, comp)


def letter_affine_by_letters(M):
    """(affine, failure, per component (states, letters, dropped)), with the
    Mal'cev scan over every letter's image."""
    reports = []
    for comp in components(M):
        sigma_c = letters_on(M, comp)
        for j in sigma_c:
            if perm_on(M, comp, j) is None:
                return False, (tuple(comp), "not-permutational", M.letter_names[j]), reports
        images = group_by_letters(M, comp) if sigma_c else None
        if isinstance(images, tuple):
            if images[0] is InternalInconsistency:
                raise images[0](images[1])
            return False, (tuple(comp), "not-commuting", images[1]), reports
        dropped = tuple(j for j in range(M.n_letters) if j not in sigma_c)
        reports.append((tuple(comp), tuple(sigma_c), dropped))
        if images is not None:
            group = component_group(M, comp).group
            gap = group.malcev_gap([images[j] for j in sigma_c])
            if gap is not None:
                return (False, (tuple(comp), "malcev",
                                tuple(M.letter_names[sigma_c[i]] for i in gap)), reports)
    return True, None, reports


def nondcomm_by_letters(M):
    permutational, commuting, perms, _ = profile_by_letters(M)
    if not permutational or not commuting:
        return None
    actions = [{perm_on(M, comp, j) for j in range(M.n_letters)} for comp in components(M)]
    for b in range(M.n_letters):
        for c in range(M.n_letters):
            m = difference_order(perms, b, c) if b != c else 1
            if m > 1 and not any(_coset_inside(acts, m) for acts in actions):
                return b, c, m, [len(acts) for acts in actions]
    return None


def outcome(f, *args):
    try:
        return f(*args)
    except (NotPermutational, NotCommuting) as exc:
        return type(exc), str(exc)


def test_component_actions_index():
    # a and c act alike on {p, u}; on {v, w} a and b are undefined, c is not
    M = AutomaticAlgebra.build(
        ["p", "u", "v", "w"], ["a", "b", "c", "d"],
        [("p", "a", "u"), ("u", "a", "p"), ("p", "b", "p"),
         ("p", "c", "u"), ("u", "c", "p"), ("v", "c", "w"), ("w", "c", "v"),
         ("v", "d", "v")])
    assert component_actions(M, [0, 1]) == {(1, 0): [0, 2], (0, None): [1]}
    assert list(component_actions(M, [0, 1])) == [(1, 0), (0, None)]
    assert component_actions(M, [2, 3]) == {(1, 0): [2], (0, None): [3]}


@settings(max_examples=300, deadline=None)
@given(shared_action_algebras())
def test_action_index_matches_letter_scans(M):
    prof = permutation_profile(M)
    assert (prof.permutational, prof.commuting, prof.perms,
            prof.component_status) == profile_by_letters(M)
    for comp in components(M):
        got = outcome(component_group, M, comp)
        assert (got if isinstance(got, tuple) else got.letter_images) == \
            group_by_letters(M, comp)
        if not isinstance(got, tuple):
            assert got.group.table == generated_table(M, comp)
    report = outcome(letter_affine_analysis, M)
    if isinstance(report, tuple):
        assert report == outcome(letter_affine_by_letters, M)
    else:
        assert (report.affine, report.failure,
                [(c.states, c.sigma_c, c.dropped) for c in report.components]) == \
            letter_affine_by_letters(M)
    nd = nondcomm_check(M)
    assert (None if nd is None else
            (nd.b, nd.c, nd.m, [n for _, n in nd.coset_report])) == nondcomm_by_letters(M)


# ---------------------------------------------------------------------------
# the reference first_embedded with its orbit pruning, against the unpruned
# loop, and the built embeddings against both
# ---------------------------------------------------------------------------

def unpruned_first_embedded(M, name, params):
    """The reference: every catalog source searched without restriction."""
    for p in params:
        A = Groupoid.from_algebra(catalog(name, p))
        hom = find_embedding(A, M, max_elements=A.n)
        if hom is not None:
            return p, {A.labels[i]: M.name(x) for i, x in enumerate(hom)}
    return None


def assert_first_embedded_matches(M):
    for name, params in (("F", range(max(0, M.n_states - 1))), ("N", range(6))):
        assert first_embedded(M, name, params) == unpruned_first_embedded(M, name, params)


def assert_constructions_match(M):
    """The built F_m embedding of M, and the built N_k embedding of M and of
    its normal form where they have two states, against the unpruned loop."""
    assert least_tail_embedding(M) == \
        unpruned_first_embedded(M, "F", range(max(0, M.n_states - 1)))
    for N in (M, normalize_algebra(M)[0]):
        if N.n_states == 2:
            assert _forbidden_two_state(N) == unpruned_first_embedded(N, "N", range(6))


def letter_fixing_automorphisms(M):
    """Every permutation of Q that commutes with every letter, definedness
    included, by brute force."""
    acts = [M.action(j) for j in range(M.n_letters)]
    return [pi for pi in itertools.permutations(range(M.n_states))
            if all(act[pi[x]] == (None if act[x] is None else pi[act[x]])
                   for act in acts for x in range(M.n_states))]


def assert_merged_pairs_are_related(M):
    """Each state and the least state of its class are related by a
    letter-fixing automorphism of M, and that least state is the least."""
    roots = state_orbit_roots(M)
    related = {(x, pi[x]) for pi in letter_fixing_automorphisms(M) for x in range(M.n_states)}
    for i, r in enumerate(roots):
        assert r <= i and (r, i) in related


def translation_actions():
    """Z_a and Z_a × Z_2 acting on themselves by seeded random shifts, on one
    component or on two."""
    rng = random.Random(16)
    groups = [(a,) for a in range(2, 8)] + [(a, 2) for a in range(2, 7)]
    shapes = [(g,) for g in groups] + [(g, h) for g in groups for h in groups
                                       if g <= h and prod(g) + prod(h) <= 8]
    out = []
    for comps in shapes:
        states = [(c, e) for c, orders in enumerate(comps)
                  for e in itertools.product(*map(range, orders))]
        index = {s: k for k, s in enumerate(states)}
        delta, n_letters = {}, rng.randint(1, 3)
        for j in range(n_letters):
            shifts = [tuple(rng.randrange(o) for o in orders) for orders in comps]
            for c, e in states:
                t = tuple((x + s) % o for x, s, o in zip(e, shifts[c], comps[c]))
                delta[(index[(c, e)], j)] = index[(c, t)]
        out.append(AutomaticAlgebra([f"q{i}" for i in range(len(states))],
                                    [f"a{j}" for j in range(n_letters)], delta))
    return out


@settings(max_examples=300, deadline=None)
@given(shared_action_algebras())
def test_first_embedded_matches_unpruned_on_shared_actions(M):
    assert_first_embedded_matches(M)
    if M.n_states <= 6:
        assert_merged_pairs_are_related(M)


def test_first_embedded_matches_unpruned_on_every_small_algebra():
    for M in (M for nq in range(4) for ns in range(3) for M in every_algebra(nq, ns)):
        assert_first_embedded_matches(M)
        assert_merged_pairs_are_related(M)


def test_first_embedded_matches_unpruned_on_translation_actions():
    pruned = 0
    for M in translation_actions():
        assert_first_embedded_matches(M)
        roots = state_orbit_roots(M)
        if M.n_states <= 7:
            assert_merged_pairs_are_related(M)
        for comp in components(M):
            # a translation commutes with every translation, so the whole
            # component of a transitive action is one orbit
            if len(generated_group(component_actions(M, comp), len(comp))) == len(comp):
                assert {roots[i] for i in comp} == {comp[0]}
        pruned += len(roots) - len(set(roots))
    assert pruned > 0


def test_orbit_roots_refuse_a_propagated_map_that_is_no_automorphism():
    # from q0 = p, s = u propagates a along the tree to σ = (p u): a bijection
    # that commutes with a, but p·b is defined and σ(p)·b = u·b is not
    swap = AutomaticAlgebra.build("pu", "ab", [("p", "a", "u"), ("u", "a", "p"),
                                               ("p", "b", "p")])
    # from s = u, σ(u) = u·a = u: defined everywhere, but not a bijection
    path = AutomaticAlgebra.build("pu", "a", [("p", "a", "u"), ("u", "a", "u")])
    for M in (swap, path):
        assert letter_fixing_automorphisms(M) == [(0, 1)]
        assert state_orbit_roots(M) == [0, 1]
        assert_first_embedded_matches(M)
    # without b the swap is an automorphism, and the two states are one orbit
    assert state_orbit_roots(swap.drop_letter(1)) == [0, 0]


def test_pruning_keeps_a_least_embedding_off_the_orbit_minima():
    # σ = (w x)(y z) fixes a and b, so the orbits are {w, x} and {y, z}; the
    # least embedding of F_0 sends q to w, the least in its orbit, and r to
    # z, which is not
    M = AutomaticAlgebra.build("wxyz", "ab", [("w", "a", "x"), ("x", "a", "w"),
                                              ("w", "b", "z"), ("x", "b", "y")])
    assert state_orbit_roots(M) == [0, 0, 2, 2]
    assert first_embedded(M, "F", range(3)) == (0, {"q": "w", "r": "z", "a": "b", "0": "0"})
    assert_first_embedded_matches(M)
    assert_merged_pairs_are_related(M)


def test_orbit_roots_of_chain_3():
    M = gen_chain(3)        # a 3-cycle and a 7-cycle component, both translations
    assert state_orbit_roots(M) == [0] * 3 + [3] * 7
    assert first_embedded(M, "F", range(M.n_states - 1)) is None


# ---------------------------------------------------------------------------
# whiskery's F_m embedding, built from the letters' tails
# ---------------------------------------------------------------------------

def assert_whiskery_filter_matches(M):
    found = least_tail_embedding(M)
    assert found == unpruned_first_embedded(M, "F", range(max(0, M.n_states - 1)))
    return found


def tail_family(n: int, n_letters: int, seed: int = 0) -> AutomaticAlgebra:
    """Z_n on q0..q{n-1} under `n_letters` distinct seeded translations, each
    by a unit, so each is one n-cycle, and each also taking t0 to t1 and t1
    to q0: a two-state tail into the n-cycle.  So F_n embeds, and every
    letter ties on (n, t0, t1) until its walk from q0."""
    units = [k for k in range(1, n) if gcd(k, n) == 1]
    shifts = random.Random(seed).sample(units, n_letters)
    delta = {(i, j): (i + k) % n for j, k in enumerate(shifts) for i in range(n)}
    for j in range(n_letters):
        delta[n, j], delta[n + 1, j] = n + 1, 0
    return AutomaticAlgebra([f"q{i}" for i in range(n)] + ["t0", "t1"],
                            [f"a{j}" for j in range(n_letters)], delta)


def test_cycle_lengths_examples():
    # F_m is built from the least tail: the length of the cycle it enters,
    # or 0 for a tail that leaves the letter's domain
    for m in range(6):
        assert least_tail_embedding(catalog("F", m))[0] == m
    # a 2-cycle and a fixed point under a; b takes p to r, where b is undefined
    M = AutomaticAlgebra.build("pqr", "ab", [("p", "a", "q"), ("q", "a", "p"),
                                             ("r", "a", "r"), ("p", "b", "r")])
    assert least_tail_embedding(M) == (0, {"q": "p", "r": "r", "a": "b", "0": "0"})
    assert least_tail_embedding(M.drop_letter(1)) is None
    # every letter a permutation: no tail, so no F_m
    assert least_tail_embedding(gen_chain(3)) is None


def test_a_single_long_cycle_leaves_no_m_to_search():
    # Z_1024 under +1 and +513: every letter is one 1,024-cycle with no
    # tail, so no F_m embeds
    M = translation_action(1024, (1, 513))
    assert least_tail_embedding(M) is None


def test_whiskery_filter_matches_the_full_family_on_every_small_algebra():
    shapes = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (4, 1))
    least = set()
    for M in (M for shape in shapes for M in every_algebra(*shape)):
        found = assert_whiskery_filter_matches(M)
        least.add(found and found[0])
    assert least == {None, 0, 1, 2}


def test_whiskery_filter_matches_the_full_family_on_translation_actions():
    for M in translation_actions():
        assert_whiskery_filter_matches(M)


def test_tail_embedding_matches_the_search_on_the_tail_family():
    # the letters tie on (n, t0, t1) and are told apart by their walks from
    # q0; the pruned search over the family up to n gives the same m and
    # embedding, which classify confirms and the verifier accepts
    for n in (20, 40):
        M = tail_family(n, n // 5)
        m, emb = least_tail_embedding(M)
        assert m == n and first_embedded(M, "F", range(n + 1)) == (m, emb)
        v = classify(M)
        assert (v.rule, v.certificate["m"], v.certificate["embedding"]) == ("whiskery", m, emb)
        assert verify_certificate(M, v) == (True, "")


def test_two_state_construction_matches_the_search():
    # every two-state algebra with at most three letters, raw and normalized
    embedded = 0
    for M in (M for ns in range(4) for M in every_algebra(2, ns)):
        for N in (M, normalize_algebra(M)[0]):
            if N.n_states == 2:
                found = _forbidden_two_state(N)
                assert found == unpruned_first_embedded(N, "N", range(6)), N.table_key()
                embedded += found is not None
    assert embedded > 0


@settings(max_examples=300, deadline=None)
@given(shared_action_algebras())
def test_whiskery_filter_matches_the_full_family_on_shared_actions(M):
    assert_whiskery_filter_matches(M)


def test_whiskery_filter_matches_the_full_family_on_seeded_algebras():
    # 5-9 states and 1-3 letters, each letter a shuffled permutation, a map,
    # or a partial map
    rng = random.Random(31)
    least = set()
    for _ in range(300):
        n, k = rng.randint(5, 9), rng.randint(1, 3)
        delta = {}
        for j in range(k):
            kind = rng.randrange(3)
            images = rng.sample(range(n), n) if kind == 0 else \
                [rng.randrange(n + kind - 1) for _ in range(n)]
            delta.update(((i, j), t) for i, t in enumerate(images) if t < n)
        M = AutomaticAlgebra([f"q{i}" for i in range(n)], list("abc"[:k]), delta)
        found = assert_whiskery_filter_matches(M)
        least.add(found and found[0])
    assert least >= {None, 0, 1, 2, 3}


def test_nondcomm_tests_cosets_once_per_m():
    # whether a component holds a coset depends on m alone, so testing it
    # once per m finds the per-pair loop's first witness, with every
    # component in its report
    fired = 0
    for M in translation_actions() + [gen_chain(n) for n in range(2, 6)]:
        nd = nondcomm_check(M)
        assert (None if nd is None else (nd.b, nd.c, nd.m, [n for _, n in nd.coset_report])) \
            == nondcomm_by_letters(M)
        if nd is not None:
            fired += 1
            assert [states for states, _ in nd.coset_report] == list(map(tuple, components(M)))
    assert fired > 0
    w = nondcomm_check(gen_chain(5))
    assert (w.b, w.c, w.m) == (2, 21, 29)


def test_nondcomm_tries_each_unordered_pair_once(monkeypatch):
    # ρ_c ρ_b⁻¹ is the inverse of ρ_b ρ_c⁻¹, so only the pairs b < c are tried
    import autodual.structure as structure
    tried = []
    monkeypatch.setattr(structure, "difference_order", lambda perms, b, c:
                        tried.append((b, c)) or difference_order(perms, b, c))
    M = gen_chain(4)
    assert nondcomm_check(M) is None
    assert tried == list(combinations(range(M.n_letters), 2))


def compose_until_identity(p):
    ident = tuple(range(len(p)))
    acc, k = p, 1
    while acc != ident:
        acc = _compose(acc, p)
        k += 1
    return k


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(n))))
def test_perm_order_is_the_lcm_of_cycle_lengths(p):
    assert _perm_order(tuple(p)) == compose_until_identity(tuple(p))
