import dataclasses
import hashlib
import itertools
import json
import re
import time

import pytest

from autodual import operations, witness
from autodual.algebras import ZERO, AutomaticAlgebra, catalog
from autodual.errors import BadParams, CapExceeded, ProofIdentityFailed, UnknownName
from autodual.operations import local_eval_probe
from autodual.powers import (Groupoid, count_homs, enumerate_homs, generate_subuniverse,
                             hom_exists, pointwise_mul, restriction_counts)
from autodual.witness import (CONSTRUCTION_NAMES, Truncation, a0_swaps, build_truncation,
                              kernel_block_analysis, verify_construction,
                              _derive_pcomm_params)
from test_powers import assert_counted, hom_lower_bound, restrictions_to


def test_build_truncation_thm_wc_sets():
    tr = build_truncation("thm_wc", (0,), 5)
    M = tr.spec.algebra
    r, q, a = (M.element_by_name(x) for x in "rqa")
    assert len(tr.spec.a0) == 4                 # i in 2..5
    assert (ZERO, r, 0, 0, 0) not in tr.elements  # r at position 2 only
    a0_first = tr.spec.a0[0][1]
    assert a0_first == (r, r, 0, 0, 0)
    assert tr.spec.g[1] == (r, 0, 0, 0, 0)
    assert len([1 for _, t in tr.spec.b if t[0] == q]) == 6  # pairs i<j in 2..5
    assert len([1 for _, t in tr.spec.b if t[0] == a]) == 4


def test_verify_all_constructions_small():
    for name, params in [("thm_wc", (0,)), ("thm_wc", (1,)), ("ex_all4_L", ()),
                         ("lem_2state2_N4", ()), ("lem_2state3_N5", ()),
                         ("thm_nondcomm", ()), ("thm_pcomm_case1", ())]:
        report = verify_construction(build_truncation(name, params, 4))
        assert all(item["pass"] for item in report["identities"])
        assert not report["g_in_A"]


def test_degenerate_minimum_size():
    report = verify_construction(build_truncation("lem_2state2_N4", (), 3))
    assert not report["g_in_A"]
    with pytest.raises(BadParams):
        build_truncation("thm_wc", (0,), 2)
    with pytest.raises(UnknownName):
        build_truncation("bogus", (), 4)


def test_build_truncation_fills_and_checks_parameters():
    # a short tuple takes the remaining defaults, here the letters b and c
    partial = build_truncation("thm_nondcomm", (catalog("C", 5),), 4)
    assert partial.spec.params[1:] == ("b", "c")
    assert partial.elements == build_truncation(
        "thm_nondcomm", (catalog("C", 5), "b", "c"), 4).elements
    for name, params in (("thm_wc", ("x",)), ("thm_pcomm_case1", (catalog("N", 1), "extra")),
                         ("ex_all4_L", (0,)), ("thm_nondcomm", ("C3",))):
        with pytest.raises(BadParams):
            build_truncation(name, params, 4)


def test_build_truncation_caps_the_size_before_building(monkeypatch):
    def spy(*args):
        raise AssertionError("a builder ran")
    for name in CONSTRUCTION_NAMES:
        monkeypatch.setitem(witness._SPEC_BUILDERS, name,
                            (spy, witness._SPEC_BUILDERS[name][1]))
    for name in CONSTRUCTION_NAMES:
        for N in (witness.SIZE_CAP + 1, 100):
            with pytest.raises(CapExceeded):
                build_truncation(name, (), N)


def test_thm_wc_containment():
    for m in (0, 1):
        for N in (4, 6):
            rep = verify_construction(build_truncation("thm_wc", (m,), N))
            assert rep["containment_ok"]


def test_truncation_monotonicity():
    # every element of the N-truncation extends (by following one of its
    # derivations, which pads the fresh coordinates with products of the
    # generators' base values) to an element of the N'-truncation; the
    # extension map is injective because restriction undoes it.  A single
    # canonical padding is not available: the same small element can have
    # derivations whose fresh-coordinate values differ.
    for name, params in [("thm_wc", (0,)), ("lem_2state2_N4", ())]:
        for N, N2 in [(3, 4), (4, 5)]:
            small = build_truncation(name, params, N)
            big = build_truncation(name, params, N2)
            M = small.spec.algebra
            pad = {}
            gens_small = small.spec.a0 + small.spec.b
            gens_big = {label: t for label, t in big.spec.a0 + big.spec.b}
            for label, t in gens_small:
                assert label in gens_big
                pad[t] = gens_big[label]
            frontier = list(pad)
            while frontier:
                new = []
                for u in frontier:
                    for v in list(pad):
                        for w, pw in ((pointwise_mul(M, u, v),
                                       pointwise_mul(M, pad[u], pad[v])),
                                      (pointwise_mul(M, v, u),
                                       pointwise_mul(M, pad[v], pad[u]))):
                            if w not in pad:
                                pad[w] = pw
                                new.append(w)
                frontier = new
            big_set = set(big.elements)
            assert set(pad) == set(small.elements)
            for u, pu in pad.items():
                assert pu in big_set
                assert pu[:len(u)] == u
            assert len(set(pad.values())) == len(pad)


def test_pcomm_parameter_derivation_for_N1():
    N1 = catalog("N", 1)
    qi, aj, bj, cs, p, si, t, ri = _derive_pcomm_params(N1)
    assert N1.state_names[qi] == "q"
    assert N1.letter_names[aj] == "b"   # the proof's a is N1's b
    assert N1.letter_names[bj] == "a"
    assert cs == ()
    assert p == 1
    assert N1.state_names[si] == "r"
    assert N1.state_names[ri] == "r"


def test_pcomm_rejects_non_failing_algebra():
    with pytest.raises(BadParams):
        build_truncation("thm_pcomm_case1", (catalog("L"),), 4)


@pytest.mark.parametrize("p", [13, 17])
def test_pcomm_refuses_an_order_insensitive_algebra_before_any_word(p):
    # C_13 took seconds of word search to refuse, and C_17 stopped at the
    # word cap; order sensitivity decides both at once
    start = time.perf_counter()
    with pytest.raises(BadParams, match="does not fail the transposition quasi-equation"):
        build_truncation("thm_pcomm_case1", (catalog("C", p),), 4)
    assert time.perf_counter() - start < 1


# q1·a1·a0 = 0 while q1·a0·a1 = q1, so it fails the quasi-equation, but no
# (p, s) completes case 1; its search space holds 60 words q·a·b·c…
NO_CASE_1 = AutomaticAlgebra.build(["q0", "q1"], ["a0", "a1"],
                                   [("q0", "a0", "q0"), ("q0", "a1", "q1"),
                                    ("q1", "a0", "q0")])


def test_pcomm_names_a_failing_algebra_without_case_1_parameters():
    message = ("algebra fails the transposition quasi-equation but has no "
               "case-1 parameters with |c...| <= |Q| + 1")
    with pytest.raises(BadParams, match=re.escape(message)):
        build_truncation("thm_pcomm_case1", (NO_CASE_1,), 4)


def test_pcomm_parameter_search_is_capped(monkeypatch):
    monkeypatch.setattr(witness, "PCOMM_WORD_CAP", 10)
    with pytest.raises(CapExceeded, match="exceeded 10 words"):
        build_truncation("thm_pcomm_case1", (NO_CASE_1,), 4)


def test_kernel_analysis_projection_shape():
    tr = build_truncation("lem_2state2_N4", (), 4)
    kr = kernel_block_analysis(tr, max_elements=64)
    assert kr.mode == "homs"
    assert not kr.violations
    # projections witness the (3, 1) pattern; some hom collapses all of A0
    assert (3, 1) in kr.block_multisets and (4,) in kr.block_multisets


def test_kernel_analysis_restriction_mode():
    # decided by the hom count's lower bound, 4^16, before any count
    tr = build_truncation("ex_all4_L", (), 4)
    kr = kernel_block_analysis(tr, max_elements=64, hom_budget=50)
    assert kr.mode == "restrictions" and kr.hom_count is None
    assert not kr.violations


def test_kernel_analysis_restriction_mode_after_a_capped_listing():
    # the bound, 4^6 = 4,096, is within the budget and the 4,854 homs are
    # not, so the count itself hits the cap
    tr = build_truncation("thm_nondcomm", (), 4)
    M = tr.spec.algebra
    A = Groupoid.from_power(M, tr.elements)
    assert hom_lower_bound(A, M) == 4096 <= 4500
    assert len(enumerate_homs(A, M, max_elements=A.n)) == 4854
    capped = kernel_block_analysis(tr, max_elements=A.n, hom_budget=4500)
    assert capped.mode == "restrictions"
    assert capped == kernel_block_analysis(tr, max_elements=A.n, hom_budget=0)


def hand_made_truncation():
    """x_i = r at coordinate i and q elsewhere, i = 0, 1, 2, with the letter
    everywhere, in F_0³: 8 elements, and each transposition of two
    coordinates exchanges two x_i."""
    M = catalog("F", 0)
    q, r, a = (M.element_by_name(x) for x in "qra")
    a0 = [(f"x{i}", tuple(r if c == i else q for c in range(3))) for i in range(3)]
    spec = witness.ConstructionSpec("hand-made", (), 3, M, 3, a0, [("a", (a, a, a))],
                                    ("g", (q, q, q)), 1, [])
    elements = generate_subuniverse(M, 3, [t for _, t in a0] + [(a, a, a)])
    return Truncation(spec, elements, [elements.index(t) for _, t in a0])


def test_kernel_count_weights_each_orbit_once(monkeypatch):
    tr = hand_made_truncation()
    M, a0 = tr.spec.algebra, tr.a0_indices
    A = Groupoid.from_power(M, tr.elements)
    count = len(enumerate_homs(A, M))
    assert (A.n, count, a0_swaps(tr.spec)) == (8, 165, [(0, 1), (0, 2), (1, 2)])
    full = kernel_block_analysis(tr, nu=0)
    assert (full.mode, full.hom_count) == ("homs", count)
    # the budget decides the mode at the count exactly, whichever orbit,
    # of one, three or six members, it runs out on
    assert {kernel_block_analysis(tr, nu=0, hom_budget=b).mode for b in range(count)} \
        == {"restrictions"}
    # a star at 0 and the path 0 - 2 - 1 generate the same group, but
    # several members of an orbit ascend along each of their pairs: both of
    # (a, b, c) and (a, c, b) along (0, 1) and (0, 2)
    restrictions = restrictions_to(enumerate_homs(A, M), a0)
    for swaps in ([(0, 1), (0, 2)], [(0, 2), (1, 2)]):
        kept = [r for r in restrictions if all(r[p] <= r[q] for p, q in swaps)]
        assert len({tuple(sorted(r)) for r in kept}) < len(kept)
        monkeypatch.setattr(witness, "a0_swaps", lambda spec: swaps)
        assert kernel_block_analysis(tr, nu=0) == full
        assert kernel_block_analysis(tr, nu=0, hom_budget=count - 1).mode == "restrictions"


def kernel_report_digest(name, params, N):
    """sha256 of the JSON of the kernel report at N with at most 512 elements,
    the witness benchmark's setting."""
    kr = kernel_block_analysis(build_truncation(name, params, N), max_elements=512)
    return hashlib.sha256(json.dumps(dataclasses.asdict(kr)).encode()).hexdigest()


# recorded before the hom search propagated along nonzero products only;
# the three "756dcc13..." reports are restriction-mode reports that agree
@pytest.mark.parametrize("name, params, digest", [
    ("thm_wc", (0,), "4a5870bf26f0390ce51ae6829ee5f245190b5f0ec9a7f2d7caab0b808b15963a"),
    ("thm_wc", (1,), "329ce3c0ab59982ef823897ca08b9a296f0ee1361c5ee172047180acba743bb5"),
    ("thm_pcomm_case1", (), "756dcc1339c46b4140a405a4a8da572c9a23fb91adf52b85ac92fcfb54dde8a0"),
    ("ex_all4_L", (), "756dcc1339c46b4140a405a4a8da572c9a23fb91adf52b85ac92fcfb54dde8a0"),
    ("lem_2state2_N4", (), "91bfca97f56d0ec89e1dbc11bcb209e32ec0657ef6ffd63c2c02cb97ededdb2b"),
    ("lem_2state3_N5", (), "756dcc1339c46b4140a405a4a8da572c9a23fb91adf52b85ac92fcfb54dde8a0"),
    ("thm_nondcomm", (), "ce2140f85dd747072fdabc26503abfff19219d333dd826a5b4a68597c1aef297"),
])
def test_kernel_reports_at_4_match_goldens(name, params, digest):
    assert kernel_report_digest(name, params, 4) == digest


# count and sha256 of the JSON of the sorted hom list A -> M at N = 4,
# recorded before the hom search decided the products M fixes at 0
HOM_LISTS_AT_4 = {
    ("thm_wc", (0,)):
        (1455, "30ff4d61d32c821b3dacf0b41dcd4c225b1deec820dde1109e4fc15e52e6abb4"),
    ("thm_wc", (1,)):
        (4192, "f3c3d61ebcefa60d72c80ce9f6e9ce44ef80c3aa83802ecaadb5abd56b160e13"),
    ("lem_2state2_N4", ()):
        (166, "ffc92c3e0028dfb628354d782b0f3ddb488e493d9c70ce80b2b66ed79c962128"),
    ("thm_nondcomm", ()):
        (4854, "bd9e744de21f848eeff34a8bc51651328c4e45e055000a28de87aed6b031c30e"),
}


def truncation_groupoid(name, params, N):
    tr = build_truncation(name, params, N)
    return tr, Groupoid.from_power(tr.spec.algebra, tr.elements)


# the eight witness specs: thm_wc 0, 1 and 2, and the others with their defaults
SPECS = [("thm_wc", (m,)) for m in range(3)] + [(name, ()) for name in CONSTRUCTION_NAMES
                                                 if name != "thm_wc"]


def capped(search, *args, **kwargs):
    """len of a listing, a count, or the message of the CapExceeded it raises."""
    try:
        found = search(*args, **kwargs)
    except CapExceeded as err:
        return str(err)
    return found if isinstance(found, int) else len(found)


@pytest.mark.parametrize("N", [4, 5])
@pytest.mark.parametrize("name, params", SPECS)
def test_count_matches_listing_on_witness_specs(name, params, N):
    # the whole hom set, and the homs extending each restriction to A0,
    # both under the kernel's budget of 20,000; the walk over A0 counts
    # the same, with the swaps and without
    tr, A = truncation_groupoid(name, params, N)
    M, a0 = tr.spec.algebra, tr.a0_indices
    listed = capped(enumerate_homs, A, M, max_elements=A.n, limit=20000)
    assert capped(count_homs, A, M, 20000, max_elements=A.n) == listed
    restrictions, count = restriction_counts(A, M, a0, (), 20000, A.n)
    assert count == (listed if isinstance(listed, int) else None)
    assert restriction_counts(A, M, a0, a0_swaps(tr.spec), 20000, A.n) == (restrictions, count)
    for r in restrictions:
        pinned = {i: {v} for i, v in zip(a0, r)}
        listed = capped(enumerate_homs, A, M, max_elements=A.n, preassigned=pinned, limit=20000)
        assert capped(count_homs, A, M, 20000, pinned, A.n) == listed
        if isinstance(listed, int) and listed < 200:
            assert_counted(A, M, pinned)


@pytest.mark.parametrize("name, params", HOM_LISTS_AT_4)
def test_hom_lists_at_4_match_goldens(name, params):
    tr, A = truncation_groupoid(name, params, 4)
    homs = enumerate_homs(A, tr.spec.algebra, max_elements=A.n)
    digest = hashlib.sha256(json.dumps(homs).encode()).hexdigest()
    assert (len(homs), digest) == HOM_LISTS_AT_4[name, params]


# the count of restrictions to A0 at N = 4, recorded with the hom lists
@pytest.mark.parametrize("name, params, count", [
    ("thm_wc", (0,), 5), ("thm_wc", (1,), 9), ("thm_pcomm_case1", (), 5), ("ex_all4_L", (), 11),
    ("lem_2state2_N4", (), 6), ("lem_2state3_N5", (), 11), ("thm_nondcomm", (), 28)])
def test_one_hom_per_restriction_at_4(name, params, count):
    # the restrictions to A0 that extend to a hom, one preassigned search
    # each, are those of the walk over A0, with the swaps and without
    tr, A = truncation_groupoid(name, params, 4)
    M, S = tr.spec.algebra, tr.a0_indices
    restrictions = {r for r in itertools.product(M.elements(), repeat=len(S))
                    if hom_exists(A, M, {a: {v} for a, v in zip(S, r)}, max_elements=A.n)}
    assert len(restrictions) == count
    if (name, params) in HOM_LISTS_AT_4:
        homs = enumerate_homs(A, M, max_elements=A.n)
        assert restrictions == restrictions_to(homs, S)
    for swaps in ((), a0_swaps(tr.spec)):
        assert restriction_counts(A, M, S, swaps, 0, A.n)[0] == restrictions


@pytest.mark.parametrize("name, params", [("thm_wc", (0,)), ("thm_wc", (1,)),
                                          ("lem_2state2_N4", ()), ("thm_nondcomm", ())])
def test_restriction_mode_matches_hom_mode(name, params):
    tr = build_truncation(name, params, 4)
    M, n = tr.spec.algebra, len(tr.elements)
    rank = {M.name(x): k for k, x in enumerate(M.elements())}
    for nu in (0, None):
        full = kernel_block_analysis(tr, nu=nu, max_elements=n)
        restricted = kernel_block_analysis(tr, nu=nu, max_elements=n, hom_budget=0)
        assert (full.mode, restricted.mode) == ("homs", "restrictions")
        assert restricted.block_multisets == full.block_multisets
        found = [tuple(v) for v in restricted.violations]
        assert len(set(found)) == len(found)
        assert set(found) == {tuple(v) for v in full.violations}
        # profiles come in canonical element order: states, letters, then 0
        assert found == sorted(found, key=lambda prof: [rank[v] for v in prof])
    assert restricted.violations == [] and full.violations == []   # default nu


@pytest.mark.parametrize("name", CONSTRUCTION_NAMES)
def test_a0_swaps_are_coordinate_symmetries_of_A(name):
    # every coordinate transposition that maps the generators onto
    # themselves and acts on A0 as the swap maps A onto A
    for N in (4, 5):
        tr = build_truncation(name, (), N)
        spec, elements = tr.spec, set(tr.elements)
        a0 = [tr.elements[i] for i in tr.a0_indices]
        gens = set(a0) | {t for _, t in spec.b}
        swaps = a0_swaps(spec)
        # the index families range over interchangeable coordinates
        assert swaps == list(itertools.combinations(range(len(a0)), 2))
        for p, q in swaps:
            mirrored = a0[:]
            mirrored[p], mirrored[q] = a0[q], a0[p]
            found = 0
            for c, d in itertools.combinations(range(spec.width), 2):
                def sigma(t):
                    return tuple(t[d] if k == c else t[c] if k == d else x
                                 for k, x in enumerate(t))
                if [sigma(t) for t in a0] == mirrored and {sigma(t) for t in gens} == gens:
                    assert {sigma(t) for t in tr.elements} == elements, (N, c, d)
                    found += 1
            assert found, (N, p, q)


# thm_nondcomm at 6 has 745 elements, over the benchmark's cap of 512
@pytest.mark.parametrize("name, N", [(name, N) for N in (4, 5, 6) for name in CONSTRUCTION_NAMES
                                     if (name, N) != ("thm_nondcomm", 6)])
def test_swaps_leave_the_restriction_report_as_it_is(name, N, monkeypatch):
    # at nu = 0 every profile with two values is a violation, so the
    # violations list every restriction the closure gives back
    tr = build_truncation(name, (), N)
    pruned = [kernel_block_analysis(tr, nu, max_elements=512, hom_budget=0) for nu in (0, None)]
    monkeypatch.setattr(witness, "a0_swaps", lambda spec: [])
    assert pruned == [kernel_block_analysis(tr, nu, max_elements=512, hom_budget=0)
                      for nu in (0, None)]
    assert pruned[0].mode == "restrictions" and pruned[0].violations


def test_a0_swaps_need_an_exchange_that_keeps_the_generators():
    # all three transpositions map the generators onto themselves; (0 2)
    # exchanges a0[0] and a0[2] and fixes a0[1], while (0 1) and (1 2) each
    # move two A0 generators into B.  Without q|r@1,r@2 (w), no
    # transposition but (0 1) keeps the generators
    M = catalog("F", 0)
    q, r, a = (M.element_by_name(x) for x in "qra")
    a0 = [("x", (q, r, r)), ("y", (a, ZERO, a)), ("z", (r, r, q))]
    b = [("u", (r, q, r)), ("v", (ZERO, a, a)), ("w", (a, a, ZERO))]
    spec = witness.ConstructionSpec("hand-made", (), 3, M, 3, a0, b, ("g", (q, q, q)), 1, [])
    assert a0_swaps(spec) == [(0, 2)]
    spec.b = b[:2]
    assert a0_swaps(spec) == []


def test_kernel_analysis_caps_A_in_both_modes(monkeypatch):
    def build_nothing(*args):
        raise AssertionError("a groupoid was built past the cap")

    tr = build_truncation("thm_pcomm_case1", (), 4)
    assert len(tr.elements) == 53
    # the cap is checked before A's groupoid is built
    monkeypatch.setattr(Groupoid, "from_power", build_nothing)
    with pytest.raises(CapExceeded, match="53 exceeds hom-enumeration cap 52"):
        kernel_block_analysis(tr, max_elements=52)


def test_truncation_keeps_its_elements_and_no_groupoid():
    assert [f.name for f in dataclasses.fields(Truncation)] == ["spec", "elements",
                                                                 "a0_indices"]


def test_kernel_nu_vacuous():
    tr = build_truncation("lem_2state2_N4", (), 4)
    kr = kernel_block_analysis(tr, nu=4, max_elements=64)
    assert not kr.violations


def test_proof_identity_failure_aborts():
    tr = build_truncation("lem_2state2_N4", (), 4)
    M, N = tr.spec.algebra, tr.spec.N
    q, r, a, b = (M.element_by_name(x) for x in "qrab")

    def ov(base, *pairs):
        return tuple(dict(pairs).get(n, base) for n in range(1, N + 1))

    # a wrong transcription of the first identity: letters a and b swapped
    def swapped(j, k):
        lhs = pointwise_mul(M, pointwise_mul(M, ov(q, (k, r)), ov(a, (k, b))),
                            ov(a, (j, b)))
        return lhs, ov(q, (j, r))

    name, family, _ = tr.spec.identities[0]
    tr.spec.identities[0] = (name, family, swapped)
    with pytest.raises(ProofIdentityFailed) as err:
        verify_construction(tr)
    assert err.value.identity == name and err.value.indices in family


# (identity, instances) of every construction at N = 3 and N = 4.  An
# identity with no admissible index tuple is absent (thm_wc's second at
# N = 3, thm_pcomm_case1's last at N = 3).
_WC = ["0|r@1,r@j = 0|q@1,q@j,q@k . a|0@k",
       "0|q@1,q@j,q@k . a|0@l = 0|r@1,r@j,r@k"]
_PCOMM = ["q|0@i,s@k . (b|a@k)^{p+1} . a~. c~ = r|0@i",
          "q|0@i,s@k . b|a@l . (b|a@k)^p . a~. c~ = r|0@i,t@k,0@l",
          "q|0@i,s@k,0@l . b|0@l . (b|a@k)^p . a~. c~ = r|0@i,t@k,0@l",
          "q|0@i,s@k,0@l . b|0@k . (b|a@k)^p . a~. c~ = r|0@i,0@k,0@l",
          "q|0@i,0@k,0@l . b|0@i . b~^p . a~. c~ = r|0@i,0@k,0@l",
          "q|0@i,0@k,0@l . b|0@j . b~^p . a~. c~ = r|0@i,0@j,0@k,0@l"]
_ALL4 = ["q|s@i,r@k . c|a@k = q|s@i", "q|s@i,r@k . c|a@l = q|s@i,s@k"]
_N4 = ["q|r@k . b|a@k . b|a@j = q|r@j", "q|r@k . b|a@l . b|a@j = q|r@j,r@k"]
_N5 = ["q|r@j . b|c@i,a@k = q|r@k", "q|r@i . b|c@i,a@k = q|r@i,r@k"]
_ND = ["v_i = v_j . w_{K+i} . w_{K+j}^{lam-1}"]
PINNED_IDENTITIES = {
    "thm_wc": {3: [(_WC[0], 2)], 4: [(_WC[0], 6), (_WC[1], 6)]},
    "thm_pcomm_case1": {3: [(x, 6) for x in _PCOMM[:5]],
                        4: [(_PCOMM[0], 12)] + [(x, 24) for x in _PCOMM[1:]]},
    "ex_all4_L": {3: [(_ALL4[0], 6), (_ALL4[1], 6)],
                  4: [(_ALL4[0], 12), (_ALL4[1], 24)]},
    "lem_2state2_N4": {3: [(_N4[0], 6), (_N4[1], 6)],
                       4: [(_N4[0], 12), (_N4[1], 24)]},
    "lem_2state3_N5": {3: [(_N5[0], 6), (_N5[1], 6)],
                       4: [(_N5[0], 24), (_N5[1], 12)]},
    "thm_nondcomm": {3: [(_ND[0], 6)], 4: [(_ND[0], 24)]},
}


def test_identity_names_and_instance_counts_are_pinned():
    assert set(PINNED_IDENTITIES) == set(CONSTRUCTION_NAMES)
    runs = [(name, ()) for name in CONSTRUCTION_NAMES]
    runs += [("thm_wc", (m,)) for m in (0, 1, 2)]
    for name, params in runs:
        for N in (3, 4):
            report = verify_construction(build_truncation(name, params, N))
            got = [(i["identity"], i["instances"]) for i in report["identities"]]
            assert got == PINNED_IDENTITIES[name][N], (name, params, N)


def test_local_eval_probe_f0():
    F0 = catalog("F", 0)
    A = Groupoid.from_algebra(F0)
    rep = local_eval_probe(F0, A, 3)
    assert rep["hom_count"] == 15
    assert rep["evaluation_count"] == 4
    assert rep["k_local_non_eval"] == 0
    assert rep["letter_range_non_eval"] == 0
    assert rep["neither_count"] == rep["total_maps"] - rep["k_local_count"]


def test_local_eval_probe_k1_counts():
    F0 = catalog("F", 0)
    A = Groupoid.from_algebra(F0)
    rep = local_eval_probe(F0, A, 1)
    assert rep["k_local_count"] == rep["one_local_count"]
    assert rep["k_local_non_eval"] > 0  # non-evaluation 1-local maps exist


def test_local_eval_probe_n0_square():
    N0 = catalog("N", 0)
    q, r, a = (N0.element_by_name(x) for x in "qra")
    elems = generate_subuniverse(N0, 2, [(q, q), (q, r), (a, a)])
    assert len(elems) == 6
    A = Groupoid.from_power(N0, elems)
    rep = local_eval_probe(N0, A, 3)
    assert rep["letter_range_non_eval"] == 0
    # every evaluation is k-local for every k
    assert rep["k_local_count"] >= rep["evaluation_count"]


def test_local_eval_probe_caps_homs_and_work(monkeypatch):
    B = catalog("B")        # 1,282 endomorphisms
    with pytest.raises(CapExceeded):
        local_eval_probe(B, Groupoid.from_algebra(B), 2)
    with pytest.raises(BadParams):
        local_eval_probe(B, Groupoid.from_algebra(B), 0)
    F0 = catalog("F", 0)
    monkeypatch.setattr(operations, "PROBE_WORK_CAP", 100)
    with pytest.raises(CapExceeded):
        local_eval_probe(F0, Groupoid.from_algebra(F0), 3)
