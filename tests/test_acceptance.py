"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` (or `-s` to see the lines).
Everything here is exact -- no tolerances; randomized suites are seeded.
"""

import json
import random
from itertools import product as iproduct

import pytest

from autodual.abgroups import AbelianGroup
from autodual.algebras import ZERO, AutomaticAlgebra, catalog, random_algebra
from autodual.classify import (EQ_WXYZ_WYXZ, EQ_XY_XYYY, classify, gen_chain,
                               verify_certificate)
from autodual.errors import HypothesisFailed
from autodual.operations import (MatrixZm, abelian_group_isomorphism_types, all_endomorphisms,
                                 find_zero_column, huc_character, is_compatible,
                                 local_eval_probe, op_chain_meet, op_diamond, op_g_uv, op_h,
                                 op_join, op_lambda, op_pbar, op_psi, op_quasi_meet)
from autodual.powers import Groupoid, find_embedding, generate_subuniverse
from autodual.structure import (_whiskery_direct, component_group, components,
                                least_tail_embedding)
from autodual.terms import (WHISKERY_QUASI, check_identity,
                            check_quasi_identity, order_sensitivity)
from autodual.witness import build_truncation, kernel_block_analysis, verify_construction
from test_classify import fresh_copy
from test_terms import order_sensitivity_brute


def report(num, text):
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


def _display_algebras():
    t1 = AutomaticAlgebra.build("qr", "a", [("q", "a", "r"), ("r", "a", "q")])
    t2 = AutomaticAlgebra.build("qr", "ab",
                                [("q", "a", "r"), ("r", "a", "q"),
                                 ("q", "b", "q"), ("r", "b", "r")])
    d1 = AutomaticAlgebra.build("qr", "a", [("q", "a", "q"), ("r", "a", "q")])
    d2 = AutomaticAlgebra.build("qr", "ab",
                                [("q", "a", "q"), ("r", "a", "q"),
                                 ("q", "b", "r"), ("r", "b", "r")])
    d3 = AutomaticAlgebra.build("qr", "ab",
                                [("q", "a", "q"), ("r", "a", "q"),
                                 ("q", "b", "q"), ("r", "b", "r")])
    return [("transposition", t1), ("transposition+id", t2),
            ("constant", d1), ("two constants", d2), ("constant+id", d3)]


def _c3_plus_identity():
    return AutomaticAlgebra.build(
        ["1", "2", "3"], ["b", "c", "d"],
        [("1", "b", "2"), ("2", "b", "3"), ("3", "b", "1"),
         ("1", "c", "3"), ("3", "c", "2"), ("2", "c", "1"),
         ("1", "d", "1"), ("2", "d", "2"), ("3", "d", "3")])


GOLDEN_ND = [("B", catalog("B"), "whiskery"),
             ("R", catalog("R"), "whiskery"),
             ("L3star", catalog("L3star"), "rankill"),
             ("F0", catalog("F", 0), "whiskery"),
             ("F1", catalog("F", 1), "whiskery"),
             ("F2", catalog("F", 2), "whiskery"),
             ("C3", catalog("C", 3), "commuting_permutations")] + \
            [(f"N{k}", catalog("N", k), None) for k in range(6)]


def test_criterion_01_golden_verdicts():
    for name, M, rule in GOLDEN_ND:
        v = classify(M)
        assert v.outcome == "non_dualizable", name
        if rule is not None:
            assert v.rule == rule, (name, v.rule)
    v = classify(catalog("L3star"))
    assert v.certificate["case"] == 2 and v.certificate["state"] == "s"
    for name, M in [("C3+id", _c3_plus_identity())] + _display_algebras():
        v = classify(M)
        assert v.outcome == "dualizable", (name, v.rule)
    vL = classify(catalog("L"))
    assert vL.outcome == "unknown"
    assert [e["rule"] for e in vL.trace].count("unknown") == 1
    assert all(not e["fired"] for e in vL.trace[:-1])
    # the bespoke construction for L is verified separately at truncation scale
    rep = verify_construction(build_truncation("ex_all4_L", (), 4))
    assert all(i["pass"] for i in rep["identities"]) and not rep["g_in_A"]
    report(1, "golden verdicts for the catalog, displays, and honest unknown L")


def test_criterion_02_chain_alternation():
    want = ["non_dualizable", "dualizable", "non_dualizable", "dualizable",
            "non_dualizable"]
    for n, expect in enumerate(want, 1):
        assert classify(gen_chain(n)).outcome == expect, n
    M3 = gen_chain(3)
    assert M3.n_states == 10 and "b_3" in M3.letter_names  # p = 7 adjoined
    report(2, "chain verdicts alternate ND, D, ND, D, ND with p = 7 at stage 3")


def test_criterion_03_two_state_exhaustive():
    n_algs = [Groupoid.from_algebra(catalog("N", i)) for i in range(6)]
    total = 0
    for nl in (1, 2):
        letters = ["a", "b"][:nl]
        for images in iproduct(range(3), repeat=2 * nl):
            delta = {}
            for j in range(nl):
                for i in range(2):
                    if images[j * 2 + i] < 2:
                        delta[(i, j)] = images[j * 2 + i]
            M = AutomaticAlgebra(["q", "r"], letters, delta)
            eqs = (check_identity(M, *EQ_XY_XYYY) is None
                   and check_identity(M, *EQ_WXYZ_WYXZ) is None)
            embeds = any(find_embedding(A, M) is not None for A in n_algs)
            assert eqs == (not embeds), M.table_key()
            v = classify(M)
            assert v.outcome != "unknown"
            assert (v.outcome == "dualizable") == eqs
            total += 1
    assert total == 90
    report(3, f"two-state theorem exact on all {total} algebras, no unknowns")


def test_criterion_04_whiskery_three_ways():
    rng = random.Random(20260808)
    for i in range(500):
        M = random_algebra(rng, 4, 3)
        direct = _whiskery_direct(M) is None
        quasi = check_quasi_identity(M, WHISKERY_QUASI) is None
        embed = least_tail_embedding(M) is None
        assert direct == quasi == embed, (i, M.table_key())
    report(4, "whiskery three-way agreement on 500 seeded random algebras")


def test_criterion_05_order_sensitivity_exact():
    from autodual.algebras import standard_catalog
    for name, M in standard_catalog():
        assert (order_sensitivity(M) is not None) == \
            order_sensitivity_brute(M, 6), name
    rng = random.Random(31337)
    for i in range(200):
        M = random_algebra(rng, 3, 2)
        assert (order_sensitivity(M) is not None) == \
            order_sensitivity_brute(M, 6), i
    report(5, "product-automaton decision matches brute force to length 6")


def test_criterion_06_compatible_operation_soundness():
    from autodual.algebras import standard_catalog
    sample = standard_catalog() + [("chain1", gen_chain(1)), ("chain2", gen_chain(2))]
    checked = 0
    for name, M in sample:
        for u in M.elements():
            for v in M.elements():
                if M.is_letter(u) or M.is_letter(v):
                    assert is_compatible(M, op_g_uv(M, u, v).graph()), (name, u, v)
                    checked += 1
        assert is_compatible(M, op_join(M).graph()), name
        if M.is_total():
            assert is_compatible(M, op_quasi_meet(M).graph()), name
        profile_ok = True
        try:
            for g in M.states():
                assert is_compatible(M, op_lambda(M, g).graph()), name
            assert is_compatible(M, op_diamond(M).graph()), name
        except Exception:
            profile_ok = False  # not permutational/commuting: precondition unmet
        from autodual.structure import letter_affine_analysis
        if letter_affine_analysis(M).affine and M.n_states:
            assert is_compatible(M, op_pbar(M, 0).graph()), name
            data = component_group(M, components(M)[0])
            G, H = data.group, data.subgroup_H
            a_i = data.letter_images[min(data.letter_images)]
            u_i = G.power(a_i, G.n // len(H))
            for endo in all_endomorphisms(G):
                restricted = {h: endo[h] for h in H}
                if all(restricted[h] in H for h in H) and restricted.get(u_i) == u_i:
                    assert is_compatible(M, op_psi(M, restricted, 0).graph()), name
    # the constant-letter meet and h need the displayed normalized setting
    d2 = _display_algebras()[3][1]
    assert is_compatible(d2, op_chain_meet(d2).graph())
    for i in range(2):
        assert is_compatible(d2, op_h(d2, i).graph())
    big = AutomaticAlgebra.build(
        ["q1", "q2", "q3"], ["a1", "a2", "a3"],
        [(s, f"a{i}", f"q{i}") for s in ("q1", "q2", "q3") for i in (1, 2, 3)])
    assert is_compatible(big, op_chain_meet(big).graph())
    for i in range(3):
        assert is_compatible(big, op_h(big, i).graph())
    report(6, f"compatible-operation graphs all pass is_compatible "
              f"({checked} g_uv instances among them)")


def test_criterion_07_group_construction():
    rng = random.Random(56)
    for trial in range(100):
        n = rng.randint(1, 5)
        if n == 4 and rng.random() < 0.5:
            G = AbelianGroup.of_orders(2, 2)
        else:
            G = AbelianGroup.cyclic(n)
        while True:
            k = rng.randint(1, 3)
            gens = [rng.randrange(G.n) for _ in range(k)]
            if len(G.subgroup_generated(gens)) == G.n:
                break
        M = AutomaticAlgebra(
            [f"q{i}" for i in range(G.n)], [f"a{j}" for j in range(len(gens))],
            {(i, j): G.op(i, g) for i in range(G.n) for j, g in enumerate(gens)})
        comps = components(M)
        assert comps == [list(range(G.n))]
        data = component_group(M, comps[0])
        for s in range(G.n):
            for j in range(M.n_letters):
                got = M.mul(M.state(s), M.letter(j))
                want = data.op_states(s, data.state_of_group_index(
                    data.letter_images[j]))
                assert got == M.state(want)
        rows = {tuple(data.group.op(q, g) for q in range(data.group.n))
                for g in range(data.group.n)}
        assert len(rows) == data.group.n  # the action is regular
    report(7, "group law q.a = q * a_img and regularity on 100 seeded actions")


def test_criterion_08_character_construction():
    cases = 0
    for name, H in abelian_group_isomorphism_types(12):
        exp = H.exponent
        endos = all_endomorphisms(H)
        for m in (exp, 2 * exp):
            for u in H.elements():
                witness = huc_character(H, m, u)  # self-verifies on build
                for h in H.elements():
                    if h == H.identity:
                        continue
                    assert any(e[u] == u and witness.chi[e[h]] % m != 0
                               for e in endos), (name, m, u, h)
                cases += 1
    report(8, f"character construction verified against the oracle "
              f"({cases} (group, u, m) cases, zero failures)")


def test_criterion_09_zero_column_exhaustive():
    passing = 0
    for m in (2, 3):
        for j in range(1, 4):
            for k in range(1, 4):
                for flat in iproduct(range(m), repeat=j * k):
                    rows = tuple(tuple(flat[r * k:(r + 1) * k]) for r in range(j))
                    try:
                        col = find_zero_column(MatrixZm(m, rows))
                    except HypothesisFailed:
                        continue
                    assert all(row[col] == 0 for row in rows)
                    passing += 1
    report(9, f"every hypothesis-passing Z_2/Z_3 matrix (j,k <= 3) has a "
              f"zero column ({passing} matrices)")


WITNESS_LIST = [("thm_wc", (0,)), ("thm_wc", (1,)), ("ex_all4_L", ()),
                ("lem_2state2_N4", ()), ("lem_2state3_N5", ()),
                ("thm_nondcomm", ())]


def test_criterion_10_witness_truncations():
    for name, params in WITNESS_LIST:
        for N in (4, 6):
            rep = verify_construction(build_truncation(name, params, N))
            assert all(i["pass"] for i in rep["identities"]), (name, N)
            assert not rep["g_in_A"], (name, N)
        kr = kernel_block_analysis(build_truncation(name, params, 4),
                                   max_elements=512)
        assert not kr.violations, (name, kr.violations)
    report(10, "all displayed identities hold and g stays outside A at "
               "N in {4, 6}; kernels have at most one big block at N = 4")


def _mutations():
    b = catalog("B")
    r = catalog("R")
    l3 = catalog("L3star")
    n1 = catalog("N", 1)
    n4 = catalog("N", 4)
    n5 = catalog("N", 5)
    c3 = catalog("C", 3)
    c3id = _c3_plus_identity()
    loops = AutomaticAlgebra.build(
        ["q", "r", "s"], ["a", "b"],
        [("q", "a", "q"), ("r", "a", "r"), ("s", "a", "s"), ("q", "b", "q")])
    const3 = AutomaticAlgebra.build(
        ["q", "r", "s"], ["a", "b", "c"],
        [(x, "a", "q") for x in "qrs"] + [(x, "b", "r") for x in "qrs"]
        + [(x, "c", "s") for x in "qrs"])
    cycle3 = AutomaticAlgebra.build(
        ["1", "2", "3"], ["a"],
        [("1", "a", "2"), ("2", "a", "3"), ("3", "a", "1")])

    def set_field(path, value):
        def apply(cert):
            node = cert
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        return apply

    def swap_embedding(key1, key2, path=()):
        def apply(cert):
            node = cert
            for key in path:
                node = node[key]
            emb = node["embedding"]
            emb[key1], emb[key2] = emb[key2], emb[key1]
        return apply

    def set_embedding(key, value):
        def apply(cert):
            cert["embedding"][key] = value
        return apply

    def on_reduction_chain(mutate):
        # applied to the whole reduction_chain certificate, not its inner one
        mutate.whole_certificate = True
        return mutate

    undefined_b = AutomaticAlgebra.build("qr", "ab", [("q", "a", "r")])

    out = []
    out.append((b, b, set_field(["letter"], "b")))
    out.append((b, b, set_field(["state"], "r")))
    out.append((b, b, swap_embedding("q", "r")))
    out.append((b, b, set_field(["m"], 1)))
    out.append((r, r, set_field(["state"], "q")))
    out.append((l3, l3, set_field(["case"], 1)))
    out.append((l3, l3, set_field(["word"], ["a"])))
    out.append((l3, l3, set_field(["letter"], "a")))
    out.append((l3, l3, set_field(["state"], "q")))
    out.append((n1, n1, set_field(["case"], 2)))
    out.append((n1, n1, set_field(["word"], [])))
    out.append((n4, n4, set_field(["which"], "N3")))
    out.append((n4, n4, swap_embedding("q", "r")))
    out.append((n5, n5, set_field(["which"], "N0")))
    out.append((c3, c3, set_field(["m"], 6)))
    out.append((c3, c3, set_field(["b"], "c")))
    out.append((c3id, c3id, set_field(["components", 0, "H"], ["1", "2"])))
    out.append((c3id, c3id,
                set_field(["components", 0, "letter_images", "d"], "2")))
    out.append((c3id, c3id, set_field(["components", 0, "e"], "2")))
    out.append((loops, loops,
                set_field(["components", 0, "states"], ["q", "r"])))
    out.append((const3, const3, set_field(["values", "a"], "r")))
    out.append((const3, b, None))       # certificate replayed on the wrong algebra
    out.append((cycle3, catalog("F", 0), None))
    # every certificate path through check_embedding
    out.append((undefined_b, undefined_b,
                on_reduction_chain(swap_embedding("q", "r", ["steps", 0]))))
    out.append((undefined_b, undefined_b, on_reduction_chain(
        set_field(["steps", 0, "embedding", "s9"], ["0", "0"]))))
    out.append((loops, loops, swap_embedding("r", "a", ["components", 1, "steps", 0])))
    out.append((loops, loops, swap_embedding("q", "r", ["split"])))
    out.append((n4, n4, set_embedding("r", "q")))       # not injective
    out.append((b, b, set_embedding("s9", "0")))        # extra key
    return out


def test_criterion_11_certificate_audit():
    golden = [M for _, M, _ in GOLDEN_ND]
    golden += [M for _, M in _display_algebras()]
    golden += [_c3_plus_identity(), catalog("L"), gen_chain(2), gen_chain(3),
               gen_chain(4)]
    for M in golden:
        v = classify(M)
        ok, reason = verify_certificate(M, v)
        assert ok, (v.rule, reason)
    # each mutation is verified against a copy of its target that classify
    # never touched, so the verifier builds the groups it reads itself
    rejected = 0
    for source, target, mutate in _mutations():
        verdict = classify(source).to_json()
        verdict = json.loads(json.dumps(verdict))
        if mutate is not None:
            cert = verdict["certificate"]
            if cert.get("kind") == "reduction_chain" and \
                    not getattr(mutate, "whole_certificate", False):
                cert = cert["inner"]
            mutate(cert)
        ok, _ = verify_certificate(fresh_copy(target), verdict)
        assert not ok, (verdict["rule"], verdict["certificate"])
        rejected += 1
    assert rejected >= 20
    report(11, f"all emitted certificates re-verify; {rejected} mutations rejected")


def test_criterion_12_local_evaluations():
    F0 = catalog("F", 0)
    rep = local_eval_probe(F0, Groupoid.from_algebra(F0), 3)
    assert rep["letter_range_non_eval"] == 0
    N0 = catalog("N", 0)
    q, r, a = (N0.element_by_name(x) for x in "qra")
    elems = generate_subuniverse(N0, 2, [(q, q), (q, r), (a, a)])
    assert len(elems) <= 6
    rep = local_eval_probe(N0, Groupoid.from_power(N0, elems), 3)
    assert rep["letter_range_non_eval"] == 0
    report(12, "every 3-local evaluation with a letter in range is an "
               "evaluation on both desk instances")
