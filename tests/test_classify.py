import importlib
import itertools
import json
import random

import pytest

from autodual.algebras import AutomaticAlgebra, catalog, random_algebra, standard_catalog
from autodual.classify import (RULE_ORDER, classify, gen_chain,
                               normalize_algebra, verify_certificate)
from autodual.errors import CapExceeded, InternalInconsistency
from autodual.structure import (letter_affine_analysis, nondcomm_check,
                                rankill_check, whiskery_check)
from autodual.terms import order_sensitivity


def test_normalize_drops_undefined_letter():
    M = AutomaticAlgebra.build("qr", "ab", [("q", "a", "r")])
    N, steps = normalize_algebra(M)
    kinds = [s["kind"] for s in steps]
    assert "drop_undefined_letter" in kinds
    step = steps[kinds.index("drop_undefined_letter")]
    assert step["removed"] == "b"
    assert step["embedding"]["b"] == ["0", "q"]


def test_normalize_drops_repeated_letter():
    M = AutomaticAlgebra.build(
        "qr", ["b", "c"], [("q", "b", "r"), ("q", "c", "r")])
    N, steps = normalize_algebra(M)
    assert steps[0]["kind"] == "drop_repeated_letter"
    assert steps[0]["removed"] == "c"
    assert steps[0]["embedding"]["c"] == ["b", "b"]
    assert N.letter_names == ("b",)


def test_normalize_drops_isolated_and_redundant():
    M = AutomaticAlgebra.build(
        ["q", "r", "s"], ["a"], [("q", "a", "r"), ("r", "a", "r")])
    N, steps = normalize_algebra(M)
    assert any(s["kind"] == "drop_isolated_state" and s["removed"] == "s"
               for s in steps)
    red = AutomaticAlgebra.build(
        ["q", "r"], ["a"], [("q", "a", "r"), ("r", "a", "r")])
    # q is not redundant here (q not in any ran, but qa = ra makes it so)
    N, steps = normalize_algebra(red)
    assert steps and steps[0]["kind"] == "drop_redundant_state"
    assert steps[0]["removed"] == "q"
    assert N.state_names == ("r",)


def test_normalize_already_normal():
    for name in ("B", "L", "L3star"):
        M = catalog(name)
        N, steps = normalize_algebra(M)
        assert steps == [] and N == M


def test_trace_follows_rule_order():
    v = classify(catalog("L"))
    rules = [e["rule"] for e in v.trace]
    normalized = [r for r in rules if r != "zero_semigroup" or rules.count(r) == 1]
    positions = [RULE_ORDER.index(r) for r in rules]
    assert positions == sorted(positions)
    assert v.outcome == "unknown"
    assert rules[-1] == "unknown"
    assert len(rules) == len(RULE_ORDER)


def test_verdict_json_roundtrip():
    v = classify(catalog("B"))
    data = json.loads(json.dumps(v.to_json()))
    assert list(data) == ["verdict", "rule", "certificate", "trace"]
    assert (data["verdict"], data["rule"]) == (v.outcome, v.rule)
    assert data["certificate"] == v.certificate and data["trace"] == v.trace
    assert verify_certificate(catalog("B"), data) == (True, "")


def test_two_state_rule_cross_asserts():
    N4 = catalog("N", 4)
    v = classify(N4)
    assert v.rule == "two_state" and v.outcome == "non_dualizable"
    assert v.certificate["kind"] == "two_state_forbidden"
    assert v.certificate["which"] == "N4"


def test_constant_letters_rule():
    M = AutomaticAlgebra.build(
        ["q", "r", "s"], ["a", "b", "c"],
        [(x, "a", "q") for x in "qrs"] + [(x, "b", "r") for x in "qrs"]
        + [(x, "c", "s") for x in "qrs"])
    v = classify(M)
    assert v.outcome == "dualizable" and v.rule == "constant_letters"
    assert v.certificate["values"] == {"a": "q", "b": "r", "c": "s"}
    assert verify_certificate(M, v)[0]


def test_all_loops_rule_and_chain_certificate():
    M = AutomaticAlgebra.build(
        ["q", "r", "s"], ["a", "b"],
        [("q", "a", "q"), ("r", "a", "r"), ("s", "a", "s"), ("q", "b", "q")])
    v = classify(M)
    assert v.outcome == "dualizable" and v.rule == "all_loops"
    cert = v.certificate
    assert cert["kind"] == "all_loops" and len(cert["components"]) == 3
    ok, reason = verify_certificate(M, v)
    assert ok, reason


def test_gen_chain_structure():
    M1 = gen_chain(1)
    assert M1 == catalog("C", 3)
    M2 = gen_chain(2)
    assert M2.letter_names == ("b", "c", "g1")
    assert M2.n_states == 3
    M3 = gen_chain(3)
    assert M3.n_states == 10  # p = 7 is the least prime above |Sigma_2|+3 = 6
    assert M3.letter_names == ("b", "c", "g1", "b_3", "c_3")
    M4 = gen_chain(4)
    assert M4.n_states == 10 and M4.n_letters == 21


def test_gen_chain_caps_stages_past_7_before_building(monkeypatch):
    module = importlib.import_module("autodual.classify")

    def build_nothing(*args):
        raise AssertionError("no chain stage may be built past the cap")

    monkeypatch.setattr(module, "catalog", build_nothing)
    for n in (module.CHAIN_CAP + 1, 10 ** 9):
        with pytest.raises(CapExceeded):
            gen_chain(n)
    with pytest.raises(AssertionError):     # stage 7 is within the cap
        gen_chain(module.CHAIN_CAP)


def test_chain_alternation():
    expected = ["non_dualizable", "dualizable", "non_dualizable", "dualizable"]
    for n, want in enumerate(expected, 1):
        assert classify(gen_chain(n)).outcome == want


def test_whiskery_refutations_past_the_hom_cap():
    # F_m has m + 4 elements and m runs to |Q| - 2, past the default hom cap
    # of 64; letter b is a 10-cycle on each block of ten states
    states = [f"q{i}" for i in range(70)]
    M = AutomaticAlgebra(states, ["a", "b"],
                         {**{(i, 0): i for i in range(70)},
                          **{(i, 1): i - i % 10 + (i + 1) % 10 for i in range(70)}})
    v = classify(M)
    assert (v.outcome, v.rule) == ("non_dualizable", "commuting_permutations")
    assert verify_certificate(M, v) == (True, "")


def test_reduction_chain_certificate_verifies():
    M = AutomaticAlgebra.build("qr", "ab", [("q", "a", "r")])
    v = classify(M)
    assert v.certificate["kind"] == "reduction_chain"
    ok, reason = verify_certificate(M, v)
    assert ok, reason
    # the wrapped inner certificate names the normalized algebra's elements
    assert v.certificate["inner"]["kind"] == "whiskery_failure"


def test_order_sensitivity_rule_is_strictly_stronger_than_rankill():
    # kill-order sensitivity can fire where range/kill reachability cannot:
    # here q kills b but is a-absorbing, so no path leaves ks b and none
    # enters it from ran b, yet r·ab = 0 != s = r·ba
    M = AutomaticAlgebra.build(
        ["q", "r", "s"], ["a", "b"],
        [("q", "a", "q"), ("r", "a", "q"), ("r", "b", "s"),
         ("s", "a", "s"), ("s", "b", "s")])
    assert normalize_algebra(M)[1] == []
    assert whiskery_check(M) is None
    assert rankill_check(M) is None
    v = classify(M)
    assert v.outcome == "non_dualizable" and v.rule == "order_sensitivity"
    cert = v.certificate
    assert cert["state"] == "r"
    assert sorted(cert["w1"]) == sorted(cert["w2"])
    ok, reason = verify_certificate(M, v)
    assert ok, reason


def test_unknown_is_honest_for_L():
    L = catalog("L")
    v = classify(L)
    assert v.outcome == "unknown" and v.certificate is None
    ok, reason = verify_certificate(L, v)
    assert ok, reason


def test_verify_rejects_cross_algebra_certificates():
    B, R = catalog("B"), catalog("R")
    vb = classify(B)
    ok, _ = verify_certificate(R, vb)
    assert not ok


def test_rule_mutual_exclusion_on_randoms():
    rng = random.Random(4242)
    for _ in range(250):
        M = random_algebra(rng, 4, 3)
        N, _ = normalize_algebra(M)
        if N.n_states == 0 or N.n_letters == 0:
            continue
        nd_fires = (whiskery_check(N) is not None
                    or rankill_check(N) is not None
                    or order_sensitivity(N) is not None
                    or nondcomm_check(N) is not None)
        d_fires = ((N.n_letters == 1 and whiskery_check(N) is None)
                   or letter_affine_analysis(N).affine
                   or all(t == s for (s, _), t in N.delta.items()))
        if N.n_states == 2:
            v = classify(N)
            d_fires = d_fires or v.outcome == "dualizable"
        assert not (nd_fires and d_fires), M.table_key()


def test_classify_normalize_stability():
    rng = random.Random(60)
    for _ in range(150):
        M = random_algebra(rng, 4, 3)
        N, _ = normalize_algebra(M)
        assert classify(M).outcome == classify(N).outcome


def test_verifier_bounds_whiskery_m_before_building_F_m(monkeypatch):
    B = catalog("B")
    good = classify(B).to_json()
    calls = []

    def spy(*args):
        calls.append(args)
        raise AssertionError("catalog must not be called for an out-of-range m")

    # the package re-exports the function `classify`, so fetch the module itself
    monkeypatch.setattr(importlib.import_module("autodual.classify"), "catalog", spy)
    for m in (10 ** 9, B.n_states, -1, "0", 0.0):
        verdict = json.loads(json.dumps(good))
        verdict["certificate"]["m"] = m
        ok, reason = verify_certificate(B, verdict)
        assert not ok and "m" in reason
    assert calls == []


def test_verifier_bounds_letter_affine_table_before_building_group(monkeypatch):
    M = gen_chain(2)            # letter-affine on one 3-state component
    good = classify(M).to_json()
    assert good["certificate"]["kind"] == "letter_affine"
    module = importlib.import_module("autodual.classify")
    real, sizes = module.AbelianGroup, []

    def spy(table, *args, **kw):
        sizes.append((len(table), {len(row) for row in table}))
        return real(table, *args, **kw)

    monkeypatch.setattr(module, "AbelianGroup", spy)
    assert verify_certificate(M, good) == (True, "")
    assert sizes == [(3, {3})]
    names = good["certificate"]["components"][0]["states"]
    big = [[names[(i + j) % 3] for j in range(300)] for i in range(300)]
    for op in (big, big[:3], [row[:3] for row in big], big[:2] + [big[0][:3]]):
        verdict = json.loads(json.dumps(good))
        verdict["certificate"]["components"][0]["op"] = op
        ok, reason = verify_certificate(M, verdict)
        assert not ok and "|C|" in reason
    assert sizes == [(3, {3})]


def test_verifier_lets_faults_and_cap_hits_through(monkeypatch):
    # a fault (exit 4) or a cap hit (exit 3) inside a verifier is not an
    # invalid certificate (exit 1)
    B = catalog("B")
    unknown = {"verdict": "unknown", "rule": "unknown", "certificate": None,
               "trace": []}
    module = importlib.import_module("autodual.classify")
    for error in (InternalInconsistency, CapExceeded):
        def fail(*args):
            raise error("raised inside the verifier")

        monkeypatch.setattr(module, "whiskery_check", fail)
        with pytest.raises(error):
            verify_certificate(B, unknown)
    monkeypatch.undo()
    assert verify_certificate(B, unknown) == (False, "rule whiskery decides")
    ok, reason = verify_certificate(B, {"verdict": "non_dualizable",
                                        "certificate": {"kind": "rankill"}})
    assert not ok and reason.startswith("verification error")


def _every_algebra(n_states, n_letters):
    """Every algebra of this shape: each (state, letter) pair, states outer,
    goes to a target in 0..n_states, where n_states means undefined."""
    states = [f"q{i}" for i in range(n_states)]
    letters = [f"a{j}" for j in range(n_letters)]
    pairs = [(i, j) for i in range(n_states) for j in range(n_letters)]
    for targets in itertools.product(range(n_states + 1), repeat=len(pairs)):
        yield AutomaticAlgebra(states, letters, {p: t for p, t in zip(pairs, targets)
                                                 if t < n_states})


def test_unknown_verifier_agrees_with_classify():
    algebras = [M for nq in range(3) for ns in range(3) for M in _every_algebra(nq, ns)]
    algebras += list(_every_algebra(3, 1))
    algebras += list(itertools.islice(_every_algebra(3, 2), 0, None, 5))
    algebras += [M for _, M in standard_catalog()]
    algebras.append(AutomaticAlgebra.build(
        ["q", "r", "s"], ["a", "b", "c"],
        [(x, "a", "q") for x in "qrs"] + [(x, "b", "r") for x in "qrs"]
        + [(x, "c", "s") for x in "qrs"]))
    reached = set()
    for M in algebras:
        v = classify(M)
        reached.add(v.rule)
        claims_unknown = verify_certificate(M, {"verdict": "unknown"})[0]
        assert claims_unknown == (v.outcome == "unknown"), (M.table_key(), v.rule)
        if v.outcome != "unknown":
            ok, reason = verify_certificate(M, v)
            assert ok, (M.table_key(), v.rule, reason)
    assert reached == set(RULE_ORDER) - {"normalize"}
