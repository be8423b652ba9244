import functools
import hashlib
import importlib
import itertools
import json
import operator
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autodual.algebras import AutomaticAlgebra, catalog, random_algebra, standard_catalog
from autodual.classify import (_REDUCTIONS, RULE_ORDER, _all_loops, _detect_all_loops,
                               _forbidden_two_state, _names, check_embedding, classify,
                               gen_chain, normalize_algebra, verify_certificate)
from autodual.errors import CapExceeded, InternalInconsistency, ToolError, UnknownName
from autodual.structure import (Reduction, components, least_tail_embedding,
                                letter_affine_analysis, nondcomm_check, rankill_check,
                                whiskery_check)
from autodual.terms import order_sensitivity
from small_algebras import every_algebra


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


def reduction_image_by_index(M, kind, k):
    """Where the reduction sends k, one letter or state at a time, or None."""
    actions = [M.action(j) for j in range(M.n_letters)]
    if kind == "drop_undefined_letter":
        return ["0", M.state_names[0]] if M.n_states > 0 and not M.dom(k) else None
    if kind == "drop_repeated_letter":
        return next(([M.letter_names[j1]] * 2 for j1 in range(k)
                     if actions[j1] == actions[k]), None)
    if any(k in act for act in actions):
        return None
    if kind == "drop_isolated_state":
        return (["0", M.letter_names[0]]
                if actions and all(act[k] is None for act in actions) else None)
    return next(([M.state_names[r]] * 2 for r in range(M.n_states)
                 if r != k and all(act[k] == act[r] for act in actions)), None)


def few_target_algebras(rng, count, max_states):
    """Seeded algebras whose targets come from at most two states, so
    letters repeat, and states go unreached, as often as not."""
    for _ in range(count):
        nq, ns = rng.randint(1, max_states), rng.randint(0, 4)
        pool = rng.sample(range(nq), min(nq, 2)) + [None]
        yield AutomaticAlgebra([f"q{i}" for i in range(nq)], [f"a{j}" for j in range(ns)],
                               {(i, j): t for i in range(nq) for j in range(ns)
                                if (t := rng.choice(pool)) is not None})


def normalization_inputs():
    """Every algebra with at most three states and two letters, chains 1-4,
    and seeded random algebras of up to 12 states."""
    rng = random.Random(41)
    algebras = [M for nq in range(4) for ns in range(3) for M in every_algebra(nq, ns)]
    algebras += [gen_chain(n) for n in range(1, 5)]
    algebras += few_target_algebras(rng, 300, 12)
    algebras += [random_algebra(rng, 12, 4) for _ in range(100)]
    return algebras


def test_reduction_images_match_the_per_index_scans():
    applied = set()
    for M in normalization_inputs():
        red = Reduction(M)
        for kind in _REDUCTIONS:
            n = M.n_letters if kind.endswith("letter") else M.n_states
            want = [reduction_image_by_index(M, kind, k) for k in range(n)]
            assert [red.image(kind, k) for k in range(n)] == want, (M.table_key(), kind)
            if any(want):
                applied.add(kind)
    assert applied == set(_REDUCTIONS)


def reference_steps(M):
    """(reduced algebra, steps) by taking, on the algebra at hand, the least k
    of the first reduction in `_REDUCTIONS` order that applies, found one
    index at a time, and dropping it."""
    steps = []
    while True:
        found = next(((kind, k, image) for kind in _REDUCTIONS
                      for k in range(M.n_letters if kind.endswith("letter") else M.n_states)
                      if (image := reduction_image_by_index(M, kind, k)) is not None), None)
        if found is None:
            return M, steps
        kind, k, image = found
        if kind.endswith("letter"):
            N, removed = M.drop_letter(k), M.letter_names[k]
        else:
            N, removed = M.drop_state(k), M.state_names[k]
        emb = {x: [x, "0"] for x in _names(N)}
        emb[removed] = image
        steps.append({"kind": kind, "removed": removed, "embedding": emb})
        M = N


def normalization_walk(M):
    """(A, N, step) for each step of `normalize_algebra(M)`: the algebra
    before the step and after it."""
    for step in normalize_algebra(M)[1]:
        removed = step["removed"]
        N = (M.drop_letter(M.letter_names.index(removed)) if removed in M.letter_names
             else M.drop_state(M.state_names.index(removed)))
        yield M, N, step
        M = N


def test_normalization_steps_match_the_reference_and_embed():
    # the per-index reference fixes the step list, dict order included, and
    # the generic check accepts each step's embedding into N × N
    kinds = set()
    for M in normalization_inputs():
        N, steps = normalize_algebra(M)
        want_N, want = reference_steps(M)
        assert json.dumps(steps) == json.dumps(want), M.table_key()
        assert N == want_N and (N is M) == (not steps)
        for A, B, step in normalization_walk(M):
            assert check_embedding(A, [B, B], step["embedding"]) is None, (M.emit(), step)
            kinds.add(step["kind"])
    assert kinds == set(_REDUCTIONS)


def identical_letters_on_a_cycle(n: int) -> AutomaticAlgebra:
    """n letters a0..a{n-1}, each acting as q_i -> q_{i+1} on the n-cycle
    q0..q{n-1}: normalization drops n - 1 repeated letters."""
    return AutomaticAlgebra([f"q{i}" for i in range(n)], [f"a{j}" for j in range(n)],
                            {(i, j): (i + 1) % n for i in range(n) for j in range(n)})


def free_states_into_a_two_cycle(n: int) -> AutomaticAlgebra:
    """Free states p0..p{n-1} and a 2-cycle r0, r1 that letters a, b and c
    swap; a and b send each p_i to r0 and r1, and c to r_{i mod 2}, so
    normalization drops n - 2 redundant states."""
    delta = {(n + i, j): n + 1 - i for i in range(2) for j in range(3)}
    delta.update({(i, j): n + (i % 2 if j == 2 else j) for i in range(n) for j in range(3)})
    return AutomaticAlgebra([f"p{i}" for i in range(n)] + ["r0", "r1"], ["a", "b", "c"], delta)


def test_normalization_at_scale_takes_linear_time_per_step():
    # each step costs O(|M|): about 0.4 s for both on a 2-CPU machine, where
    # the cycle alone took 17 s when every step rebuilt the algebra and
    # checked its embedding generically
    for M, drops in ((identical_letters_on_a_cycle(256), 255),
                     (free_states_into_a_two_cycle(256), 254)):
        start = time.perf_counter()
        verdict = json.loads(json.dumps(classify(M).to_json()))
        assert verify_certificate(M, verdict) == (True, "")
        wall = time.perf_counter() - start
        assert len(normalize_algebra(M)[1]) == drops
        assert wall < 2, wall


def test_verifier_checks_other_step_embeddings_generically(monkeypatch):
    # a step's embedding that is the lemma's map is accepted without
    # check_embedding; another valid one (another twin of a repeated letter
    # or a redundant state, another state for an undefined letter, another
    # letter for an isolated state) is accepted through it, and one with a
    # wrong image is refused with its reason
    module = importlib.import_module("autodual.classify")
    real, calls = module.check_embedding, []

    def spy(A, targets, emb):
        if len(targets) == 2:           # a step's; the inner certificate's has one
            calls.append(emb)
        return real(A, targets, emb)

    monkeypatch.setattr(module, "check_embedding", spy)
    build = AutomaticAlgebra.build
    cases = [   # algebra, another valid image of the first step's k, a wrong one
        (build("qr", "abc", [("q", x, "r") for x in "abc"]), ["c", "c"],
         (["q", "a"], "embedding is not a homomorphism at (q, b)")),
        (build("qr", "ab", [("q", "a", "r")]), ["0", "r"],
         (["a", "q"], "embedding is not a homomorphism at (q, b)")),
        (build("qrs", "ab", [("q", "a", "r"), ("r", "a", "r"), ("r", "b", "q")]), ["0", "b"],
         (["b", "b"], "embedding is not a homomorphism at (r, s)")),
        (build(["p0", "p1", "p2", "r"], "a", [(x, "a", "r") for x in ("p0", "p1", "p2", "r")]),
         ["p2", "p2"], (["p1", "0"], "embedding is not injective")),
    ]
    for M, other, (wrong, reason) in cases:
        verdict = json.loads(json.dumps(classify(M).to_json()))
        step = verdict["certificate"]["steps"][0]
        assert verify_certificate(M, verdict) == (True, "") and calls == []
        for image, want in ((other, (True, "")), (wrong, (False, reason))):
            step["embedding"][step["removed"]] = image
            assert verify_certificate(M, verdict) == want, (M.emit(), image)
            assert len(calls) == 1 and calls.pop()[step["removed"]] == image


def check_embedding_reference(A, targets, emb):
    """`check_embedding` as an all-pairs loop: each name resolved by
    `element_by_name`, then every pair of A's elements compared in the
    canonical order."""
    names = _names(A)
    if set(emb) != set(names):
        return "embedding domain does not match the algebra's elements"
    if any(type(emb[n]) is not list or len(emb[n]) != len(targets) for n in names):
        return "embedding images are not lists of one name per target"
    try:
        vec = {A.element_by_name(n): tuple(T.element_by_name(c)
                                           for T, c in zip(targets, emb[n]))
               for n in names}
    except UnknownName as exc:
        return f"embedding names invalid: {exc}"
    if len(set(vec.values())) != len(vec):
        return "embedding is not injective"
    for x in A.elements():
        for y in A.elements():
            lhs = vec[A.mul(x, y)]
            rhs = tuple(T.mul(a, b) for T, a, b in zip(targets, vec[x], vec[y]))
            if lhs != rhs:
                return (f"embedding is not a homomorphism at "
                        f"({A.name(x)}, {A.name(y)})")
    return None


def embedding_cases(M, normal_forms):
    """(A, targets, embedding) for each normalization step of M, and, if its
    normal form N is not in the set `normal_forms` yet, for each embedding a
    certificate states on N: whiskery's F_m, the two-state rule's N_k, and
    the component split when every edge is a loop."""
    for A, N, step in normalization_walk(M):
        yield A, [N, N], step["embedding"]
    cur = normalize_algebra(M)[0]
    if cur in normal_forms:
        return
    normal_forms.add(cur)
    for name, hit in (("F", least_tail_embedding(cur)),
                      ("N", cur.n_states == 2 and _forbidden_two_state(cur))):
        if hit:
            yield catalog(name, hit[0]), [cur], {n: [c] for n, c in hit[1].items()}
    comps = components(cur)
    if len(comps) > 1 and _all_loops(cur):
        split = _detect_all_loops(cur)[0]["split"]
        yield cur, [cur.component_subalgebra(c) for c in comps], split["embedding"]


def mutated_embeddings(rng, A, targets, emb):
    """Seeded copies of emb with one fault each: an unknown name, names that
    are no strings, two elements with one image, two images swapped, one
    image coordinate redrawn, and 0 sent to a name that is not 0."""
    names = sorted(emb)

    def changed(name, k, value):
        out = {n: list(v) for n, v in emb.items()}
        out[name][k] = value
        return out

    k = rng.randrange(len(targets))
    others = _names(targets[k])
    for junk in ("nope", [others[0]], 7, None):
        yield changed(rng.choice(names), k, junk)
    if len(names) > 1:
        a, b = rng.sample(names, 2)
        yield {**emb, a: emb[b]}
        yield {**emb, a: emb[b], b: emb[a]}
    yield changed(rng.choice(names), k, rng.choice(others))
    if len(others) > 1:
        yield changed("0", k, rng.choice(others[:-1]))


def assert_embedding_checks_match(algebras, rng):
    """`check_embedding` accepts every embedding of `embedding_cases` and
    gives the reason of its all-pairs reference on each seeded mutation.
    Returns the number of embeddings and the kinds of reasons seen."""
    count, reasons, normal_forms = 0, set(), set()
    for M in algebras:
        for A, targets, emb in embedding_cases(M, normal_forms):
            assert check_embedding(A, targets, emb) is None, (M.emit(), emb)
            count += 1
            for bad in mutated_embeddings(rng, A, targets, emb):
                reason = check_embedding(A, targets, bad)
                assert reason == check_embedding_reference(A, targets, bad), (M.emit(), bad)
                reasons.add(reason and reason.split(":")[0].split(" at ")[0])
    return count, reasons


def test_check_embedding_matches_the_all_pairs_reference():
    algebras = [M for nq in range(4) for ns in range(3) for M in every_algebra(nq, ns)]
    _, reasons = assert_embedding_checks_match(
        algebras + [M for _, M in standard_catalog()], random.Random(27))
    assert reasons == {None, "embedding names invalid", "embedding is not injective",
                       "embedding is not a homomorphism"}, reasons


def test_normalize_already_normal():
    for name in ("B", "L", "L3star"):
        M = catalog(name)
        N, steps = normalize_algebra(M)
        assert steps == [] and N == M


def test_rule_order_is_the_contract():
    assert RULE_ORDER == (
        "zero_semigroup", "normalize", "whiskery", "rankill", "order_sensitivity",
        "single_letter", "two_state", "constant_letters", "all_loops", "letter_affine",
        "commuting_permutations", "unknown")


def test_trace_follows_rule_order():
    v = classify(catalog("L"))
    rules = [e["rule"] for e in v.trace]
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


def translation_action(n: int, shifts) -> AutomaticAlgebra:
    """Z_n on states q0..q{n-1}, with one letter a{k} per shift k acting as
    q_i -> q_{i+k}."""
    return AutomaticAlgebra([f"q{i}" for i in range(n)], [f"a{k}" for k in shifts],
                            {(i, j): (i + k) % n for i in range(n)
                             for j, k in enumerate(shifts)})


def test_groups_past_64_elements_are_decided():
    # the letter images {+1, +n/2 + 1} are a coset of the order-2 subgroup
    for n in (66, 128):
        M = translation_action(n, (1, n // 2 + 1))
        v = classify(M)
        assert (v.outcome, v.rule) == ("dualizable", "letter_affine"), n
        assert verify_certificate(M, json.loads(json.dumps(v.to_json()))) == (True, "")
    C67 = catalog("C", 67)
    v = classify(C67)
    assert (v.outcome, v.rule) == ("non_dualizable", "commuting_permutations")
    assert v.trace[-1]["detail"] == "pair (b, c), m = 67"
    assert verify_certificate(C67, json.loads(json.dumps(v.to_json()))) == (True, "")


def shuffled_permutations(n: int, n_letters: int, idle: bool = False) -> AutomaticAlgebra:
    """States q0..q{n-1} and letters a0.., each a permutation of the states
    shuffled by one random.Random(1), in letter order; with `idle`, one more
    state z with no transitions."""
    rng = random.Random(1)
    delta = {}
    for j in range(n_letters):
        perm = list(range(n))
        rng.shuffle(perm)
        delta.update(((i, j), p) for i, p in enumerate(perm))
    return AutomaticAlgebra([f"q{i}" for i in range(n)] + ["z"] * idle,
                            [f"a{j}" for j in range(n_letters)], delta)


@pytest.mark.parametrize("idle", [False, True])
def test_large_permutation_algebras_classify_quickly(idle):
    # order sensitivity ran one exhausting pair search per start here, 8-10 s;
    # with z the algebra is partial, so the searches share their dead pairs
    M = shuffled_permutations(64, 4, idle)
    start = time.perf_counter()
    assert order_sensitivity(M) is None
    v = classify(M)
    assert time.perf_counter() - start < 2
    assert (v.outcome, v.rule) == ("unknown", "unknown")
    assert verify_certificate(M, json.loads(json.dumps(v.to_json()))) == (True, "")


def test_a_large_partial_permutation_algebra_classifies_quickly():
    # every letter a permutation, so no letter has a tail and whiskery's F_m
    # vote runs no search; it ran 45 failing searches here, about 14 s
    M = shuffled_permutations(256, 16, idle=True)
    start = time.perf_counter()
    v = classify(M)
    mid = time.perf_counter()
    assert (v.outcome, v.rule) == ("unknown", "unknown")
    assert verify_certificate(M, json.loads(json.dumps(v.to_json()))) == (True, "")
    end = time.perf_counter()
    assert mid - start < 2 and end - mid < 2, (mid - start, end - mid)


def hostile_letter_affine_certificate(p: int):
    """`catalog C p` and a letter_affine verdict that states Z_p as its
    group: the table is a group and its law holds, but the letter images
    {+1, -1} are no coset."""
    M = catalog("C", p)
    names = list(M.state_names)
    cert = {"kind": "letter_affine", "components": [{
        "states": names, "letters": ["b", "c"], "dropped": [], "e": names[0],
        "op": [[names[(i + k) % p] for k in range(p)] for i in range(p)],
        "letter_images": {"b": names[1], "c": names[-1]},
        "H": names, "exponent": p, "decomposition": [[names[1], p]]}]}
    return M, {"verdict": "dualizable", "rule": "letter_affine",
               "certificate": cert, "trace": []}


def test_verifier_refuses_a_group_table_whose_letter_images_are_no_coset():
    M, verdict = hostile_letter_affine_certificate(101)
    assert verify_certificate(M, verdict) == (False, "letter images are not Mal'cev closed")


def all_e_letter_affine_certificate(p: int):
    """The verdict of `hostile_letter_affine_certificate` with a table whose
    every product is e: commutative and associative, and no group."""
    M, verdict = hostile_letter_affine_certificate(p)
    entry = verdict["certificate"]["components"][0]
    entry["op"] = [[entry["e"]] * p for _ in range(p)]
    return M, verdict


def test_verifier_refuses_a_constant_table_quickly():
    # Light's test chooses 0, 1 and 2; the span then grows from 2 to 3, which
    # no group allows, so the check stops there and not after every g
    M, verdict = all_e_letter_affine_certificate(257)
    start = time.perf_counter()
    result = verify_certificate(M, verdict)
    wall = time.perf_counter() - start
    assert result == (False, "stated table is not an abelian group: not a group: adding 2 "
                             "grows the span of the chosen elements from 2 to 3, less than double")
    assert wall < 0.5, wall


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

    # `autodual.classify` may be the package's function, so fetch the module itself
    monkeypatch.setattr(importlib.import_module("autodual.classify"), "catalog", spy)
    for m in (10 ** 9, B.n_states, -1, "0", 0.0):
        verdict = json.loads(json.dumps(good))
        verdict["certificate"]["m"] = m
        ok, reason = verify_certificate(B, verdict)
        assert not ok and "m" in reason
    assert calls == []


def test_classify_confirms_the_embeddings_it_builds(monkeypatch):
    # a built F_m or N_k embedding that check_embedding rejects raises, as a
    # rejected component split does; here q and r are swapped in each
    with monkeypatch.context() as patch:
        patch.setattr(importlib.import_module("autodual.structure"), "least_tail_embedding",
                      lambda M: (0, {"q": "r", "r": "q", "a": "a", "0": "0"}))
        with pytest.raises(InternalInconsistency, match="built F0 embedding invalid"):
            classify(catalog("B"))
    monkeypatch.setattr(importlib.import_module("autodual.classify"), "_forbidden_two_state",
                        lambda N: (4, {"q": "r", "r": "q", "a": "a", "b": "b", "0": "0"}))
    with pytest.raises(InternalInconsistency, match="built N4 embedding invalid"):
        classify(catalog("N", 4))


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


def test_verifier_reads_each_malformed_table_cell_as_minus_one(monkeypatch):
    # a row converts at once; one with a cell that names no state, or that is
    # no string, unhashable ones included, reads that cell as -1
    M = gen_chain(2)
    good = classify(M).to_json()
    module = importlib.import_module("autodual.classify")
    real, tables = module.AbelianGroup, []

    def spy(table, *args, **kw):
        tables.append(table)
        return real(table, *args, **kw)

    monkeypatch.setattr(module, "AbelianGroup", spy)
    for junk in JUNK + ("", ["1"], {"1": 1}):
        verdict = json.loads(json.dumps(good))
        verdict["certificate"]["components"][0]["op"][1][2] = junk
        assert verify_certificate(M, verdict) == (
            False, "stated table is not an abelian group: malformed table"), junk
        assert tables.pop() == [[0, 1, 2], [1, 2, -1], [2, 0, 1]], junk


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
    assert verify_certificate(B, {"verdict": "non_dualizable",
                                  "certificate": {"kind": "rankill"}}) == \
        (False, "missing field 'case'")


GOLDEN_UNKNOWN_DIGEST = "a0dd63df0d48a49b4bd7067648841b1dc91e6bb80f6ee4d5fe1d291b832994e3"


def test_unknown_verifier_agrees_with_classify():
    algebras = [M for nq in range(3) for ns in range(3) for M in every_algebra(nq, ns)]
    algebras += list(every_algebra(3, 1))
    algebras += list(itertools.islice(every_algebra(3, 2), 0, None, 5))
    algebras += [M for _, M in standard_catalog()]
    algebras.append(AutomaticAlgebra.build(
        ["q", "r", "s"], ["a", "b", "c"],
        [(x, "a", "q") for x in "qrs"] + [(x, "b", "r") for x in "qrs"]
        + [(x, "c", "s") for x in "qrs"]))
    reached, digest = set(), hashlib.sha256()
    for M in algebras:
        v = classify(M)
        reached.add(v.rule)
        checked = verify_certificate(M, v)
        claimed_unknown = verify_certificate(M, {"verdict": "unknown"})
        assert claimed_unknown[0] == (v.outcome == "unknown"), (M.table_key(), v.rule)
        assert checked == (True, ""), (M.table_key(), v.rule)
        digest.update(json.dumps([v.to_json(), checked, claimed_unknown]).encode() + b"\n")
    assert reached == set(RULE_ORDER) - {"normalize"}
    # pins every verdict and each reason an unknown claim is refused for, the
    # two zero-semigroup reasons among them
    assert digest.hexdigest() == GOLDEN_UNKNOWN_DIGEST


# ---------------------------------------------------------------------------
# certificate field mutations
# ---------------------------------------------------------------------------

JUNK = (None, True, -1, 1.5, "zz", [], {})
CERTIFICATE_KINDS = {
    "zero_semigroup", "reduction_chain", "whiskery_failure", "rankill",
    "order_sensitive", "single_letter_whiskery", "two_state_equations",
    "two_state_forbidden", "constant_letters", "all_loops", "letter_affine",
    "commuting_permutations"}


def certificate_kind_examples():
    """Algebras whose certificates, with the catalog's and chains 1-4's,
    reach every certificate kind."""
    build = AutomaticAlgebra.build
    return [
        build("q", [], []),                                     # zero_semigroup
        build("q", "a", []),                                    # ... after a reduction
        build("q", "a", [("q", "a", "q")]),                     # single_letter_whiskery
        build("qr", "ab", [("q", "a", "r")]),                   # reduction_chain
        build("qr", "ab", [("q", "a", "q"), ("q", "b", "q"), ("r", "a", "q"),
                           ("r", "b", "r")]),                   # two_state_equations
        build("qrs", "ab", [("q", "a", "q"), ("r", "a", "q"), ("r", "b", "s"),
                            ("s", "a", "s"), ("s", "b", "s")]),  # order_sensitive
        build("qrs", "abc", [(x, a, t) for a, t in zip("abc", "qrs")
                             for x in "qrs"]),                  # constant_letters
        build("qrs", "ab", [("q", "a", "q"), ("r", "a", "r"), ("s", "a", "s"),
                            ("q", "b", "q")]),                  # all_loops
    ]


def _subtrees(node, path=()):
    """The path of a JSON value and of every value inside it."""
    yield path
    inside = (node.items() if isinstance(node, dict) else
              enumerate(node) if isinstance(node, list) else ())
    for key, child in inside:
        yield from _subtrees(child, path + (key,))


def certificate_mutations(verdict: dict):
    """Copies of a JSON verdict with its rule, or its certificate or one
    value at any depth inside it, replaced by a junk value that differs."""
    text = json.dumps(verdict)
    paths = [("rule",)] + [("certificate",) + p for p in _subtrees(verdict["certificate"])]
    for *parents, key in paths:
        for junk in JUNK:
            mutated = json.loads(text)
            holder = functools.reduce(operator.getitem, parents, mutated)
            if json.dumps(holder[key]) != json.dumps(junk):
                holder[key] = junk
                yield mutated


def fresh_copy(M: AutomaticAlgebra) -> AutomaticAlgebra:
    """A new algebra equal to M, with none of what M keeps once built (its
    components, groups and product table)."""
    return AutomaticAlgebra(M.state_names, M.letter_names, M.delta)


def sweep_certificate_mutations(algebras):
    """(mutations tried, certificate kinds reached, failures) over the
    classify verdicts of `algebras`; a failure is a mutation that
    verify_certificate accepts, or one that makes it raise.  The verifier
    reads a copy of each algebra that classify never touched, so that it
    builds for itself what it checks."""
    count, kinds, failures = 0, set(), []
    for M in algebras:
        verdict = json.loads(json.dumps(classify(M).to_json()))
        M = fresh_copy(M)
        cert = verdict["certificate"]
        while cert is not None:
            kinds.add(cert["kind"])
            cert = cert.get("inner")
        for mutated in certificate_mutations(verdict):
            count += 1
            try:
                result = verify_certificate(M, mutated)
            except Exception as exc:        # any escape is a failure of the sweep
                result = exc
            if not (isinstance(result, tuple) and result[0] is False):
                failures.append((M.table_key(), mutated, result))
    return count, kinds, failures


def test_no_certificate_field_mutation_verifies():
    algebras = [M for _, M in standard_catalog()] + [gen_chain(n) for n in range(1, 5)]
    count, kinds, failures = sweep_certificate_mutations(
        algebras + certificate_kind_examples())
    assert kinds == CERTIFICATE_KINDS
    assert failures == []
    assert count > 3000


def test_verifier_checks_the_stated_rule():
    module = importlib.import_module("autodual.classify")
    owners = {}
    for rule in (module._ZERO_RULE, *module.RULES):
        for kind in rule.kinds:
            owners.setdefault(kind, []).append(rule.name)
    assert set(owners) == CERTIFICATE_KINDS - {"reduction_chain"}
    assert all(len(rules) == 1 for rules in owners.values()), owners
    opposite = {"dualizable": "non_dualizable", "non_dualizable": "dualizable"}
    algebras = [M for _, M in standard_catalog()] + [gen_chain(n) for n in range(1, 5)]
    refused = set()
    for M in algebras + certificate_kind_examples():
        verdict = classify(M).to_json()
        if verdict["verdict"] == "unknown":
            continue
        cert = verdict["certificate"]       # a reduction chain takes its inner rule
        kind = cert["inner"]["kind"] if cert["kind"] == "reduction_chain" else cert["kind"]
        assert owners[kind] == [verdict["rule"]]
        for rule in RULE_ORDER:
            expected = ((True, "") if rule == verdict["rule"] else
                        (False, f"{kind} cannot come from the rule {rule}"))
            assert verify_certificate(M, dict(verdict, rule=rule)) == expected
        outcome = opposite[verdict["verdict"]]
        assert verify_certificate(M, dict(verdict, verdict=outcome)) == \
            (False, f"{kind} cannot witness the verdict {outcome}")
        refused |= {cert["kind"], kind}
    assert refused == CERTIFICATE_KINDS
    B = catalog("B")
    verdict = classify(B).to_json()
    del verdict["rule"]     # a verdict that states no rule stands on its certificate
    assert verify_certificate(B, verdict) == (True, "")
    L = catalog("L")
    assert verify_certificate(L, {"verdict": "unknown"}) == (True, "")
    assert not verify_certificate(L, {"verdict": "unknown", "rule": "whiskery"})[0]


_FIELDS = ("kind", "letter", "state", "m", "embedding", "case", "word", "w1", "w2",
           "identities", "which", "values", "split", "components", "states", "letters",
           "dropped", "e", "op", "letter_images", "H", "exponent", "decomposition", "b",
           "c", "report", "actions", "steps", "inner", "removed", "final", "q", "a", "0")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.just(1.5)
    | st.sampled_from(("q", "r", "a", "b", "0", "1", "2", "N4", "zz")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELDS), inner, max_size=4),
    max_leaves=12)


_FUZZED = {"B": catalog("B"), "C3": catalog("C", 3), "chain2": gen_chain(2)}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("dualizable", "non_dualizable", "unknown")),
       st.none() | st.sampled_from(sorted(RULE_ORDER)),
       st.sampled_from(sorted(CERTIFICATE_KINDS)),
       st.dictionaries(st.sampled_from(_FIELDS), _JSON, max_size=6),
       st.sampled_from(sorted(_FUZZED)))
def test_verifier_raises_only_tool_errors_on_fuzzed_certificates(outcome, rule, kind,
                                                                  fields, name):
    verdict = {"verdict": outcome, "certificate": dict(fields, kind=kind)}
    if rule is not None:
        verdict["rule"] = rule
    try:
        ok, reason = verify_certificate(_FUZZED[name], verdict)
    except ToolError as exc:
        assert 1 <= exc.exit_code <= 3
    else:
        assert type(ok) is bool and type(reason) is str
