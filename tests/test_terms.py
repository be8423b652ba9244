import random
from collections import deque
from itertools import product as iproduct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from action_algebras import shared_action_algebras
from autodual.algebras import (ZERO, AutomaticAlgebra, catalog, random_algebra,
                               standard_catalog)
from autodual.classify import EQ_WXYZ_WYXZ, EQ_XY_XYYY, gen_chain
from autodual.errors import CapExceeded, TermSyntaxError, ToolError
from autodual.terms import (JOIN_CAP, LeftChain, Prod, QuasiIdentity, Var,
                            ZeroEquivalent, WHISKERY_QUASI, check_identity,
                            check_quasi_identity, normalize, order_sensitivity,
                            parse_and_normalize, parse_equation,
                            parse_quasi_identity, parse_term, shortest_word)
from small_algebras import every_algebra


# -- reference evaluators: one dict per assignment, one `mul` per product ----

def eval_term(M, term, assignment):
    if isinstance(term, Var):
        return assignment[term.name]
    return M.mul(eval_term(M, term.left, assignment),
                 eval_term(M, term.right, assignment))


def eval_normal(M, term, assignment):
    if isinstance(term, ZeroEquivalent):
        return ZERO
    x = assignment[term.head]
    for v in term.tail:
        x = M.mul(x, assignment[v])
    return x


def scan_quasi_identity(M, premises, conclusion):
    """The first counterexample by a lexicographic scan over every
    assignment of the sorted variables, last variable fastest."""
    variables = sorted({v for eq in tuple(premises) + (conclusion,)
                        for side in eq for v in side.variables()})
    for values in iproduct(M.elements(), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if all(eval_normal(M, l, assignment) == eval_normal(M, r, assignment)
               for l, r in premises):
            l, r = conclusion
            if eval_normal(M, l, assignment) != eval_normal(M, r, assignment):
                return assignment
    return None


def test_parse_and_normalize_examples():
    assert parse_and_normalize("x*(y*z)") == ZeroEquivalent()
    assert parse_and_normalize("((w*x)*y)*z") == LeftChain("w", ("x", "y", "z"))
    assert parse_and_normalize("qabab") == LeftChain("q", ("a", "b", "a", "b"))
    assert parse_and_normalize("x") == LeftChain("x", ())
    # left factor constantly zero stays zero
    assert parse_and_normalize("(x*(y*z))*w") == ZeroEquivalent()


def test_parse_multichar_variables_declared():
    t = parse_and_normalize("foo*bar", variables={"foo", "bar"})
    assert t == LeftChain("foo", ("bar",))
    with pytest.raises(TermSyntaxError):
        parse_and_normalize("foobar*x", variables={"foo", "x"})


def test_parse_errors_have_positions():
    with pytest.raises(TermSyntaxError):
        parse_term("x*(y")
    with pytest.raises(TermSyntaxError):
        parse_term("x?y")
    with pytest.raises(TermSyntaxError):
        parse_term("")


def test_deep_terms_parse_and_normalize_without_recursion():
    assert parse_and_normalize("x" + "a" * 5000) == LeftChain("x", ("a",) * 5000)
    assert parse_and_normalize("(" * 5000 + "x" + ")" * 5000) == LeftChain("x", ())
    assert parse_and_normalize("x" + "(a" * 5000 + ")" * 5000) == ZeroEquivalent()
    with pytest.raises(TermSyntaxError, match="unexpected end of input"):
        parse_term("(" * 5000 + "x")


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(alphabet="xyab()*=>& ?", max_size=40), st.text(max_size=40)))
def test_parse_quasi_identity_raises_only_input_errors(src):
    for variables in (None, {"x", "ab"}):
        try:
            parse_quasi_identity(src, variables)
        except ToolError as exc:
            assert 1 <= exc.exit_code <= 3


def test_normalization_idempotent():
    t = parse_term("((w*x)*y)*z")
    once = normalize(t)
    assert normalize(parse_term(str(once))) == once


def _all_terms(variables, leaves):
    if leaves == 1:
        return [Var(v) for v in variables]
    out = []
    for k in range(1, leaves):
        for left in _all_terms(variables, k):
            for right in _all_terms(variables, leaves - k):
                out.append(Prod(left, right))
    return out


def test_normalization_soundness_exhaustive():
    variables = ("x", "y")
    terms = []
    for leaves in (1, 2, 3, 4):
        terms += _all_terms(variables, leaves)
    for name in ("B", "N4"):
        M = catalog(name) if name == "B" else catalog("N", 4)
        elems = M.elements()
        for term in terms:
            nt = normalize(term)
            for vals in iproduct(elems, repeat=2):
                assignment = dict(zip(variables, vals))
                assert eval_term(M, term, assignment) == eval_normal(M, nt, assignment)


def test_check_identity_examples():
    N0 = catalog("N", 0)
    cex = check_identity(N0, *parse_equation("xy = xyyy"))
    assert {k: N0.name(v) for k, v in cex.items()} == {"x": "q", "y": "a"}
    N4 = catalog("N", 4)
    cex = check_identity(N4, *parse_equation("wxyz = wyxz"))
    assert {k: N4.name(v) for k, v in cex.items()} == \
        {"w": "q", "x": "a", "y": "b", "z": "b"}
    B = catalog("B")
    assert check_identity(B, *parse_equation("x*(y*z) = u*(v*w)")) is None


def test_check_quasi_identity_examples():
    F0 = catalog("F", 0)
    cex = check_quasi_identity(F0, WHISKERY_QUASI)
    assert {k: F0.name(v) for k, v in cex.items()} == {"v": "q", "w": "r", "x": "a"}
    assert check_quasi_identity(catalog("C", 3), WHISKERY_QUASI) is None
    trivial = parse_quasi_identity("x = y => x = y")
    assert check_quasi_identity(catalog("B"), trivial) is None


_FIXED_QUASI = [WHISKERY_QUASI, QuasiIdentity((), EQ_XY_XYYY)] + [
    parse_quasi_identity(src) for src in (
        "x = y => x = y", "xy = yx => x = y", "ab = cd => ba = dc",
        "x*(y*z) = w => w = x", "c = a & b = d => cb = ad", "bz = ab => zz = a",
        "u = v => uw = wv", "x*(y*z) = u => yu = xu")]


def _agrees(M, q):
    got = check_quasi_identity(M, q)
    want = scan_quasi_identity(M, q.premises, q.conclusion)
    assert got == want and (got is None or list(got) == list(want)), (M, q)
    if not q.premises:
        assert check_identity(M, *q.conclusion) == want, (M, q)
    return got is not None


def test_join_matches_scan_on_small_and_chain_algebras():
    algebras = [M for nq in range(3) for ns in range(3) for M in every_algebra(nq, ns)]
    algebras += [M for _, M in standard_catalog()] + [gen_chain(n) for n in range(1, 5)]
    found = 0
    for M in algebras:
        for q in _FIXED_QUASI + [QuasiIdentity((), EQ_WXYZ_WYXZ)]:
            if M.size() ** len(q.variables()) <= 40_000:   # what the scan walks
                found += _agrees(M, q)
    assert found > 100      # the counterexample path is exercised, not just None


_ALGEBRAS = [catalog("B"), catalog("F", 0), catalog("N", 4), catalog("R"),
             catalog("C", 3), random_algebra(random.Random(5), 3, 2)]
_VARS = st.sampled_from("abcde")
_TERM = st.one_of(st.just(ZeroEquivalent()),
                  st.builds(LeftChain, _VARS, st.lists(_VARS, max_size=2).map(tuple)))
_EQUATION = st.tuples(_TERM, _TERM)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(_ALGEBRAS))),
       st.lists(_EQUATION, max_size=2).map(tuple), _EQUATION)
@example(0, ((LeftChain("b", ("e",)), LeftChain("d", ("e",))),),   # e joins; b, d one side
         (LeftChain("a", ("e",)), LeftChain("c", ("e",))))         # sorted a b c d e interleaves
@example(3, ((LeftChain("d", ()), ZeroEquivalent()),),            # d only in a premise
         (LeftChain("a", ("b",)), LeftChain("c", ())))
@example(2, (), (ZeroEquivalent(), LeftChain("c", ("a",))))
@example(0, (), (LeftChain("b", ("d", "e")), LeftChain("e", ("d",))))   # head is the 2nd join variable
@example(0, (), (LeftChain("a", ()), LeftChain("a", ("b",))))   # x = xy: a lone a is nonzero at letters
@example(2, ((ZeroEquivalent(), ZeroEquivalent()),), (ZeroEquivalent(), ZeroEquivalent()))
@example(3, (), (LeftChain("a", ("a",)), LeftChain("b", ("a",))))   # xx = yx: a is head and tail
@example(1, ((LeftChain("b", ("a",)), LeftChain("c", ("a",))),),   # a is in no chain of the
         (LeftChain("b", ()), LeftChain("c", ())))                 # conclusion; a = q stands in
def test_join_matches_scan_on_drawn_quasi_identities(k, premises, conclusion):
    _agrees(_ALGEBRAS[k], QuasiIdentity(premises, conclusion))


def test_join_refuses_oversized_checks_before_work():
    # the cap is charged on the values each variable keeps: a and o range
    # over the 3 states and 3 letters, the 13 inner variables over the letters
    B = catalog("B")
    lhs, rhs = parse_equation("abcdefghijklmno = onmlkjihgfedcba")
    assert B.size() ** 2 + 2 * 6 * 6 * 3 ** 13 == 114_791_305 > JOIN_CAP
    with pytest.raises(CapExceeded, match="takes 114791305 steps"):
        check_identity(B, lhs, rhs)
    assert B._products is None      # refused before the table was built
    # nine variables keep 6·6·3⁷ = 78,732 assignments, under the cap
    assert check_identity(B, *parse_equation("abcdefghi = ihgfedcba")) is not None


def test_whiskery_quasi_identity_is_charged_on_its_kept_values():
    # 1,024 states and 801 letters, letter j fixing state j alone: |M| = 1,826,
    # so the full walk 3·|M|² = 10,002,828 is over the cap, but the table and
    # the kept walk, |M|² + 2·|Σ|·(|Q| + 1) = 4,976,326 steps, are not
    states, letters = [f"q{i}" for i in range(1024)], [f"a{j}" for j in range(801)]
    M = AutomaticAlgebra(states, letters, {(j, j): j for j in range(801)})
    assert 3 * M.size() ** 2 > JOIN_CAP
    assert check_quasi_identity(M, WHISKERY_QUASI) is None
    # q1023·a0 = q1022, where a0 is undefined: v = q1, w = q1023, x = a0
    M = AutomaticAlgebra(states, letters, {(j, j): j for j in range(801)} | {(1023, 0): 1022})
    found = check_quasi_identity(M, WHISKERY_QUASI)
    assert {v: M.name(x) for v, x in found.items()} == {"v": "q1", "w": "q1023", "x": "a0"}


def test_quasi_identity_variable_collection():
    q = parse_quasi_identity("vxx = wxx => vx = wx")
    assert set(q.variables()) == {"v", "w", "x"}


def test_term_types_are_immutable_values():
    # NamedTuples: the reprs read as the fields do, and a field cannot be set
    term = parse_term("x(yz)")
    assert repr(term) == ("Prod(left=Var(name='x'), "
                          "right=Prod(left=Var(name='y'), right=Var(name='z')))")
    assert repr(parse_and_normalize("xyy")) == "LeftChain(head='x', tail=('y', 'y'))"
    assert repr(WHISKERY_QUASI) == (
        "QuasiIdentity(premises=((LeftChain(head='v', tail=('x', 'x')), "
        "LeftChain(head='w', tail=('x', 'x'))),), conclusion=(LeftChain(head='v', "
        "tail=('x',)), LeftChain(head='w', tail=('x',))))")
    assert repr(ZeroEquivalent()) == "ZeroEquivalent()" and str(ZeroEquivalent()) == "<0>"
    for value, field in ((Var("x"), "name"), (term, "left"), (LeftChain("x", ()), "tail"),
                         (WHISKERY_QUASI, "premises")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    # equal values are equal and hash alike, as parsing twice shows
    for src in ("x(yz)", "xy", "(xy)z"):
        assert parse_term(src) == parse_term(src)
        assert hash(parse_term(src)) == hash(parse_term(src))
        assert hash(parse_and_normalize(src)) == hash(parse_and_normalize(src))
    assert parse_term("xy") != parse_term("yx") and parse_term("xyz") != parse_term("x(yz)")
    assert parse_quasi_identity("vxx = wxx => vx = wx") == WHISKERY_QUASI
    assert len({WHISKERY_QUASI, parse_quasi_identity("vxx = wxx => vx = wx")}) == 1
    # a 0-field tuple: every ZeroEquivalent is equal, to () too, and falsy;
    # no code tests a NormalTerm for truth
    assert ZeroEquivalent() == ZeroEquivalent() == ()
    assert not ZeroEquivalent() and parse_and_normalize("x(yz)") == ZeroEquivalent()


def test_order_sensitivity_witnesses():
    N1 = catalog("N", 1)
    w = order_sensitivity(N1)
    assert N1.state_names[w.state] == "q"
    assert [N1.letter_names[j] for j in w.w1] == ["b", "a"]
    assert [N1.letter_names[j] for j in w.w2] == ["a", "b"]
    assert N1.word(N1.state(w.state), w.w1) == ZERO
    assert N1.word(N1.state(w.state), w.w2) != ZERO
    assert order_sensitivity(catalog("L")) is None
    assert order_sensitivity(catalog("F", 2)) is None  # single letter


def order_sensitivity_brute(M, max_len=6):
    """Oracle: search all words up to max_len for a kill-order flip."""
    for si in range(M.n_states):
        s = M.state(si)
        words = [()]
        for _ in range(max_len):
            words = [w + (j,) for w in words for j in range(M.n_letters)]
            by_multiset = {}
            for w in words:
                by_multiset.setdefault(tuple(sorted(w)), []).append(w)
            for group in by_multiset.values():
                results = {M.word(s, w) == ZERO for w in group}
                if len(results) == 2:
                    return True
    return False


def test_order_sensitivity_matches_brute_force():
    rng = random.Random(777)
    for _ in range(80):
        M = random_algebra(rng, 3, 2)
        assert (order_sensitivity(M) is not None) == order_sensitivity_brute(M, 6)


def suffix_to_mixed(M, xa, xb):
    """Reference: the shortest word v with exactly one of xa·v, xb·v equal to
    0, or None, by its own breadth-first search over pairs of elements,
    letters in index order."""
    start = (xa, xb)
    if (xa == ZERO) != (xb == ZERO):
        return ()
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (u, v), word = queue.popleft()
        for j in range(M.n_letters):
            nu, nv = M.mul(u, M.letter(j)), M.mul(v, M.letter(j))
            if (nu == ZERO) != (nv == ZERO):
                return word + (j,)
            pair = (nu, nv)
            if pair not in seen and pair != (ZERO, ZERO):
                seen.add(pair)
                queue.append((pair, word + (j,)))
    return None


def order_sensitivity_by_letters(M):
    """Reference: the witness from a scan over every state and letter pair."""
    for si in range(M.n_states):
        s = M.state(si)
        for a in range(M.n_letters):
            for b in range(a + 1, M.n_letters):
                xa, xb = M.word(s, (a, b)), M.word(s, (b, a))
                if xa == xb:
                    continue
                v = suffix_to_mixed(M, xa, xb)
                if v is not None:
                    if M.word(s, (a, b) + v) == ZERO:
                        return (si, (a, b) + v, (b, a) + v)
                    return (si, (b, a) + v, (a, b) + v)
    return None


def assert_order_sensitivity_matches(M):
    w = order_sensitivity(M)
    assert (None if w is None else (w.state, w.w1, w.w2)) == \
        order_sensitivity_by_letters(M), M.emit()


@settings(max_examples=300, deadline=None)
@given(shared_action_algebras())
def test_order_sensitivity_matches_letter_pair_scan(M):
    assert_order_sensitivity_matches(M)


def test_order_sensitivity_matches_letter_pair_scan_on_every_small_algebra():
    for M in (M for nq in range(4) for ns in range(3) for M in every_algebra(nq, ns)):
        assert_order_sensitivity_matches(M)


# a graph on 0..5 over two letters; None is a dead step
_EDGES = {0: (None, 2), 1: (3, 4), 2: (5, 3), 3: (None, None), 4: (None, 5), 5: (0, None)}


def _graph_step(key):
    node, j = key
    return _EDGES[node][j]


def test_shortest_word_returns_the_empty_word_at_a_goal_start():
    assert shortest_word([1, 4, 3], 2, _graph_step, {3, 4}.__contains__) == (4, ())
    assert shortest_word([], 2, _graph_step, {3}.__contains__) is None


def test_shortest_word_breaks_a_tie_by_the_earlier_start():
    # 2 and 1 each reach 3 in one letter; the earlier start wins, not the least
    assert shortest_word([2, 1], 2, _graph_step, {3}.__contains__) == (2, (1,))
    assert shortest_word([1, 2], 2, _graph_step, {3}.__contains__) == (1, (0,))
    # 0·b·b = 3 and 0·b·a = 5 tie in length; the least word is b·a
    assert shortest_word([0], 2, _graph_step, {3, 5}.__contains__) == (0, (1, 0))


def test_shortest_word_skips_dead_steps():
    # 0·a dies, so the shortest way from 0 to 5 is b·a; 3 is a dead end
    assert shortest_word([0], 2, _graph_step, {5}.__contains__) == (0, (1, 0))
    assert shortest_word([3], 2, _graph_step, {0}.__contains__) is None
    assert shortest_word([4], 2, _graph_step, {1}.__contains__) is None
