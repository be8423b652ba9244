import random

import pytest

from autodual.algebras import (CATALOG_STATE_CAP, ZERO, AutomaticAlgebra, _is_odd_prime,
                               apply_word, catalog, product, random_algebra,
                               standard_catalog)
from autodual.errors import (BadParams, CapExceeded, ConflictingTransition,
                             ReservedName, UnknownName)

GOLDEN_TABLES = {
    "B": "states q r s\nletters a b c\ntrans q a r\ntrans r b r\ntrans r c s\n",
    "L": ("states q r s\nletters a b c\n"
          "trans q a q\ntrans q b q\ntrans q c q\n"
          "trans r a q\ntrans r b r\ntrans r c s\n"
          "trans s a s\ntrans s b s\ntrans s c s\n"),
    "L3star": ("states q r s\nletters a b c\n"
               "trans q a r\ntrans q c q\n"
               "trans r a r\ntrans r b s\ntrans r c q\n"
               "trans s a r\ntrans s b s\n"),
    "R": "states q r\nletters a b c\ntrans q c q\ntrans r a q\ntrans r b r\n",
    "F0": "states q r\nletters a\ntrans q a r\n",
    "F2": ("states q r s1 s2\nletters a\n"
           "trans q a r\ntrans r a s1\ntrans s1 a s2\ntrans s2 a s1\n"),
    "N0": "states q r\nletters a\ntrans q a r\n",
    "N1": "states q r\nletters a b\ntrans q a r\ntrans r a r\ntrans r b r\n",
    "N2": "states q r\nletters a b\ntrans q a r\ntrans r a q\ntrans r b r\n",
    "N3": "states q r\nletters a b\ntrans q a r\ntrans q b q\ntrans r a r\n",
    "N4": ("states q r\nletters a b\n"
           "trans q a r\ntrans q b r\ntrans r a r\ntrans r b q\n"),
    "N5": ("states q r\nletters a b c\n"
           "trans q a r\ntrans q b q\ntrans q c q\n"
           "trans r a r\ntrans r b q\ntrans r c r\n"),
    "C3": ("states 1 2 3\nletters b c\n"
           "trans 1 b 2\ntrans 1 c 3\ntrans 2 b 3\ntrans 2 c 1\n"
           "trans 3 b 1\ntrans 3 c 2\n"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TABLES))
def test_catalog_golden_tables(name):
    if name.startswith("F") or name.startswith("N"):
        M = catalog(name[0], int(name[1:]))
    elif name.startswith("C"):
        M = catalog("C", int(name[1:]))
    else:
        M = catalog(name)
    assert M.emit() == GOLDEN_TABLES[name]


def test_product_examples_on_B():
    B = catalog("B")
    q, r, s = (B.element_by_name(x) for x in "qrs")
    a, b = B.element_by_name("a"), B.element_by_name("b")
    assert product(B, q, a) == r
    assert product(B, ZERO, q) == ZERO
    assert product(B, a, b) == ZERO


def test_apply_word_examples():
    B = catalog("B")
    q, s = B.element_by_name("q"), B.element_by_name("s")

    def word(text):
        return tuple(B.letter_names.index(c) for c in text)

    assert apply_word(B, q, word("abc")) == s
    assert apply_word(B, q, ()) == q
    assert apply_word(B, q, word("ba")) == ZERO
    assert apply_word(B, ZERO, word("a")) == ZERO


def test_algebras_hash_consistently_with_equality():
    B = catalog("B")
    twin = AutomaticAlgebra.build("qrs", "abc", [("r", "c", "s"), ("q", "a", "r"),
                                                 ("r", "b", "r")])
    assert twin == B and hash(twin) == hash(B)
    assert repr(B.table_key()) == ("(('q', 'r', 's'), ('a', 'b', 'c'), "
                         "[(0, 0, 1), (1, 1, 1), (1, 2, 2)])")
    seen = {M: name for name, M in standard_catalog()}
    assert len(seen) == len({repr(M.table_key()) for _, M in standard_catalog()})
    assert seen[twin] == "B"
    assert B.drop_letter(2) != B and len({B, twin, B.drop_letter(2)}) == 2


def test_absorption_and_flatness():
    for _, M in standard_catalog():
        for x in M.elements():
            assert M.mul(ZERO, x) == ZERO
            assert M.mul(x, ZERO) == ZERO
            for y in M.elements():
                if M.mul(x, y) != ZERO:
                    assert M.is_state(x) and M.is_letter(y)


def test_word_concatenation_exhaustive():
    for _, M in standard_catalog():
        words = [()]
        frontier = [()]
        for _ in range(4):
            frontier = [w + (j,) for w in frontier for j in range(M.n_letters)]
            words += frontier
        for x in M.elements():
            prefix = {u: M.word(x, u) for u in words}
            for u in words:
                for v in words:
                    if len(u) + len(v) <= 4:
                        assert prefix[u + v] == M.word(prefix[u], v)


def test_catalog_param_validation():
    with pytest.raises(UnknownName):
        catalog("nope")
    with pytest.raises(BadParams):
        catalog("C", 4)
    with pytest.raises(BadParams):
        catalog("C", 9)
    with pytest.raises(BadParams):
        catalog("N", 7)
    with pytest.raises(BadParams):
        catalog("F", -1)
    with pytest.raises(BadParams):
        catalog("B", 1)
    assert catalog("F", CATALOG_STATE_CAP - 2).n_states == CATALOG_STATE_CAP
    prime = next(p for p in range(CATALOG_STATE_CAP + 1, 2 * CATALOG_STATE_CAP)
                 if _is_odd_prime(p))
    for name, param in (("F", CATALOG_STATE_CAP - 1), ("C", prime)):
        with pytest.raises(CapExceeded, match="catalog state cap"):
            catalog(name, param)


def test_catalog_F0_and_C3_shapes():
    F0 = catalog("F", 0)
    assert F0.state_names == ("q", "r") and F0.letter_names == ("a",)
    assert F0.transitions() == [(0, 0, 1)]
    C3 = catalog("C", 3)
    one, b = C3.element_by_name("1"), C3.element_by_name("b")
    c = C3.element_by_name("c")
    assert C3.mul(one, b) == C3.element_by_name("2")
    assert C3.mul(one, c) == C3.element_by_name("3")


def test_reserved_and_conflicting():
    with pytest.raises(ReservedName):
        AutomaticAlgebra(["0"], ["a"], {})
    with pytest.raises(ReservedName):
        AutomaticAlgebra(["q", "q"], ["a"], {})
    with pytest.raises(ConflictingTransition):
        AutomaticAlgebra.build("qr", "a", [("q", "a", "q"), ("q", "a", "r")])


def test_elements_canonical_order():
    B = catalog("B")
    names = [B.name(x) for x in B.elements()]
    assert names == ["q", "r", "s", "a", "b", "c", "0"]


def test_random_algebra_is_seed_deterministic():
    a = random_algebra(random.Random(123))
    b = random_algebra(random.Random(123))
    assert a == b


def test_component_subalgebra_roundtrip():
    L = catalog("L")
    sub = L.component_subalgebra([0, 1, 2])
    assert sub == L


def test_drop_state_takes_its_outgoing_row():
    M = AutomaticAlgebra.build("qrs", "ab", [("q", "a", "r"), ("r", "b", "s"),
                                             ("s", "a", "s")])
    N = M.drop_state(0)
    assert N.state_names == ("r", "s")
    assert N.transitions() == [(0, 1, 1), (1, 0, 1)]
    with pytest.raises(BadParams):
        M.drop_state(1)   # r is q·a
