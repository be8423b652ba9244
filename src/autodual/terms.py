"""Groupoid terms, identities, quasi-identities, and order sensitivity.

Grammar (used by the CLI as well):

    term  := atom | term '*' atom | term atom
    atom  := IDENT | '(' term ')'

Juxtaposition is only available when every variable is a single character;
a multi-character identifier run like ``qabab`` is exploded into single-
character variables.  Identities are written ``lhs = rhs`` and
quasi-identities ``eq ('&' eq)* '=>' eq``.

Every term normalizes under the bracket-from-the-left convention: a product
whose right factor is itself a product is constantly 0 in every automatic
algebra, and everything else flattens to a left chain u·v1·v2·…·vn.

Identities and quasi-identities are model-checked as a hash join over the
algebra's product table, which returns the first counterexample of a
lexicographic scan; `check_quasi_identity` describes the join.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache, reduce
from itertools import combinations, product as iproduct
from math import prod
from operator import getitem
from typing import NamedTuple, Optional, Union

from .algebras import ZERO, AutomaticAlgebra
from .errors import CapExceeded, TermSyntaxError


# ---------------------------------------------------------------------------
# terms and normalization
# ---------------------------------------------------------------------------

class Var(NamedTuple):
    name: str


class Prod(NamedTuple):
    left: "GroupoidTerm"
    right: "GroupoidTerm"


GroupoidTerm = Union[Var, Prod]


class ZeroEquivalent(NamedTuple):
    def variables(self):
        return ()

    def __str__(self):
        return "<0>"


class LeftChain(NamedTuple):
    head: str
    tail: tuple

    def variables(self):
        return (self.head,) + self.tail

    def __str__(self):
        return "*".join((self.head,) + self.tail)


NormalTerm = Union[ZeroEquivalent, LeftChain]


def normalize(term: GroupoidTerm) -> NormalTerm:
    """Flatten to a left chain, or detect constant-zero shape.  The left
    spine is walked in a loop, so a long product costs no recursion."""
    tail = []
    while isinstance(term, Prod):
        if not isinstance(term.right, Var):
            return ZeroEquivalent()
        tail.append(term.right.name)
        term = term.left
    return LeftChain(term.name, tuple(reversed(tail)))


def _tokenize(src: str):
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
        elif ch in "()*":
            tokens.append((ch, i))
            i += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", i, src[i:j]))
            i = j
        else:
            raise TermSyntaxError(f"unexpected character {ch!r}", pos=i)
    return tokens


def _variables(text: str, pos: int, variables) -> list:
    """An identifier run is one variable if declared or one character long,
    else it explodes into single-character variables (juxtaposition)."""
    if len(text) == 1 or (variables is not None and text in variables):
        return [Var(text)]
    if variables is not None and not all(c in variables for c in text):
        raise TermSyntaxError(f"unknown variable {text!r}", pos=pos)
    return [Var(c) for c in text]


def parse_term(src: str, variables=None) -> GroupoidTerm:
    """Parse a term.  Open parentheses are kept on an explicit stack, each
    with the factors read inside it so far, so deep nesting costs no
    recursion; each closed group of factors is multiplied from the left."""
    stack, last = [[]], "("       # the kind of the previous token; "(" at the start
    for tok in _tokenize(src):
        kind = tok[0]
        if kind in (")", "*") and last in ("(", "*"):
            raise TermSyntaxError("expected a variable or '('", pos=tok[1])
        if kind == "(":
            stack.append([])
        elif kind == ")":
            if len(stack) == 1:
                raise TermSyntaxError("trailing input", pos=tok[1])
            factors = stack.pop()
            stack[-1].append(reduce(Prod, factors))
        elif kind == "ident":
            stack[-1].extend(_variables(tok[2], tok[1], variables))
        last = kind
    if len(stack) > 1 or last in ("(", "*"):
        raise TermSyntaxError("unexpected end of input", pos=None)
    return reduce(Prod, stack[0])


def parse_and_normalize(src: str, variables=None) -> NormalTerm:
    return normalize(parse_term(src, variables))


class QuasiIdentity(NamedTuple):
    premises: tuple  # of (NormalTerm, NormalTerm)
    conclusion: tuple

    def variables(self):
        seen = []
        for lhs, rhs in self.premises + (self.conclusion,):
            for v in lhs.variables() + rhs.variables():
                if v not in seen:
                    seen.append(v)
        return tuple(seen)


def parse_equation(src: str, variables=None):
    """`lhs = rhs` -> (NormalTerm, NormalTerm)."""
    if "=" not in src:
        raise TermSyntaxError("expected '=' in equation", pos=None)
    lhs, rhs = src.split("=", 1)
    return (parse_and_normalize(lhs, variables), parse_and_normalize(rhs, variables))


def parse_quasi_identity(src: str, variables=None) -> QuasiIdentity:
    """`eq ('&' eq)* '=>' eq`."""
    if "=>" not in src:
        raise TermSyntaxError("expected '=>' in quasi-identity", pos=None)
    prem_src, concl_src = src.split("=>", 1)
    premises = tuple(parse_equation(p, variables) for p in prem_src.split("&"))
    return QuasiIdentity(premises, parse_equation(concl_src, variables))


# ---------------------------------------------------------------------------
# evaluation and model checking
# ---------------------------------------------------------------------------

# The most work one check may do: the |M|² product-table cells it reads plus
# the assignments it walks over the values `_value_ranges` keeps.  Whiskery's
# check at |Q| = |Σ| = 1,024 (|M| = 2,049) needs about 4.2·10⁶ + 2.1·10⁶.
JOIN_CAP = 10_000_000


def _column(table, chain, jv, cols, n):
    """Values of a left chain over the n assignments of one side.

    Positions below len(jv) read the join values, the others read the
    side's columns, so a product costs one table lookup per assignment.
    """
    if isinstance(chain, ZeroEquivalent):
        return [ZERO] * n
    head, tail = chain
    nj = len(jv)
    xs = [jv[head]] * n if head < nj else cols[head - nj]
    for p in tail:
        if p < nj:
            y = jv[p]
            xs = [table[x][y] for x in xs]
        else:
            xs = list(map(getitem, map(table.__getitem__, xs), cols[p - nj]))
    return xs


def _value(table, chain, vals):
    """Value of a left chain at one assignment of its positions."""
    if isinstance(chain, ZeroEquivalent):
        return ZERO
    head, tail = chain
    x = vals[head]
    for p in tail:
        x = table[x][vals[p]]
    return x


def _least_two(keys, values):
    """Per key: [least index, its value, least index with another value]."""
    out = {}
    for i, (key, c) in enumerate(zip(keys, values)):
        entry = out.get(key)
        if entry is None:
            out[key] = [i, c, None]
        elif entry[2] is None and c != entry[1]:
            entry[2] = i
    return out


@lru_cache(maxsize=256)
def _join_plan(equations: tuple) -> tuple:
    """What the join reads of its equations alone, computed once per tuple
    of equations, as tuples, since every call shares them: (variables,
    joined, sides, roles).  The variables are sorted by name, and `joined`
    lists those on some left-hand side and some right-hand side.  Each side
    is (only, chains): the variables of that side only, and per equation
    that side's chain as positions into the joined variables followed by
    `only`.  `roles` holds, per variable v, (v, whether v is some chain's
    head, whether it is a tail position or a lone head, whether it occurs
    in every chain), for `_value_ranges`."""
    left = {v for lhs, _ in equations for v in lhs.variables()}
    right = {v for _, rhs in equations for v in rhs.variables()}
    variables = tuple(sorted(left | right))
    joined = tuple(sorted(left & right))
    sides = []
    for only, pick in ((tuple(sorted(left - right)), 0), (tuple(sorted(right - left)), 1)):
        pos = {v: k for k, v in enumerate(joined + only)}
        terms = tuple(eq[pick] if isinstance(eq[pick], ZeroEquivalent) else
                      (pos[eq[pick].head], tuple(pos[v] for v in eq[pick].tail))
                      for eq in equations)
        sides.append((only, terms))
    chains = [side for eq in equations for side in eq if isinstance(side, LeftChain)]
    roles = tuple((v, any(c.head == v for c in chains),
                   any(v in c.tail or c.head == v and not c.tail for c in chains),
                   all(v in c.variables() for c in chains))
                  for v in variables)
    return variables, joined, tuple(sides), roles


def _value_ranges(M: AutomaticAlgebra, roles: tuple) -> dict:
    """Per variable, the values the walk gives it, in element order.

    Only state·letter is ever nonzero, so a chain is 0 unless its head is a
    state if it has a tail, each tail position is a letter, and a lone
    variable is not 0.  At a value of v that fits none of v's positions,
    every chain holding v is 0 and the other chains do not read v, so all
    such values satisfy the same equations.  v takes the values that fit
    some position and the least other value, which stands in for the rest
    and is less than each of them; it is left out when every chain holds v
    and some value fits, since it then satisfies every equation.
    """
    ranges = {}
    for v, as_state, as_letter, in_every in roles:
        kept = [*(M.states() if as_state else ()), *(M.letters() if as_letter else ())]
        if not kept or not in_every:
            # a state other is less than every kept value, as none is a state
            other = [*(() if as_state else M.states()[:1]),
                     *(() if as_letter else M.letters()[:1]), ZERO][0]
            kept = [other] + kept if M.is_state(other) else kept + [other]
        ranges[v] = kept
    return ranges


def _first_counterexample(M: AutomaticAlgebra, premises, conclusion) -> Optional[dict]:
    """The hash join behind `check_identity` and `check_quasi_identity`."""
    variables, joined, sides, roles = _join_plan(tuple(premises) + (conclusion,))
    (l_only, _), (r_only, _) = sides
    size = M.size()
    ranges = _value_ranges(M, roles)
    nj, nl, nr = (prod(len(ranges[v]) for v in vs) for vs in (joined, l_only, r_only))
    work = size * size + nj * (nl + nr)
    if work > JOIN_CAP:
        raise CapExceeded(f"checking this over {size} elements takes {work} steps, "
                          f"over the cap {JOIN_CAP}")
    table = M.product_table()
    if not (l_only or r_only):      # every variable joined: the plain scan
        (_, l_terms), (_, r_terms) = sides
        for jv in iproduct(*map(ranges.get, joined)):
            lv = [_value(table, t, jv) for t in l_terms]
            rv = [_value(table, t, jv) for t in r_terms]
            if lv[:-1] == rv[:-1] and lv[-1] != rv[-1]:
                return dict(zip(joined, jv))
        return None
    assignments = [list(iproduct(*map(ranges.get, only))) for only in (l_only, r_only)]
    columns = [list(zip(*side)) for side in assignments]
    # J sorting first makes the first J value with a counterexample the least
    stop_early = variables[:len(joined)] == joined
    best = None
    for jv in iproduct(*map(ranges.get, joined)):
        buckets = []
        for (_, terms), cols, n in zip(sides, columns, map(len, assignments)):
            values = [_column(table, t, jv, cols, n) for t in terms]
            buckets.append(_least_two(list(zip(*values[:-1])) or [()] * n, values[-1]))
        for key, (a1, ca, a2) in buckets[0].items():
            entry = buckets[1].get(key)
            if entry is None:
                continue
            b1, cb, b2 = entry
            pairs = [(a1, b1)] if ca != cb else [(a, b) for a, b in ((a1, b2), (a2, b1))
                                                  if a is not None and b is not None]
            for a, b in pairs:
                found = dict(zip(joined, jv))
                found.update((v, col[a]) for v, col in zip(l_only, columns[0]))
                found.update((v, col[b]) for v, col in zip(r_only, columns[1]))
                ranked = tuple((found[v] - 1) % size for v in variables)
                if best is None or ranked < best[0]:
                    best = (ranked, found)
        if best is not None and stop_early:
            break
    return None if best is None else {v: best[1][v] for v in variables}


def check_identity(M: AutomaticAlgebra, lhs: NormalTerm,
                   rhs: NormalTerm) -> Optional[dict]:
    """None if the identity holds, else the first counterexample assignment.

    The join of `check_quasi_identity` with no premises.
    """
    return _first_counterexample(M, (), (lhs, rhs))


def check_quasi_identity(M: AutomaticAlgebra, q: QuasiIdentity) -> Optional[dict]:
    """None if the quasi-identity holds, else the first counterexample.

    The first counterexample is the least assignment, in the lexicographic
    order of the variables sorted by name over the canonical element order,
    that satisfies every premise and breaks the conclusion.  It is found as
    a hash join.  A variable is a join variable if it occurs on some
    left-hand side and some right-hand side; the others occur on one side
    only.  For each assignment of the join variables, the left-only
    assignments are bucketed by the values of the premise left-hand sides,
    and the right-only ones by the right-hand sides, so the premises hold
    exactly on the pairs within one bucket.  Each bucket keeps its least
    assignment, that one's conclusion value, and the least assignment with
    another conclusion value.  The least counterexample in a bucket pairs
    the least assignment of one side with the least of the other side that
    disagrees with it, so at most two candidates per bucket are compared.

    Each variable v takes only the r_v values `_value_ranges` keeps, among
    which the first counterexample lies.  The walk takes
    Π_J r_v·(Π_L r_v + Π_R r_v) steps for J join, L left-only and R
    right-only variables: 2·|Σ|·(|Q| + 1) for `WHISKERY_QUASI`, and |Q|·|Σ|³
    for `wxyz = wyxz`, the plain scan that runs when every variable is
    joined.  Raises CapExceeded before the table is built when that walk
    plus the |M|² table cells exceeds `JOIN_CAP`.
    """
    return _first_counterexample(M, q.premises, q.conclusion)


WHISKERY_QUASI = QuasiIdentity(
    ((LeftChain("v", ("x", "x")), LeftChain("w", ("x", "x"))),),
    (LeftChain("v", ("x",)), LeftChain("w", ("x",))),
)


# ---------------------------------------------------------------------------
# order sensitivity
# ---------------------------------------------------------------------------

class OrderWitness(NamedTuple):
    state: int           # state index
    w1: tuple            # letter-index word with q·w1 = 0
    w2: tuple            # rearrangement with q·w2 != 0


def shortest_word(starts, n_letters: int, step, goal) -> Optional[tuple]:
    """The least (start, word) whose word leads from start to a goal, or None.

    `step((node, j))` is the node after letter j, or None where the word
    dies, so a partial transition map's `get` is a step.  One breadth-first
    search runs from all the starts (a sequence), in order, with letters in
    index order, so the first path to reach a node is its least in (length,
    start, word) order: a shortest word, the earlier start on a tie, then the
    lexicographically least word, as one search per start would find.
    """
    for s in starts:
        if goal(s):
            return s, ()
    seen = set(starts)
    queue = deque((s, s, ()) for s in starts)
    while queue:
        start, node, word = queue.popleft()
        for j in range(n_letters):
            t = step((node, j))
            if t is None or t in seen:
                continue
            if goal(t):
                return start, word + (j,)
            seen.add(t)
            queue.append((start, t, word + (j,)))
    return None


def order_sensitivity(M: AutomaticAlgebra) -> Optional[OrderWitness]:
    """Exact kill-order sensitivity decision.

    Some rearrangement of a word flips a product between zero and nonzero
    iff a single adjacent transposition does, somewhere along the word.  So
    it suffices to search for a state s and letters a, b such that some
    common suffix separates s·ab from s·ba; the suffix condition is a
    reachability question on pairs of elements, where (0, 0) is a dead end,
    and `shortest_word` answers it.  Returns None when every
    rearrangement of every word kills consistently, at once when every
    letter is total, since then no word takes a state to 0.  s·ab and s·ba
    depend only on the actions of a and b on the component of s, so only
    pairs of least letters of its distinct actions are tried.

    Every pair that a failed search reaches is dead: no mixed pair is
    reachable from it.  Later starts that are dead are skipped, and every
    search treats a dead pair as a dead end.  A least path to a mixed pair
    passes through no dead pair, so the witness is the same.
    """
    from .structure import _component_index   # structure imports terms

    if M.is_total():
        return None
    dead = set()

    def step(key):
        (u, v), j = key
        after = (M.mul(u, M.letter(j)), M.mul(v, M.letter(j)))
        if after == (ZERO, ZERO) or after in dead:
            return None
        reached.add(after)
        return after

    def mixed(pair):
        return (pair[0] == ZERO) != (pair[1] == ZERO)

    least = {}
    for comp, index in _component_index(M):
        letters = [js[0] for js in index.values()]
        least.update((si, letters) for si in comp)
    for si in range(M.n_states):
        s = M.state(si)
        for a, b in combinations(least[si], 2):
            xa = M.word(s, (a, b))
            xb = M.word(s, (b, a))
            if xa == xb or (xa, xb) in dead:
                continue
            reached = {(xa, xb)}
            hit = shortest_word([(xa, xb)], M.n_letters, step, mixed)
            if hit is None:
                dead |= reached
            else:
                _, v = hit
                if M.word(s, (a, b) + v) == ZERO:
                    return OrderWitness(si, (a, b) + v, (b, a) + v)
                return OrderWitness(si, (b, a) + v, (a, b) + v)
    return None
