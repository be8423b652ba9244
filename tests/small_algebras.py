"""Every automatic algebra of a given shape, for exhaustive checks.

Each (state, letter) pair, states outer, goes to a target in 0..n_states,
where n_states means undefined; the algebras come in `itertools.product`
order of those targets.
"""

import itertools

from autodual.algebras import AutomaticAlgebra


def every_algebra(n_states, n_letters):
    states = [f"q{i}" for i in range(n_states)]
    letters = [f"a{j}" for j in range(n_letters)]
    pairs = list(itertools.product(range(n_states), range(n_letters)))
    for targets in itertools.product(range(n_states + 1), repeat=len(pairs)):
        yield AutomaticAlgebra(states, letters, {p: t for p, t in zip(pairs, targets)
                                                 if t < n_states})
