"""The two-pass algebra-file parser, kept as a reference for the streaming
`autodual.cli.parse_algebra_file`.

It reads the whole text, keeps every `trans` line with its line number,
checks conflicts in a second pass over them by name, and builds the algebra
from name triples.  The tests compare every outcome of the two parsers: the
algebra, or the error's type, message and line.
"""

from autodual.algebras import CATALOG_STATE_CAP, AutomaticAlgebra
from autodual.errors import CapExceeded, InputParseError


def parse_algebra_file(text: str) -> AutomaticAlgebra:
    """Parse the whitespace/line algebra format; `#` starts a comment."""
    states = letters = None
    trans = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head, rest = tokens[0], tokens[1:]
        if head in ("states", "letters") and len(rest) > CATALOG_STATE_CAP:
            raise CapExceeded(f"line {lineno} names {len(rest)} {head}, over the "
                              f"cap {CATALOG_STATE_CAP}")
        if head == "states":
            if states is not None:
                raise InputParseError("duplicate states line", line=lineno)
            if trans:
                raise InputParseError("states must precede trans lines", line=lineno)
            states, state_set = rest, set(rest)
        elif head == "letters":
            if letters is not None:
                raise InputParseError("duplicate letters line", line=lineno)
            if trans:
                raise InputParseError("letters must precede trans lines", line=lineno)
            letters, letter_set = rest, set(rest)
        elif head == "trans":
            if states is None or letters is None:
                raise InputParseError("trans before states/letters", line=lineno)
            if len(rest) != 3:
                raise InputParseError("trans needs: state letter state", line=lineno)
            if rest[0] not in state_set or rest[2] not in state_set:
                raise InputParseError(f"unknown state in {rest}", line=lineno)
            if rest[1] not in letter_set:
                raise InputParseError(f"unknown letter in {rest}", line=lineno)
            trans.append((lineno, tuple(rest)))
        else:
            raise InputParseError(f"unknown directive {head!r}", line=lineno)
    if states is None or letters is None:
        raise InputParseError("missing states or letters line")
    seen = {}
    for lineno, (q, a, r) in trans:
        if (q, a) in seen and seen[(q, a)] != r:
            raise InputParseError(f"conflicting transitions for ({q}, {a})",
                                  line=lineno)
        seen[(q, a)] = r
    return AutomaticAlgebra.build(states, letters, [t for _, t in trans])
