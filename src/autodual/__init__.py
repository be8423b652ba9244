"""Dualizability analysis toolkit for finite automatic algebras."""

import importlib

from .algebras import AutomaticAlgebra, apply_word, catalog, product, random_algebra

__all__ = [
    "AutomaticAlgebra", "Verdict", "apply_word", "catalog", "classify",
    "gen_chain", "normalize_algebra", "product", "random_algebra", "verify_certificate",
]
_FROM_CLASSIFY = ("Verdict", "classify", "gen_chain", "normalize_algebra",
                  "verify_certificate")


def __getattr__(name):
    # PEP 562: the rule engine is loaded on first use, so a process that never
    # classifies never compiles it.  `from . import classify` would recurse:
    # its fromlist handling asks hasattr, which calls this function again.
    if name not in _FROM_CLASSIFY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(".classify", __name__)
    globals().update((attr, getattr(module, attr)) for attr in _FROM_CLASSIFY)
    return globals()[name]
