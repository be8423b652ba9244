"""The package's import contract, each case in a fresh interpreter: the names
`autodual` exports, and the modules each CLI subcommand loads."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import autodual
from autodual.algebras import catalog
from autodual.classify import classify

SRC = str(Path(autodual.__file__).resolve().parent.parent)
BASE = {"autodual", "autodual.algebras", "autodual.errors", "autodual.cli"}
# the rule engine builds its embeddings, so it loads no hom search (`powers`)
RULE_ENGINE = BASE | {"autodual.abgroups", "autodual.classify", "autodual.structure",
                      "autodual.terms"}


def run_fresh(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_readme_import_line():
    out = run_fresh("""
        from autodual import catalog, classify, verify_certificate
        verdict = classify(catalog("B"))
        print(verdict.outcome, verdict.rule, verify_certificate(catalog("B"), verdict))
    """)
    assert out == "non_dualizable whiskery (True, '')\n"


def test_package_names_are_the_functions():
    run_fresh("""
        import importlib, types
        import autodual
        assert autodual.classify(autodual.catalog("B")).rule == "whiskery"
        module = importlib.import_module("autodual.classify")
        assert isinstance(module, types.ModuleType)
        for name in autodual.__all__:
            value = getattr(autodual, name)
            assert not isinstance(value, types.ModuleType), name
        assert autodual.classify is module.classify
        assert autodual.Verdict is module.Verdict
        try:
            autodual.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("autodual.no_such_name resolved")
    """)


def test_submodule_imported_by_name_first():
    # the one case where `autodual.classify` is the module: it was imported by
    # name before any of the five rule-engine names was read from the package
    run_fresh("""
        import sys
        import autodual.classify
        module = sys.modules["autodual.classify"]
        assert autodual.classify is module
        assert autodual.classify.classify(autodual.catalog("B")).rule == "whiskery"
        # reading another of the five binds all five, the function included
        from autodual import verify_certificate
        assert autodual.classify is module.classify
    """)


# the standard modules that only the witness lab's dataclasses need; a
# process that loads them pays about 10 ms for `inspect` and more per class
SLOW = {"dataclasses", "inspect"}


def loaded_modules(argv) -> set:
    """The autodual modules, and those of `SLOW`, in sys.modules after
    `cli.main(argv)`, with None for a bare `import autodual.cli`."""
    out = run_fresh(f"""
        import contextlib, io, json, sys
        from autodual.cli import main
        argv = {argv!r}
        if argv is not None:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (0, 1), code
        print(json.dumps(sorted(m for m in sys.modules
                                if m.startswith("autodual") or m in {sorted(SLOW)!r})))
    """)
    return set(json.loads(out))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("footprint")
    paths = {}
    for name in ("B", "L"):
        paths[name] = root / f"{name}.alg"
        paths[name].write_text(catalog(name).emit())
    paths["cert"] = root / "B.json"
    paths["cert"].write_text(json.dumps(classify(catalog("B")).to_json()))
    return {name: str(path) for name, path in paths.items()}


def test_light_subcommands_load_only_what_they_run(files):
    assert loaded_modules(None) == BASE
    assert loaded_modules(["catalog", "B"]) == BASE
    assert loaded_modules(["check-eq", files["B"], "xy = xyyy"]) == BASE | {"autodual.terms"}
    assert loaded_modules(["embed", files["B"], files["L"]]) == BASE | {"autodual.powers"}


def test_only_witness_loads_the_witness_lab(files):
    assert loaded_modules(["analyze", files["B"]]) == RULE_ENGINE - {"autodual.classify"}
    for argv in (["classify", files["B"]], ["normalize", files["L"]], ["chain", "2"],
                 ["verify-cert", files["B"], files["cert"]]):
        assert loaded_modules(argv) == RULE_ENGINE, argv
    loaded = loaded_modules(["witness", "thm_wc", "0", "--size", "3"])
    assert loaded == (RULE_ENGINE - {"autodual.classify"}
                      | {"autodual.powers", "autodual.witness"} | SLOW)


def test_the_rule_engine_loads_no_dataclasses():
    # its result types are NamedTuples; only the witness lab keeps dataclasses
    out = run_fresh(f"""
        import sys
        import autodual.classify
        print(sorted(m for m in {sorted(SLOW)!r} if m in sys.modules))
    """)
    assert out == "[]\n"
