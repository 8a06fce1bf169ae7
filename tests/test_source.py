import ast
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "catalan_ode").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    """`python -O` strips assert statements, so a runtime check must raise."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def test_all_names_resolve():
    """Every name in `catalan_ode.__all__` exists, so a stale export fails."""
    import catalan_ode

    missing = [name for name in catalan_ode.__all__ if not hasattr(catalan_ode, name)]
    assert missing == []


def test_import_leaves_out_heavy_modules():
    """Importing the package and its CLI loads none of these modules; `-S`
    keeps `site`, which may import `typing` itself, out of the result."""
    heavy = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")
    code = ("import sys, catalan_ode, catalan_ode.cli; "
            f"print(','.join(m for m in {heavy!r} if m in sys.modules))")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env={"PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == ""


def test_report_equality_leaves_out_cost():
    from catalan_ode import VerificationReport

    rep = VerificationReport("eq57", {"N": 2}, "numeric", False, {"index": "1"})
    same = VerificationReport(identity="eq57", parameters={"N": 2}, mode="numeric",
                              passed=False, witness={"index": "1"}, cost=0.5)
    rep.cost = 0.25
    assert rep == same and rep.cost == 0.25
    assert rep != VerificationReport("eq57", {"N": 2}, "numeric", True, {"index": "1"})
    assert rep != VerificationReport("eq57", {"N": 2}, "numeric", False, {"index": "2"})
    assert rep != VerificationReport("eq57", {"N": 2}, "numeric", False)
    assert repr(same).startswith("VerificationReport(identity='eq57', parameters={'N': 2}")


def test_coeff_table_is_an_immutable_value():
    from catalan_ode import CoeffTable, a_table_recurrence

    table = a_table_recurrence(3)
    with pytest.raises(AttributeError):
        table.rows = ((1,),)
    with pytest.raises(AttributeError):
        table.extra = 1
    twin = CoeffTable("a", ((1,), (2, 2), (12, 12, 6)))
    assert twin == table and hash(twin) == hash(table)
    assert CoeffTable("b", table.rows[:2]) != CoeffTable("a", table.rows[:2])


def test_run_config_fields_are_the_verify_bounds():
    from catalan_ode.runner import BOUNDS, RunConfig

    dests = {dest for cmd, _, dest, _, _ in BOUNDS if cmd == "verify"}
    defaults = {name for name, value in vars(RunConfig).items() if type(value) is int}
    assert defaults == dests
    assert vars(RunConfig(max_index=3)) == {
        dest: 3 if dest == "max_index" else getattr(RunConfig, dest) for dest in dests}
    with pytest.raises(TypeError):
        RunConfig(bogus=1)
    with pytest.raises(TypeError):
        RunConfig(8)


def test_job_table_is_the_one_place_that_names_an_identity():
    """Every identity id spelled in runner.py is inside `JOBS`; the CLI's
    --id choices are the table's ids and "all"; every verifier and table
    builder a row names is a function of `identities`."""
    import argparse

    from catalan_ode import cli, identities
    from catalan_ode.runner import BUILDERS, JOBS

    path = next(p for p in SOURCES if p.name == "runner.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    [table] = [node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["JOBS"]]
    inside = {id(node) for node in ast.walk(table)}
    outside = [(node.lineno, node.value) for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and node.value in JOBS
               and id(node) not in inside]
    assert outside == []
    [sub] = [a for a in cli._build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    [ident] = [a for a in sub.choices["verify"]._actions if a.dest == "identity"]
    assert list(ident.choices) == [*JOBS, "all"]
    names = [verifier for verifier, _, _ in JOBS.values()] + list(BUILDERS.values())
    assert all(callable(getattr(identities, name, None)) for name in names)
    assert {kind for _, reads, _ in JOBS.values() for kind in reads} == set(BUILDERS)
