"""The reach pin of reach.py: every statement in src/'s function bodies that no
row of limits.py reaches is declared, with the class that says why."""

import pytest

import reach

ROOT = reach.SRC.parent


def test_every_unreached_statement_is_declared_and_every_declared_one_is_unreached():
    # A fresh interpreter runs every row under the line recorder (1-2 s).
    counted, unreached = reach.reach()
    assert reach.problems(counted, unreached) == []


def test_each_declared_statement_names_what_reaches_it():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    bench = (ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")
    for entry in reach.UNREACHED:
        if entry.kind == reach.LIBRARY:  # a tier-1 test, path::[Class::]test
            path, *scopes = entry.by.split("::")
            text = (ROOT / path).read_text(encoding="utf-8")
            assert all(f" {scope}(" in text or f" {scope}:" in text for scope in scopes), entry
        elif entry.kind == reach.SUBPROCESS:  # a command of CI's packaging step
            assert entry.by in ci, entry
        else:
            assert entry.kind == reach.BENCH and f'"{entry.module}.{entry.function}"' in bench


S = reach.Statement
GUARD = S("channel", "f", 'raise DomainError(f"link cosine must be <= 1, got {c}")', range(3, 4))
RETURN = S("channel", "f", "return power", range(4, 5))
DECLARED = (reach.Unreached("channel", "f", "raise DomainError(", reach.LIBRARY, "a caller"),)


@pytest.mark.parametrize("counted, unreached, problem", [
    ([GUARD, RETURN], [GUARD], None),
    ([GUARD, RETURN], [GUARD, RETURN], "unreached and not declared: channel.f: return power"),
    ([GUARD, RETURN], [], "declared library channel.f: raise DomainError( is reached"),
    ([RETURN], [], "declared library channel.f: raise DomainError( names 0 statements, not 1"),
    ([GUARD, GUARD._replace(lines=range(5, 6))], [GUARD],
     "declared library channel.f: raise DomainError( names 2 statements, not 1"),
], ids=["declared", "undeclared", "reached", "gone", "ambiguous"])
def test_problems_names_each_way_the_sets_differ(counted, unreached, problem):
    assert reach.problems(counted, unreached, DECLARED) == ([problem] if problem else [])


def test_a_statement_counts_by_its_text_and_lines_not_its_compound_headers(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        'X = 1\n\n\ndef f(a):\n    """Doc."""\n    if a:\n        return (\n            a)\n'
        "    for b in a:\n        pass\n    return g(a)\n\n\n"
        "class C:\n    y = 2\n\n    def h(self):\n        def k():\n            return 3\n"
        "        return k\n",
        encoding="utf-8")
    assert [(s.function, s.text, list(s.lines)) for s in reach.statements(source)] == [
        ("f", "return (a)", [7, 8]), ("f", "pass", [10]), ("f", "return g(a)", [11]),
        ("C.h.<locals>.k", "return 3", [19]), ("C.h", "return k", [20]),
    ]
