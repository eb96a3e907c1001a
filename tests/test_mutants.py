"""The form of mutants.py's table: each mutant changes one text of src/ that its
killed_by nodes exist to catch. Running the table is `python tests/mutants.py`."""

import subprocess
import sys

import mutants

from mutants import Mutant


def _collected(files):
    done = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", *sorted(files)],
                          cwd=mutants.ROOT, capture_output=True, text=True, timeout=300)
    return {line for line in done.stdout.splitlines() if "::" in line}


def test_each_old_text_occurs_once_and_each_killed_by_node_is_collected(request):
    nodes = {item.nodeid for item in request.session.items}
    named = {node for m in mutants.MUTANTS for node in m.killed_by}
    if named - nodes:  # a session that selected part of the suite
        nodes |= _collected({node.split("::")[0] for node in named - nodes})
    assert len(mutants.MUTANTS) >= 30
    assert mutants.problems(nodes=nodes) == []


def test_problems_names_each_broken_row():
    node = "tests/test_mutants.py::test_problems_names_each_broken_row"
    table = (Mutant("many", "cli", "gc", "GC", (node,)),
             Mutant("absent", "nowhere", "x", "y", (node,)),
             Mutant("same", "cli", "gc.freeze()", "gc.freeze()", ("tests/none.py::test",)),
             Mutant("same", "cli", "gc.freeze()", "pass", ()))
    assert mutants.problems(table, {node}) == [
        "same names 2 mutants",
        "many: old occurs 5 times in cli.py, not once",
        "absent: old occurs 0 times in nowhere.py, not once",
        "same: new is old", "same: tests/none.py::test is not collected",
        "same: no killed_by node",
    ]
