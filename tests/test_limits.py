"""The table of limits.py, run in-process through cli()."""

import pytest

from vlcpos.cli import cli

from limits import ROWS, check


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_limit(row, capsys):
    check(row, lambda argv: (cli(argv), *capsys.readouterr()))


def test_row_names_are_unique():
    assert len({row.name for row in ROWS}) == len(ROWS)
