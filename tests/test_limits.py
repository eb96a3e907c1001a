"""The table of limits.py, run in-process through cli()."""

import pytest

from vlcpos.cli import cli
from vlcpos.reporting import _CONFIG_KEYS

from limits import ROWS, check


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_limit(row, capsys):
    check(row, lambda argv: (cli(argv), *capsys.readouterr()))


def test_row_names_are_unique():
    assert len({row.name for row in ROWS}) == len(ROWS)


def test_every_config_key_has_a_row_that_rejects_it_at_its_line():
    # A key's rule is pinned where the CLI reports it: an exit-2 row whose
    # config sets the key on line N, and whose err holds "line N: <key> ".
    pinned = {
        key
        for row in ROWS
        if row.code == 2 and row.config is not None
        for number, line in enumerate(row.config.splitlines(), 1)
        for key in [line.partition("=")[0].strip()]
        if f"line {number}: {key} " in row.err
    }
    assert sorted(_CONFIG_KEYS.keys() - pinned) == []
