"""The table of limits.py, run in-process through cli()."""

import math

import pytest

from vlcpos import ScenarioConfig, default_config
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


def _bound_configs():
    """A one-key config at each finite bound of each key's rule: the bound when
    it is closed, else the float next to it inside the rule."""

    base = default_config()
    spell = {"": repr, "list": "[{!r}]".format, "span": "({0!r}, {0!r})".format}
    for key, (field, _) in _CONFIG_KEYS.items():
        record, _, name = field.rpartition(".")
        rule = (getattr(base, record) if record else base)._rules[name]
        for bound, closed, inward in ((rule.low, rule.ends[0] == "[", math.inf),
                                      (rule.high, rule.ends[1] == "]", -math.inf)):
            if math.isfinite(bound):
                value = bound if closed else math.nextafter(bound, inward)
                yield f"{key} = {spell[rule.shape](int(value) if rule.integer else value)}"


FIGURE_SWEEPS = ("angle-sweep", "replicate")
COMMANDS = ("position-sweep", "power-sweep", *FIGURE_SWEEPS, "estimate --power 1e-6")


@pytest.mark.parametrize("config", list(_bound_configs()))
def test_every_command_keeps_the_error_contract_at_each_declared_bound(config, tmp_path, capsys):
    # Exit 0, 1 or 2, and a failure says so in one error line. A figure sweep
    # at the sample count's ceiling takes seconds, so it is not run: the
    # ceiling exists to bound it.
    path = tmp_path / "run.cfg"
    path.write_text(config + "\n", encoding="utf-8")
    ceiling = int(ScenarioConfig._rules["distance_samples"].high)
    for command in COMMANDS:
        if config == f"sweep.distance_samples = {ceiling}" and command in FIGURE_SWEEPS:
            continue
        code = cli([*command.split(), "--config", str(path)])
        _, err = capsys.readouterr()
        assert code in (0, 1, 2), (command, code, err)
        lines = err.splitlines()
        assert (len(lines) == 1 and lines[0].startswith("error: ")) if code else not lines, (
            command, code, err)
