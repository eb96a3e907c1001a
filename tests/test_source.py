"""Layout checks on the package source: every line of src/ fits in 99 characters."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_LINE = 99


def test_no_source_line_is_longer_than_99_characters():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no Python files under {SRC}"
    long = [
        f"{path.relative_to(SRC)}:{number} ({len(line)})"
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long == []
