"""Layout checks on the source: every line of src/ and of tests/*.py fits in 99
characters, so that a line count measures code, not how lines were joined."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_LINE = 99


def test_no_source_line_is_longer_than_99_characters():
    paths = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert paths, f"no Python files under {ROOT}"
    long = [
        f"{path.relative_to(ROOT)}:{number} ({len(line)})"
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long == []
