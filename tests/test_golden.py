"""Golden outputs: the default-config bytes of every subcommand are pinned.

The digests cover each output without its metadata (the '#' lines and the
JSON "generated" timestamp), so any change to the numbers, the layout or the
verdicts shows up here.
"""

import hashlib

import pytest

from vlcpos import config_hash, default_config
from vlcpos.cli import cli

GOLDEN = {
    "position-sweep": "940316055c1e0a1529644bb44d8e84135dda44dda8a4b1a86402570bbae1dc31",
    "position-sweep --format json": "9e558b197ccd123fd12bf98b4a9fd05a48be9a28c5c3e4787d4640ce50267618",
    "power-sweep": "1014071bdc9c04813a0576d863655214e5e446bb263bec450fdcb2cc0c1a9cfa",
    "power-sweep --format json": "47fb19d55a0b078e79b74de17145a0ff232cd69bb03a5d913fecbaf2bb0653d0",
    "angle-sweep": "d4a60ee41479923567068ca9252e858902de05bf58c3eb1be170b54b08c2632a",
    "angle-sweep --format json": "0a666e357099432673e178c0dd30f213e8cef30e0ccb19b83df52cd55a8dfba3",
    # 10^4 rows: long enough for columns to repeat values (four elevations),
    # which is where the JSON number spelling reads a text back only once.
    "angle-sweep --samples 2500 --format json": (
        "a44e66666af777ad973d1533a6158c07f84948aa9264502245d8faed4d76b0ed"
    ),
    "replicate --format csv": "ed5abebdc598e39de981d6683846ccb7e0a9de7e951da8c48ac3f0f08189bb02",
    "replicate --format json": "c4be60645e4aabfcc87af05dc9451a94853af5404d09e04a93084d9b24e210f4",
    "replicate": "f9bb12b299df37672e4d3e6d004346befc47b8d9f02caa11fd2482d59e4687f9",
    "estimate --power 1.4496953791835698e-06 --actual 1.42 1.42": (
        "03ca6638280983da3488a28cce2bff008bc103e3f69ab145ebdef11c6c860eeb"
    ),
}


def _digest_outside_metadata(data: bytes) -> str:
    digest = hashlib.sha256()
    for line in data.splitlines(keepends=True):
        if not line.startswith(b"#") and b'"generated":' not in line:
            digest.update(line)
    return digest.hexdigest()


@pytest.mark.parametrize("command", list(GOLDEN))
def test_default_config_output_is_pinned(command, tmp_path):
    out = tmp_path / "out"
    assert cli([*command.split(), "--out", str(out)]) == 0
    assert _digest_outside_metadata(out.read_bytes()) == GOLDEN[command]


def test_default_config_hash_is_pinned():
    # The hash digests serialize_config's text, so this pins those bytes too.
    assert config_hash(default_config()) == "b43b69b192d5"
