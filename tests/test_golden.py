"""Golden outputs: the default-config bytes of every subcommand are pinned.

The digests cover each output without its metadata (the '#' lines and the
JSON "generated" timestamp), so any change to the numbers, the layout or the
verdicts shows up here. A JSON output's "config" line is not metadata here:
its digest pins the config hash too.
"""

import hashlib

import pytest

from vlcpos import config_hash, default_config
from vlcpos.cli import cli

from config_text import serialize_config

GOLDEN = {
    "position-sweep": "940316055c1e0a1529644bb44d8e84135dda44dda8a4b1a86402570bbae1dc31",
    "position-sweep --format json": "2bbab1a357417d696688046322f846405ada7932a6a47e87f13ce56ab7bb7218",
    "power-sweep": "1014071bdc9c04813a0576d863655214e5e446bb263bec450fdcb2cc0c1a9cfa",
    "power-sweep --format json": "a9b04f79ad6b7ab36a1183941d636bf0c15576acd1ede2d0797aff7489b8aa47",
    "angle-sweep": "d4a60ee41479923567068ca9252e858902de05bf58c3eb1be170b54b08c2632a",
    "angle-sweep --format json": "85cc272c2714beccfe5353ae605d004cd3447dbd9b1a9a8a4191055c867b4e64",
    # 10^4 rows: long enough for columns to repeat values (four elevations),
    # which is where the JSON number spelling reads a text back only once.
    "angle-sweep --samples 2500 --format json": (
        "153aec7d837f09ea17f13a2a07e0fe1eea3da2ee0d905b7c2a55953cd996f784"
    ),
    "replicate --format csv": "ed5abebdc598e39de981d6683846ccb7e0a9de7e951da8c48ac3f0f08189bb02",
    "replicate --format json": "2bd0ab267e19b8fc10571497a63fe7a45ef56d566bd3917d9d2b4c4269d4641f",
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
    # The hash digests the values' bits, not text; the text has its own pin below.
    assert config_hash(default_config()) == "1a036cb8c79a"


def test_default_config_text_is_pinned():
    # The round-trip oracle's bytes. Their first 12 hex digits are the hash
    # that config_hash gave while it digested this text.
    text = serialize_config(default_config()).encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == (
        "b43b69b192d57b4f5138b074b5ce1195fe6a031ad469ce40b09132f6e79fffef"
    )
