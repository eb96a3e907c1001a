"""The figure sweeps stream: the peak memory of an angle sweep, and of the
replicate report that runs one, does not follow the sample count. Each run is
a fresh interpreter that runs the CLI's process entry and reads its own peak
resident size (VmHWM, Linux only) at exit."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vlcpos

STATUS = Path("/proc/self/status")

PEAK = """
import atexit, os, sys

def peak():
    with open("/proc/self/status") as status:
        kb = next(line for line in status if line.startswith("VmHWM:")).split()[1]
    print(kb, file=sys.stderr)

atexit.register(peak)
sys.argv = ["vlcpos", sys.argv[1], "--format", "json", "--out", os.devnull,
            "--samples", sys.argv[2]]
from vlcpos.cli import main
main()
"""


def _peak_mb(command, samples):
    env = {**os.environ, "PYTHONPATH": str(Path(vlcpos.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", PEAK, command, str(samples)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.split()[-1]) / 1024


@pytest.mark.skipif(not STATUS.exists(), reason="needs /proc/self/status (Linux)")
@pytest.mark.parametrize("command", ["angle-sweep", "replicate"])
def test_peak_grows_less_than_20_mb_over_ten_times_the_samples(command):
    # 4 families of 2x10^4 and of 2x10^5 samples. The angle sweep holds one
    # family, about 21 and 30 MB, where holding every row took about 28 and
    # 113 MB. replicate compares each family with the one before, and so
    # holds two; holding all four grew it by about 29 MB.
    small, large = _peak_mb(command, 20_000), _peak_mb(command, 200_000)
    assert large - small < 20.0, (small, large)
