"""The figure sweeps stream: an angle sweep's peak memory does not follow its
sample count. Each run is a fresh interpreter that runs the CLI's process
entry and reads its own peak resident size (VmHWM, Linux only) at exit."""

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
sys.argv = ["vlcpos", "angle-sweep", "--format", "json", "--out", os.devnull,
            "--samples", sys.argv[1]]
from vlcpos.cli import main
main()
"""


def _peak_mb(samples):
    env = {**os.environ, "PYTHONPATH": str(Path(vlcpos.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", PEAK, str(samples)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.split()[-1]) / 1024


@pytest.mark.skipif(not STATUS.exists(), reason="needs /proc/self/status (Linux)")
def test_angle_sweep_peak_grows_less_than_20_mb_over_ten_times_the_samples():
    # 4 families of 2x10^4 and of 2x10^5 samples: about 21 and 30 MB, where
    # holding every row took about 28 and 113 MB.
    small, large = _peak_mb(20_000), _peak_mb(200_000)
    assert large - small < 20.0, (small, large)
