"""Set-up probe, run in a fresh interpreter: python probe.py CONFIG.

Prints four perf_counter_ns stamps (CLOCK_MONOTONIC on Linux, so the parent
can subtract its own spawn stamp): interpreter ready, before import, after
`import vlcpos.cli`, after `load_config(CONFIG)`; then vlcpos.__file__.
Only builtin modules are imported before the first stamp, so the import
window holds vlcpos and what it pulls in.
"""

import time

READY = time.perf_counter_ns()

import sys  # noqa: E402

BEFORE_IMPORT = time.perf_counter_ns()
import vlcpos.cli  # noqa: E402

IMPORTED = time.perf_counter_ns()
vlcpos.cli.load_config(sys.argv[1])
LOADED = time.perf_counter_ns()
print(READY, BEFORE_IMPORT, IMPORTED, LOADED, vlcpos.__file__)
