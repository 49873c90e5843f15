"""Set-up time of one fresh process: import ``mdwindow.cli`` and build the
tables a workload needs before its first op.

    python3 bench/fresh.py <workload>

Prints ``{"setup_s": ...}``.  ``bench/run.py`` starts it with the
checkout's ``src`` on ``PYTHONPATH``.
"""

import json
import sys
import time

t0 = time.perf_counter()
import mdwindow.cli  # noqa: E402,F401

imported = time.perf_counter() - t0
import workloads  # noqa: E402  (the benchmark's own import is not counted)

t1 = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]].tables()
print(json.dumps({"setup_s": imported + time.perf_counter() - t1}))
