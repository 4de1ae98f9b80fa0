"""One benchmark sample, run in a fresh process started by ``run.py``.

The parent pins the BLAS thread count in this process's environment, so it
holds before numpy is first imported (by ``import onenorm`` below).  The
sample prints one JSON object on its last stdout line:

``setup_s``
    from the parent's spawn timestamp to inputs ready: interpreter start,
    the package import, fixture reads and synthetic builds.
``wall_s``
    the workload's steps, output checks excluded.
``peak_rss_mb``
    this process's peak resident set, read before the checks run.

Usage (normally only through run.py):
  python3 perfbench/child.py WORKLOAD SEED TRACE SMOKE SPAWNED_AT
"""

import json
import os
import resource
import sys
import time
from pathlib import Path


def main(argv):
    workload_name, seed, traced, smoke, spawned_at = argv
    seed, traced, smoke = int(seed), traced == "1", smoke == "1"
    spawned_at = float(spawned_at)

    start = time.monotonic()
    import onenorm  # noqa: F401  (first import of numpy and scipy too)
    import_s = time.monotonic() - start
    os_threads = len(os.listdir("/proc/self/task"))

    import numpy
    import scipy

    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    root = Path(__file__).resolve().parent.parent
    inputs = workload.setup(root, seed, smoke)
    setup_s = time.monotonic() - spawned_at

    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer().install()
    start = time.monotonic()
    out = workload.run(inputs)
    wall_s = time.monotonic() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()

    pinned = int(os.environ["OPENBLAS_NUM_THREADS"])
    checks = [("os_threads_match_blas_pin", os_threads == pinned)]
    checks += workload.check(inputs, out, smoke)
    record = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "lambda_final": workload.lambda_final(out),
        "import_s": import_s,
        "layers": layers,
        "checks": len(checks),
        "failed_checks": [name for name, ok in checks if not ok],
        "env": {
            "os_threads_after_import": os_threads,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
