"""One cold set-up, timed: import the package, load all five architectures
and run one warm-up route.  Prints the seconds it took.

run.py starts this script as a fresh process several times and reports
the median as ``setup_s``.
"""

import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports cnotroute from the checkout)

workloads.setup()
print(repr(time.perf_counter() - t0))
