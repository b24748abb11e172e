"""Set-up time of a fresh interpreter: import homindex.cli, load and build.

Usage: python3 setup_probe.py ROOT DOC:KIND [DOC:KIND ...]

KIND is ``field`` (``Scenario.build_field``) or ``nonlinear``
(``Scenario.build_nonlinear``).  Prints the elapsed seconds, measured
from before the import, as one JSON object.  Only the standard library
is imported before the clock starts.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, f"{sys.argv[1]}/src")

import homindex.cli  # noqa: E402,F401  (the import is what is timed)
from homindex.scenario import Scenario  # noqa: E402

for item in sys.argv[2:]:
    path, kind = item.rsplit(":", 1)
    scenario = Scenario.load(path)
    if kind == "field":
        scenario.build_field()
    else:
        scenario.build_nonlinear()
print(json.dumps({"seconds": time.perf_counter() - start}))
