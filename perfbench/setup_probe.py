"""One serve set-up measurement in a fresh process.

    python3 perfbench/setup_probe.py ESTIMATOR.json TRACE(0|1)

Prints one JSON line: ``setup_s`` (ServeState load + warm until the
first 200 on /healthz) and, traced, the load/warm layer times.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

if __name__ == "__main__":
    common.prepare_process()
    from perfbench.serve_load import probe_setup

    print(json.dumps(probe_setup(sys.argv[1], sys.argv[2] == "1")))
