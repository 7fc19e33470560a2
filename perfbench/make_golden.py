"""Write golden.json, the digests the correctness gate compares against.

    python3 perfbench/make_golden.py

Run it only when a change is meant to alter the reduced bases, the report
or the oracle output; the benchmark's gate exists to catch every other
change to them.  It takes about 30 s.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    pkg = run.fresh_import()
    frame = workloads.VerifyFrame({"verify_frame": None})
    frame.setup(pkg)
    report, got = frame.run_op(frame.cfg)
    if not report.ideals_equal:
        sys.exit("the frame does not verify; no golden written")
    golden = {"verify_frame": frame.digests(report, got), "oracle_sweep": {}}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        sweep = workloads.OracleSweep({"oracle_sweep": None}, Path(tmp))
        sweep.setup(pkg)
        for config in workloads.ORACLE_CONFIGS:
            result = sweep.run_op(config)
            if result[0] != 0:
                sys.exit(f"oracle fails on {config}; no golden written")
            golden["oracle_sweep"][workloads.config_key(config)] = sweep.digest(result)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
