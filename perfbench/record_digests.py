"""Record the output digests that `run.py` compares against.

    python3 perfbench/record_digests.py [FIRST_SEED LAST_SEED]

Runs one batch of every workload for each seed in the inclusive range
(default 0 to 19) and adds the sha256 of `traces.csv` and
`summary.csv` to digests.json. Run it only at a commit whose outputs
should become the reference; `run.py` reports later drift from them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import DIGESTS, measure
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    first, last = (int(a) for a in argv) if argv else (0, 19)
    digests: dict[str, dict[str, list[str]]] = {}
    for name, workload in WORKLOADS.items():
        for seed in range(first, last + 1):
            report = measure(workload, seed, seconds=0, trace=False, root=Path.cwd(), min_calls=1)
            if not report["result"]["correct"]:
                raise SystemExit(f"{name} seed {seed} failed its checks: {report['details']['problems']}")
            d = report["details"]["digests"]
            digests.setdefault(name, {})[str(seed)] = [d["traces_sha256"], d["summary_sha256"]]
            print(name, seed, *digests[name][str(seed)], flush=True)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    for name, by_seed in digests.items():
        recorded.setdefault(name, {}).update(by_seed)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
