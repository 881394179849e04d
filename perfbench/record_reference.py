"""Record the quality anchors that the output check compares runs against.

    python3 perfbench/record_reference.py FIRST_SEED LAST_SEED [WORKLOAD ...]

runs each named workload (default: all) once per seed in the range and
stores its final loss, validation EM and leaf accuracy in
perfbench/reference.json. Only a change that is meant to alter what the
program computes should record them again.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> None:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    names = sys.argv[3:] or run.WORKLOAD_NAMES
    reference = (
        json.loads(run.REFERENCE.read_text(encoding="utf-8"))
        if run.REFERENCE.exists()
        else {}
    )
    for seed in range(first, last + 1):
        for name in names:
            result = run.bench(name, seed, 0.0, False, False, None)
            problems = result.problems + [p for r in result.runs for p in r.problems]
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            outputs = result.runs[0].outputs
            reference.setdefault(name, {})[str(seed)] = {
                key: outputs[key] for key in ("final_loss", "val_em", "leaf_acc")
            }
            run.REFERENCE.write_text(
                json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
            )
            print(name, seed, reference[name][str(seed)], flush=True)


if __name__ == "__main__":
    main()
