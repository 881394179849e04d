"""Run one ``entailqa run-pipeline`` command in this fresh process.

    python3 perfbench/child.py DATASET CONFIG OUT RESULT [--trace SPANS]

The command is driven in-process through ``entailqa.cli.cli_dispatch``; only
that call is timed. Each run gets a new process, so no cache filled by an
earlier run survives into it, as for a user who runs the command once, and
the process's memory high-water mark belongs to this run alone. RESULT gets
``{"rc", "run_s", "peak_rss_mb"}``, plus the per-module metrics when traced;
SPANS gets the spans, one JSON object a line, after the run has ended.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    parser = argparse.ArgumentParser()
    for name in ("dataset", "config", "out", "result"):
        parser.add_argument(name)
    parser.add_argument("--trace", help="write spans to this file")
    args = parser.parse_args()

    from entailqa import cli

    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    argv = ["run-pipeline", args.dataset, "--config", args.config, "--out", args.out]
    start = perf_counter()
    rc = cli.cli_dispatch(argv)
    run_s = perf_counter() - start

    result = {
        "rc": rc,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.write(Path(args.trace))
        if rc == 0:
            manifest_path = Path(args.out) / "manifest.json"
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            result["layers"] = layer_metrics(tracer.spans, manifest)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
