"""Benchmark: ``entailqa run-pipeline`` on two workloads, end to end and per module.

    python3 perfbench/run.py --workload train --seed 11 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all          # every workload, with a verdict
    python3 perfbench/run.py --workload all --smoke  # tiny sizes, runs in seconds

An invocation sets up the workload's inputs from ``--seed``, makes one untimed
warm-up run at smoke size, then sets up again and runs the command in a
fresh process, again and again until ``--seconds`` have passed. It checks
every run's outputs and reports the median set-up and run times. ``--trace 1``
instead makes one untimed and one traced run and reports the per-module
metrics and the tracing overhead. The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` examples, and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("train", "http_mixed")
CHILD_TIMEOUT_S = 60


@dataclass
class RunRecord:
    run_s: float
    peak_rss_mb: float
    outputs: dict | None
    digest: str | None
    problems: list[str]
    layers: dict | None = None


@dataclass
class Result:
    workload: str
    seed: int
    examples: int
    setup_times: list[float] = field(default_factory=list)
    runs: list[RunRecord] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and all(not r.problems for r in self.runs)

    @property
    def attempted(self) -> int:
        return self.examples * len(self.runs)

    @property
    def failed(self) -> int:
        """Examples failed; a run that fails its check fails all of its examples,
        and a failed check of the whole invocation fails every run."""
        if self.problems:
            return self.attempted
        return sum(
            self.examples if r.problems else len(r.outputs["failed"]) for r in self.runs
        )


# --- processes --------------------------------------------------------------------------


class StandInServer:
    """The loopback chat-completion server, in its own process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py")],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline().strip()
        if not line.isdigit():
            self.stop()
            raise RuntimeError(f"stand-in server did not start: {line!r}")
        self.port = int(line)
        self.endpoint = f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def stats(self) -> dict:
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(f"http://127.0.0.1:{self.port}/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_child(dataset: Path, config: Path, out: Path, env: dict, spans: Path | None):
    """One ``run-pipeline`` command in a fresh process; its result dict.

    A run that exits with an error or outlives ``CHILD_TIMEOUT_S`` gets a
    non-zero ``rc``.
    """
    if out.exists():
        shutil.rmtree(out)
    result_path = out.parent / f"{out.name}.result.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(dataset), str(config),
            str(out), str(result_path)]
    if spans is not None:
        argv += ["--trace", str(spans)]
    try:
        rc = subprocess.run(argv, env=env, timeout=CHILD_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:  # the child has been killed and waited for
        rc = -1
    if rc != 0 or not result_path.exists():
        return {"rc": rc or -1, "run_s": 0.0, "peak_rss_mb": 0.0}
    return json.loads(result_path.read_text(encoding="utf-8"))


# --- one workload ------------------------------------------------------------------------


def _tree_hash(*dirs: Path) -> str:
    digest = hashlib.sha256()
    for directory in dirs:
        for path in sorted(directory.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _remember_digest(key: str, digest: str) -> str | None:
    """Record the outputs' digest for this code and input; return an earlier
    different one, if a previous process of the same code recorded it."""
    store = WORK / "digests.json"
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    earlier = known.setdefault(key, digest)
    store.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    return earlier if earlier != digest else None


def bench(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
          reference: dict | None) -> Result:
    import workloads as wl

    workload = wl.smoke(wl.WORKLOADS[name]) if smoke else wl.WORKLOADS[name]
    workdir = WORK / f"{name}-{seed}{'-smoke' if smoke else ''}"
    if workdir.exists():
        shutil.rmtree(workdir)
    (workdir / "warmup").mkdir(parents=True)
    uses_server = workload.config.get("backend") == "http"
    server = None
    result = Result(name, seed, workload.examples)
    write_argv = [sys.executable, str(HERE / "workloads.py"), name, str(seed),
                  str(workdir)] + (["--smoke"] if smoke else [])
    dataset, config = workdir / "dataset.json", workdir / "config.json"
    env = dict(os.environ)
    env["no_proxy"] = env["NO_PROXY"] = "127.0.0.1,localhost"

    def setup() -> None:
        """One timed set-up: a fresh process that imports entailqa and writes
        the inputs, plus the server start. One precedes every run, so that the
        median of the set-up times spans the whole invocation."""
        nonlocal server
        if server is not None:
            server.stop()
            server = None
        start = perf_counter()
        subprocess.run(write_argv, check=True, timeout=CHILD_TIMEOUT_S)
        if uses_server:
            server = StandInServer()
            env["ENTAIL_LLM_ENDPOINT"] = server.endpoint
        result.setup_times.append(perf_counter() - start)

    try:
        setup()
        warm = workdir / "warmup"
        warm_dataset, warm_config = wl.write_inputs(wl.smoke(workload), seed, warm)
        if run_child(warm_dataset, warm_config, warm / "out", env, None)["rc"] != 0:
            result.problems.append("warm-up run failed")

        def timed(spans: Path | None) -> RunRecord:
            setup()
            out = workdir / "out"
            raw = run_child(dataset, config, out, env, spans)
            record = RunRecord(raw["run_s"], raw["peak_rss_mb"], None, None, [],
                               raw.get("layers"))
            if raw["rc"] != 0:
                record.problems.append(f"run-pipeline exited with {raw['rc']}")
                return record
            record.outputs = wl.run_outputs(out, dataset)
            record.problems += wl.check_outputs(
                record.outputs, reference, workload.trained, not smoke
            )
            record.digest = hashlib.sha256(
                (out / "predictions.json").read_bytes() + (out / "manifest.json").read_bytes()
            ).hexdigest()
            if server is not None:
                stats = server.stats()
                served = stats["served"]
                limit = workload.config["http_max_in_flight"]
                if stats["max_active"] > limit:
                    record.problems.append(
                        f"{stats['max_active']} requests in progress at once, limit {limit}"
                    )
                exchanges = json.loads((out / "exchanges.json").read_text(encoding="utf-8"))
                if len(exchanges["log"]) != served:
                    record.problems.append(
                        f"{len(exchanges['log'])} exchanges logged, {served} served"
                    )
                if record.layers and record.layers["llm.calls"] != served:
                    record.problems.append(
                        f"llm.calls {record.layers['llm.calls']} != {served} served"
                    )
            return record

        if trace:
            result.runs.append(timed(None))
            result.runs.append(timed(WORK / f"spans-{name}.jsonl"))
        else:
            # Skip a run that, at the mean run time so far, would end past the
            # deadline: a 20 s train run must not turn a 20 s budget into 40 s.
            start = perf_counter()
            while True:
                result.runs.append(timed(None))
                elapsed = perf_counter() - start
                if elapsed * (1 + 1 / len(result.runs)) > seconds:
                    break
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(workdir)

    digests = {r.digest for r in result.runs if r.digest}
    if len(digests) > 1:
        result.problems.append("predictions differ between runs of the same code")
    elif digests:
        key = f"{name}:{seed}:{'smoke' if smoke else 'full'}:{_tree_hash(SRC, HERE)}"
        if _remember_digest(key, digests.pop()):
            result.problems.append("predictions differ from an earlier run of this code")
    return result


# --- reporting ------------------------------------------------------------------------------


def machine() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return (
        f"machine: python {platform.python_version()}, numpy {np.__version__}, "
        f"blas {blas_name}, cpu {cpu}, nproc {os.cpu_count()}"
    )


def end_to_end(result: Result) -> dict[str, float]:
    runs = result.runs
    return {
        "setup_s": statistics.median(result.setup_times),
        "run_s": statistics.median(r.run_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "ok_frac": 1.0 - result.failed / result.attempted,
    }


def per_layer(result: Result) -> dict[str, float]:
    untraced, traced = result.runs
    layers = dict(traced.layers or {})
    layers["trace.overhead_s"] = traced.run_s - untraced.run_s
    return layers


def report(result: Result, spec: list[dict], measured: dict[str, float]) -> dict:
    """Print the figures for a reader, then return the result line."""
    runs = result.runs
    missing = [m["name"] for m in spec if m["name"] not in measured]
    if missing and result.correct:
        result.problems.append(f"not measured: {missing}")
    print(f"workload {result.workload} seed {result.seed}: {len(runs)} run(s) after a warm-up,"
          f" run_s {[round(r.run_s, 3) for r in runs]}")
    for m in spec:
        print(f"  {m['name']:32s} {measured.get(m['name'], 0.0):14.6g} {m['unit']}")
    print(f"  {'failed_frac':32s} {result.failed / result.attempted:14.6g} "
          f"({result.failed}/{result.attempted} examples)")
    first = next((r.outputs for r in runs if r.outputs), None)
    if first:
        for key in ("val_em", "leaf_acc", "final_loss"):
            print(f"  {key:32s} {first[key]!s:>14}")
    for problem in result.problems + [p for r in runs for p in r.problems]:
        print(f"  problem: {problem}")
    print(f"  check: {'PASS' if result.correct else 'FAIL'}")
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one timed run, for a quick check")
    args = parser.parse_args()

    if not (SRC / "entailqa" / "__init__.py").is_file():
        sys.stderr.write(f"entailqa sources not found under {SRC}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    references = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    print(machine())
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    verdict = True
    for name in names:
        reference = None if args.smoke else references.get(name, {}).get(str(args.seed))
        seconds = 0.0 if args.smoke else args.seconds  # smoke: one timed run
        result = bench(name, args.seed, seconds, bool(args.trace), args.smoke, reference)
        measured = per_layer(result) if args.trace else end_to_end(result)
        line = report(result, spec, measured)
        verdict = verdict and line["correct"]
        print(json.dumps(line))
    if args.workload == "all":
        print(f"verdict: {'PASS' if verdict else 'FAIL'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
