"""The benchmark harness at smoke size: keeps ``perfbench/`` from rotting."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _smoke(workload: str, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return result


def test_train_smoke_run_is_correct():
    assert _smoke("train")["failed"] == 0


def test_http_mixed_smoke_run_is_correct():
    # the real HttpBackend against the loopback stand-in server, two workers
    assert _smoke("http_mixed")["failed"] == 0


def test_traced_smoke_run_measures_every_layer():
    # the tracer wraps entailqa functions by name; a renamed or deleted one
    # breaks only the traced run
    metrics = _smoke("train", trace=1)["metrics"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in spec)
    # inference must reach the encoder, MoE layer and heads through the wrapped names
    for name in ("moe.encode_s", "moe.fact_features_s", "moe.moe_forward_s", "moe.frg_forward_s",
                 "moe.qa_forward_s", "moe.route_tokens.A", "moe.route_tokens.B"):
        assert metrics[name]["value"] > 0, name


def test_traced_names_resolve(monkeypatch):
    # the same guard as the traced run, without running a pipeline
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    for owner, attr, name, _, _ in spans._TARGETS:
        assert callable(getattr(owner, attr, None)), name
