"""Command-line surface tying the modules together.

Subcommands: build-factbase, gen-tree, refine-tree, train, run-pipeline,
eval, route-demo. Exit codes: 0 success, 1 usage, 2 data error, 3 backend
error. Every artifact file embeds the config hash and seed that produced it.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataset import (
    RunConfig,
    canonical_json,
    load_dataset,
    load_predictions,
    load_run_config,
    run_config_from_dict,
    write_json,
)
from .errors import EntailQAError, GatewayError, SchemaError
from .llm import HttpBackend, MockBackend
from .moe import GATE_A, GATE_B, MoeParams, route
from .pipeline import evaluate_predictions, run_pipeline, run_stage1
from .tree import parse_node_id, serialize_tree


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 on usage errors; we want 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="run config JSON file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--backend", choices=["mock", "http"], help="backend kind")
    common.add_argument("--out", help="output directory", default="out")

    parser = _Parser(prog="entailqa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, needs_dataset in [
        ("build-factbase", True),
        ("gen-tree", True),
        ("refine-tree", True),
        ("train", True),
        ("run-pipeline", True),
        ("route-demo", False),
    ]:
        p = sub.add_parser(name, parents=[common])
        if needs_dataset:
            p.add_argument("dataset", help="dataset JSON file")

    p = sub.add_parser("eval", parents=[common])
    p.add_argument("--pred", required=True, help="predictions JSON file")
    p.add_argument("--gold", required=True, help="gold dataset JSON file")
    return parser


def _load_config(args) -> RunConfig:
    config = load_run_config(args.config) if args.config else RunConfig()
    if args.seed is None and args.backend is None:
        return config
    data = config.to_json_dict()
    if args.seed is not None:
        data["seed"] = args.seed
    if args.backend is not None:
        data["backend"] = args.backend
    return run_config_from_dict(data)


def _make_backend(config: RunConfig):
    if config.backend == "http":
        return HttpBackend(
            model=config.http_model,
            timeout=config.http_timeout,
            max_retries=config.http_max_retries,
        )
    return MockBackend()


def _stamp(config: RunConfig, payload: dict) -> dict:
    return {"config_hash": config.config_hash(), "seed": config.seed, **payload}


# Stage-1 commands: the file suffix each writes per example, and its payload
# from the example, its fact base and its refined tree.
_STAGE1_ARTIFACTS = {
    "build-factbase": ("factbase", lambda example, base, tree: base.to_json_dict()),
    "gen-tree": (
        "structure",
        lambda example, base, tree: {
            "question_id": example.id,
            "dsl": serialize_tree(tree, include_texts=False),
        },
    ),
    "refine-tree": (
        "tree",
        lambda example, base, tree: {"dsl": serialize_tree(tree), **tree.to_json_dict()},
    ),
}


def _cmd_stage1(args, config: RunConfig) -> int:
    suffix, payload = _STAGE1_ARTIFACTS[args.command]
    examples = load_dataset(args.dataset)
    backend = _make_backend(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for example in examples:
        base, tree = run_stage1(example, backend, top_n=config.retrieval_top_n)
        write_json(
            out / f"{example.id}.{suffix}.json",
            _stamp(config, payload(example, base, tree)),
        )
    return 0


def _cmd_train(args, config: RunConfig) -> int:
    from .pipeline import build_train_items, stage1_states, train

    examples = load_dataset(args.dataset)
    backend = _make_backend(config)
    states = stage1_states(examples, config, backend)
    items = build_train_items(examples, states, config.moe)
    params = MoeParams.init(config.moe, config.seed)
    curve = train(params, config, items)
    failed = sorted(ex.id for ex in examples if states[ex.id].failed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "checkpoint.json", _stamp(config, params.to_state_dict()))
    write_json(
        out / "training.json",
        _stamp(config, {"steps": len(curve), "loss_curve": curve, "failed": failed}),
    )
    return 0


def _cmd_run_pipeline(args, config: RunConfig) -> int:
    examples = load_dataset(args.dataset)
    backend = _make_backend(config)
    states, summary = run_pipeline(examples, config, backend)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    predictions = []
    for example in examples:
        state = states[example.id]
        write_json(out / f"{example.id}.state.json", _stamp(config, state.to_json_dict()))
        if state.failed or not state.predicted_answers:
            continue
        retrieved_evidence = []
        for fid in state.retrieved_fact_ids[-1]:
            fact = state.base.facts[parse_node_id(fid).index - 1]
            if fact.source_evidence_id not in retrieved_evidence:
                retrieved_evidence.append(fact.source_evidence_id)
        predictions.append(
            {
                "id": example.id,
                "answer": state.predicted_answers[-1],
                "retrieved_evidence_ids": retrieved_evidence,
                "tree": serialize_tree(state.tree_versions[-1]),
            }
        )
    write_json(out / "predictions.json", _stamp(config, {"predictions": predictions}))
    write_json(out / "manifest.json", _stamp(config, summary))
    if isinstance(backend, HttpBackend):
        # calls complete in thread order; a stable sort keeps repeats of one
        # (tag, prompt), such as parse retries, in the order they were logged
        log = sorted(backend.exchange_log, key=lambda e: (e["tag"], e["prompt"]))
        write_json(out / "exchanges.json", _stamp(config, {"log": log}))
    return 0


def _cmd_eval(args, config: RunConfig) -> int:
    report = evaluate_predictions(load_dataset(args.gold), load_predictions(args.pred))
    sys.stdout.write(canonical_json(report))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "metrics.json", _stamp(config, report))
    return 0


def _cmd_route_demo(args, config: RunConfig) -> int:
    params = MoeParams.init(config.moe, config.seed)
    rng = np.random.default_rng(config.seed)
    tokens = rng.normal(size=(8, config.moe.embed_dim))
    for gate in (GATE_A, GATE_B):
        decision = route(params, config.moe, tokens, gate)
        pool = config.moe.pool(gate)
        sys.stdout.write(f"gate {gate} pool={list(pool)}\n")
        for i in range(tokens.shape[0]):
            picks = ", ".join(
                f"expert {int(e)} @ {v:.4f}"
                for e, v in zip(decision.indices[i], decision.values[i])
            )
            sys.stdout.write(f"  token {i}: {picks}\n")
    return 0


_COMMANDS = {
    **dict.fromkeys(_STAGE1_ARTIFACTS, _cmd_stage1),
    "train": _cmd_train,
    "run-pipeline": _cmd_run_pipeline,
    "eval": _cmd_eval,
    "route-demo": _cmd_route_demo,
}


def _keep_freed_heap() -> None:
    """Let glibc keep freed memory in the process instead of returning it.

    A training micro-batch frees multi-MB numpy temporaries that the next one
    allocates again. By default glibc unmaps such blocks or trims them off the
    heap, so every micro-batch faults their pages in anew. Both thresholds are
    raised: setting either one alone also freezes glibc's dynamic mmap
    threshold, and the other path still hands the memory back. No result
    changes. Off Linux, or where libc has no ``mallopt``, this does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's 64-bit maximum


def cli_dispatch(argv: Optional[Sequence[str]] = None) -> int:
    _keep_freed_heap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args)
        return _COMMANDS[args.command](args, config)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except GatewayError as exc:
        sys.stderr.write(f"backend error: {exc}\n")
        return 3
    except (SchemaError, EntailQAError, OSError) as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 2


def main() -> None:
    raise SystemExit(cli_dispatch())
