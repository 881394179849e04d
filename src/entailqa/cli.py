"""Command-line surface tying the modules together.

Subcommands: refine-tree, train, run-pipeline, eval. Exit codes: 0 success,
1 usage, 2 data error, 3 backend error. The three dataset commands fail an
example alone and list it under ``failed`` (refine-tree in
``tree.manifest.json``); they exit 0 while any example is left, else 3 if
every example failed a backend error and 2 if not. Every artifact file
embeds the config hash and seed that produced it.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path
from typing import Optional, Sequence

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
from .moe import MoeParams
from .pipeline import build_train_items, evaluate_predictions, run_pipeline, stage1_states, train
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

    for name in ("refine-tree", "train", "run-pipeline"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("dataset", help="dataset JSON file")

    p = sub.add_parser("eval", parents=[common])
    p.add_argument("--pred", required=True, help="predictions JSON file")
    p.add_argument("--gold", required=True, help="gold dataset JSON file")
    return parser


def _load_config(args) -> RunConfig:
    config = load_run_config(args.config) if args.config else RunConfig()
    flags = {k: getattr(args, k) for k in ("seed", "backend") if getattr(args, k) is not None}
    return run_config_from_dict({**config.to_json_dict(), **flags}) if flags else config


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


def _exit_code(states: dict) -> int:
    """The one exit rule of the dataset commands (see the module docstring)."""
    if any(not state.failed for state in states.values()):
        return 0
    classes = [state.error_class or object for state in states.values()]
    backend = bool(classes) and all(issubclass(c, GatewayError) for c in classes)
    sys.stderr.write(f"{'backend' if backend else 'data'} error: no example is left\n")
    return 3 if backend else 2


def _out_dir(args) -> Path:
    """Makes ``--out``: before any output, and for the dataset commands
    before stage 1, so that an unusable one fails before any backend call."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_refine_tree(args, config: RunConfig) -> int:
    examples = load_dataset(args.dataset)
    backend = _make_backend(config)
    out = _out_dir(args)
    states = stage1_states(examples, config, backend)
    for qid, state in states.items():
        if not state.failed:
            write_json(out / f"{qid}.factbase.json", _stamp(config, state.base.to_json_dict()))
            write_json(out / f"{qid}.tree.json", _stamp(config, state.tree_versions[0].to_json_dict()))
    failed = sorted(qid for qid, state in states.items() if state.failed)
    summary = {"examples": len(examples), "failed": failed}
    write_json(out / "tree.manifest.json", _stamp(config, summary))
    return _exit_code(states)


def _cmd_train(args, config: RunConfig) -> int:
    examples = load_dataset(args.dataset)
    backend = _make_backend(config)
    out = _out_dir(args)
    states = stage1_states(examples, config, backend)
    items = build_train_items(examples, states, config.moe)
    params = MoeParams.init(config.moe, config.seed)
    curve = train(params, config, items)
    failed = sorted(ex.id for ex in examples if states[ex.id].failed)
    write_json(
        out / "training.json",
        _stamp(config, {"steps": len(curve), "loss_curve": curve, "failed": failed}),
    )
    code = _exit_code(states)
    if not code:  # parameters that never trained are no checkpoint
        write_json(out / "checkpoint.json", _stamp(config, params.to_state_dict()))
    return code


def _cmd_run_pipeline(args, config: RunConfig) -> int:
    examples = load_dataset(args.dataset)
    backend = _make_backend(config)
    out = _out_dir(args)
    states, summary = run_pipeline(examples, config, backend)

    predictions = []
    for example in examples:
        state = states[example.id]
        write_json(out / f"{example.id}.state.json", _stamp(config, state.to_json_dict()))
        if state.failed:
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
    write_json(out / "manifest.json", _stamp(config, summary))
    if isinstance(backend, HttpBackend):
        # calls complete in thread order; a stable sort keeps repeats of one
        # (tag, prompt), such as parse retries, in the order they were logged
        log = sorted(backend.exchange_log, key=lambda e: (e["tag"], e["prompt"]))
        write_json(out / "exchanges.json", _stamp(config, {"log": log}))
    code = _exit_code(states)
    if not code:
        write_json(out / "predictions.json", _stamp(config, {"predictions": predictions}))
    return code


def _cmd_eval(args, config: RunConfig) -> int:
    report = evaluate_predictions(load_dataset(args.gold), load_predictions(args.pred))
    out = _out_dir(args)
    sys.stdout.write(canonical_json(report))
    write_json(out / "metrics.json", _stamp(config, report))
    return 0


_COMMANDS = {
    "refine-tree": _cmd_refine_tree,
    "train": _cmd_train,
    "run-pipeline": _cmd_run_pipeline,
    "eval": _cmd_eval,
}


def _keep_freed_heap() -> None:
    """Let glibc keep freed memory in the process instead of returning it.

    A training step frees multi-MB numpy temporaries that the next one
    allocates again. By default glibc unmaps such blocks or trims them off the
    heap, so every step faults their pages in anew. Both thresholds are
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


if __name__ == "__main__":
    main()
