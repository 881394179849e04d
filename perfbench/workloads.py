"""Workload inputs and the per-run output check.

Every input is a pure function of the benchmark seed: the same seed writes
byte-identical dataset and config files. The program sees only those files.

    python3 perfbench/workloads.py NAME SEED DIR [--smoke]

writes one workload's ``dataset.json`` and ``config.json`` into DIR; the
benchmark times this process as the set-up.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from entailqa.dataset import dataset_from_dict, write_json  # noqa: E402
from entailqa.facts import retrieve_evidence  # noqa: E402
from entailqa.synth import synthetic_corpus  # noqa: E402
from entailqa.tree import parse_tree, score_tree  # noqa: E402

RETRIEVAL_TOP_N = 4  # RunConfig default; the gold trees are written against it


@dataclass(frozen=True)
class Workload:
    name: str
    examples: int
    corpus: str  # "text" (synthetic_corpus) or "mixed" (image/table/text)
    config: dict  # run config minus the seed, which the benchmark seed sets

    @property
    def trained(self) -> bool:
        return self.config["training"]["steps"] > 0


# The acceptance training config (batches of 32 retrieval + 12 QA items) cut
# from 200 steps to 50, so that one run takes seconds, not tens of seconds,
# and a 60 s benchmark invocation can report the median of about eight runs.
_TRAIN_CONFIG = {
    "moe": {"vocab_size": 512},
    "training": {
        "steps": 50,
        "learning_rate": 1e-2,
        "batch_size_retrieval": 32,
        "batch_size_qa": 12,
    },
}
_HTTP_CONFIG = {
    "backend": "http",
    "workers": 2,
    "http_max_in_flight": 2,
    "training": {"steps": 0},
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("train", 200, "text", _TRAIN_CONFIG),
        Workload("http_mixed", 50, "mixed", _HTTP_CONFIG),
    )
}

SMOKE_EXAMPLES = 8
SMOKE_STEPS = 3


def smoke(workload: Workload) -> Workload:
    """The same workload shrunk to a few examples and training steps."""
    config = json.loads(json.dumps(workload.config))
    if workload.trained:
        config["training"]["steps"] = SMOKE_STEPS
    return Workload(workload.name, SMOKE_EXAMPLES, workload.corpus, config)


# --- mixed-modality corpus -----------------------------------------------------------

_ATTRIBUTE_SENTENCE = re.compile(r"^the (\w+) of the (\w+) is (\w+)\.$")
IMAGE_SHARE = 0.3
TABLE_SHARE = 0.3


def _as_image(ev: dict) -> dict:
    return {"id": ev["id"], "modality": "image", "content": "", "caption": ev["content"]}


def _as_table(ev: dict) -> dict:
    attribute, entity, value = _ATTRIBUTE_SENTENCE.match(ev["content"]).groups()
    return {
        "id": ev["id"],
        "modality": "table",
        "content": {"header": ["entity", attribute], "rows": [[entity, value]]},
    }


def _gold_tree(example: dict) -> str | None:
    """Replay stage 1's retrieval to find the fact ids the gold evidence gets.

    Returns None when a gold item falls outside the retrieval cut.
    """
    parsed = dataset_from_dict({"examples": [example]})[0]
    ranked = retrieve_evidence(parsed.question, list(parsed.evidence), RETRIEVAL_TOP_N)
    rank_of = {ev.id: pos + 1 for pos, ev in enumerate(ranked)}
    gold = example["gold_support_ids"]
    if not all(g in rank_of for g in gold):
        return None
    ranks = sorted(rank_of[g] for g in gold)
    return " & ".join(f"fact{r}" for r in ranks) + " -> answer"


def mixed_corpus(n_examples: int, seed: int) -> dict:
    """``synthetic_corpus`` with a seeded share of its evidence turned into
    captioned images or single-row tables, gold trees recomputed to match.

    An example whose converted gold evidence would fall outside the retrieval
    cut keeps its text evidence.
    """
    data = synthetic_corpus(n_examples, seed=seed, retrieval_top_n=RETRIEVAL_TOP_N)
    rng = random.Random(f"mixed-{seed}")
    for example in data["examples"]:
        converted = []
        for ev in example["evidence"]:
            draw = rng.random()
            if draw < IMAGE_SHARE:
                converted.append(_as_image(ev))
            elif draw < IMAGE_SHARE + TABLE_SHARE:
                converted.append(_as_table(ev))
            else:
                converted.append(ev)
        tree = _gold_tree({**example, "evidence": converted})
        if tree is not None:
            example["evidence"] = converted
            example["gold_tree"] = tree
    return data


def write_inputs(workload: Workload, seed: int, directory: Path) -> tuple[Path, Path]:
    """Write the workload's dataset and run config; return their paths."""
    if workload.corpus == "mixed":
        data = mixed_corpus(workload.examples, seed)
    else:
        data = synthetic_corpus(workload.examples, seed=seed)
    dataset, config = directory / "dataset.json", directory / "config.json"
    write_json(dataset, data)
    write_json(config, {"seed": seed, **workload.config})
    return dataset, config


# --- output check -------------------------------------------------------------------


def run_outputs(out: Path, dataset: Path) -> dict:
    """The quality figures of one finished run, read from its artifacts."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    predictions = json.loads((out / "predictions.json").read_text(encoding="utf-8"))
    gold = {
        ex["id"]: ex.get("gold_tree")
        for ex in json.loads(dataset.read_text(encoding="utf-8"))["examples"]
    }
    leaves = [
        score_tree(parse_tree(p["tree"]), parse_tree(gold[p["id"]])).leaves_correct
        for p in predictions["predictions"]
    ]
    iterations = manifest["iterations"]
    return {
        "examples": manifest["examples"],
        "failed": manifest["failed"],
        "predictions": len(leaves),
        "initial_loss": manifest["initial_loss"],
        "final_loss": manifest["final_loss"],
        "val_em": iterations[-1]["validation_em"] if iterations else None,
        "leaf_acc": sum(leaves) / len(leaves) if leaves else 0.0,
    }


# Quality anchors may move by this much (the acceptance suite's tolerance), so a
# change that reorders float sums passes while one that alters the model does not.
ANCHOR_TOL = 0.03


def check_outputs(
    outputs: dict, reference: dict | None, trained: bool, full_size: bool
) -> list[str]:
    """Problems with one run's outputs; empty when the run is correct.

    A full-size trained run must also halve its loss (acceptance criterion
    6). With a recorded reference for this workload and seed, the anchors
    must match it.
    """
    problems = []
    if outputs["failed"]:
        problems.append(f"failed examples {outputs['failed'][:5]}")
    if outputs["predictions"] != outputs["examples"]:
        problems.append(
            f"{outputs['predictions']} predictions for {outputs['examples']} examples"
        )
    if full_size and trained:
        if not outputs["final_loss"] <= 0.5 * outputs["initial_loss"]:
            problems.append(
                f"loss {outputs['initial_loss']} -> {outputs['final_loss']} did not halve"
            )
    if reference is not None:
        for key in ("final_loss", "val_em", "leaf_acc"):
            want, got = reference[key], outputs[key]
            if (want is None) != (got is None) or (
                want is not None and abs(want - got) > ANCHOR_TOL
            ):
                problems.append(f"{key} {got} differs from reference {want}")
    return problems


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("name", choices=list(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("directory", type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    workload = smoke(WORKLOADS[args.name]) if args.smoke else WORKLOADS[args.name]
    write_inputs(workload, args.seed, args.directory)


if __name__ == "__main__":
    main()
