import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from entailqa import cli, llm, moe, pipeline, synth
from entailqa.cli import cli_dispatch
from entailqa.dataset import (
    RunConfig,
    TrainingConfig,
    canonical_json,
    dataset_from_dict,
    load_dataset,
    load_run_config,
    read_json,
    run_config_from_dict,
    write_json,
)
from entailqa.errors import BackendError, SchemaError
from entailqa.llm import MockBackend
from entailqa.moe import MoeConfig, MoeParams
from entailqa.pipeline import build_train_items, stage1_states, train
from entailqa.synth import synthetic_corpus
from entailqa.tree import parse_tree, serialize_tree
from test_http_backend import BAD_ENDPOINTS


def _load_perfbench_server():
    """``perfbench/server.py``, the benchmark's loopback chat-completion stand-in."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "server.py"
    spec = importlib.util.spec_from_file_location("perfbench_server", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fixture_dict():
    return {
        "examples": [
            {
                "id": "a",
                "question": "what is the color of the falcon?",
                "answer": "crimson",
                "evidence": [
                    {"id": "e1", "modality": "text", "content": "the color of the falcon is crimson."}
                ],
                "gold_support_ids": ["e1"],
                "gold_tree": "fact1 -> answer",
            },
            {
                "id": "b",
                "question": "who won in 2010?",
                "answer": ["Super Saver", "super saver"],
                "evidence": [
                    {
                        "id": "t1",
                        "modality": "table",
                        "content": {"header": ["Season", "Winner"], "rows": [[2010, "Super Saver"]]},
                    }
                ],
            },
            {
                "id": "c",
                "question": "what color is the horse?",
                "answer": "brown",
                "evidence": [
                    {"id": "i1", "modality": "image", "content": "", "caption": "a brown horse", "gold": True}
                ],
            },
        ]
    }


class TestLoadDataset:
    def test_three_example_fixture(self, tmp_path):
        path = tmp_path / "ds.json"
        write_json(path, _fixture_dict())
        examples = load_dataset(path)
        assert [ex.id for ex in examples] == ["a", "b", "c"]
        assert examples[1].gold_answers() == ("Super Saver", "super saver")

    def test_table_cells_coerced_to_strings(self):
        examples = dataset_from_dict(_fixture_dict())
        table = examples[1].evidence[0].content
        assert table.rows[0][0] == "2010"
        data = _fixture_dict()
        data["examples"][1]["evidence"][0]["content"]["rows"][0][0] = 2010.5
        assert dataset_from_dict(data)[1].evidence[0].content.rows[0][0] == "2010.5"

    @pytest.mark.parametrize("cell", [None, True, False, {"a": 1}, [1]])
    @pytest.mark.parametrize(
        "where, pointer", [("header", "header/1"), ("row", "rows/1/0")]
    )
    def test_table_cell_that_is_not_a_string_or_number(self, cell, where, pointer):
        data = _fixture_dict()
        content = data["examples"][1]["evidence"][0]["content"]
        content["rows"].append([2011.0, "Animal Kingdom"])
        if where == "header":
            content["header"][1] = cell
        else:
            content["rows"][1][0] = cell
        with pytest.raises(SchemaError) as excinfo:
            dataset_from_dict(data)
        assert excinfo.value.pointer == f"/examples/1/evidence/0/content/{pointer}"

    def test_row_length_mismatch_pointer(self):
        data = _fixture_dict()
        data["examples"][1]["evidence"][0]["content"]["rows"] = [["2010"]]
        with pytest.raises(SchemaError) as excinfo:
            dataset_from_dict(data)
        assert "/examples/1/evidence/0/content/rows/0" in str(excinfo.value)

    def test_evidence_gold_key_is_ignored(self):
        data = _fixture_dict()
        data["examples"][2]["evidence"][0]["gold"] = "yes"
        assert dataset_from_dict(data) == dataset_from_dict(_fixture_dict())

    def test_duplicate_example_ids(self):
        data = _fixture_dict()
        data["examples"][1]["id"] = "a"
        with pytest.raises(SchemaError) as excinfo:
            dataset_from_dict(data)
        assert "duplicate example id" in str(excinfo.value)

    @pytest.mark.parametrize("bad_id", ["../escaped", "a/b", "a\\b", "a\0b", ".", ".."])
    def test_id_that_is_not_a_file_name(self, bad_id):
        data = _fixture_dict()
        data["examples"][1]["id"] = bad_id
        with pytest.raises(SchemaError) as excinfo:
            dataset_from_dict(data)
        assert excinfo.value.pointer == "/examples/1/id"

    def test_duplicate_evidence_ids(self):
        data = _fixture_dict()
        data["examples"][0]["evidence"].append(
            {"id": "e1", "modality": "text", "content": "again."}
        )
        with pytest.raises(SchemaError):
            dataset_from_dict(data)

    def test_unknown_support_id(self):
        data = _fixture_dict()
        data["examples"][0]["gold_support_ids"] = ["nope"]
        with pytest.raises(SchemaError) as excinfo:
            dataset_from_dict(data)
        assert "/examples/0/gold_support_ids/0" in str(excinfo.value)

    def test_bad_gold_tree(self):
        data = _fixture_dict()
        data["examples"][0]["gold_tree"] = "fact1 -> fact2"
        with pytest.raises(SchemaError):
            dataset_from_dict(data)

    def test_image_needs_caption(self):
        data = _fixture_dict()
        del data["examples"][2]["evidence"][0]["caption"]
        with pytest.raises(SchemaError):
            dataset_from_dict(data)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SchemaError):
            load_dataset(path)


@pytest.mark.parametrize(
    "function, parameter, default",
    [
        (llm.HttpBackend, "model", RunConfig.http_model),
        (llm.HttpBackend, "timeout", RunConfig.http_timeout),
        (llm.HttpBackend, "max_retries", RunConfig.http_max_retries),
        (pipeline.run_stage1, "top_n", RunConfig.retrieval_top_n),
        (pipeline.predict_states, "decode_answer_len", RunConfig.decode_answer_len),
        (pipeline.predict_pending, "decode_answer_len", RunConfig.decode_answer_len),
        (moe.backward_and_step, "weight_decay", TrainingConfig.weight_decay),
        (synth.synthetic_corpus, "retrieval_top_n", RunConfig.retrieval_top_n),
    ],
)
def test_keyword_default_is_the_config_default(function, parameter, default):
    assert inspect.signature(function).parameters[parameter].default == default


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.training.learning_rate == 1e-4
        assert config.training.batch_size_retrieval == 32
        assert config.training.batch_size_qa == 12
        assert config.iteration_budget == 2
        assert config.moe.top_k == 2
        assert MoeConfig() == config.moe
        assert run_config_from_dict({}) == config
        assert config.config_hash() == "22acfd7da60f"

    def test_file_seed_matches_library_seed(self):
        config, library = run_config_from_dict({"seed": 5}), RunConfig(seed=5)
        assert config == library
        a = MoeParams.init(config.moe, config.seed)
        b = MoeParams.init(library.moe, library.seed)
        for (name, x), (_, y) in zip(a.blocks(), b.blocks()):
            assert np.array_equal(x, y), name

    def test_deleted_http_max_in_flight_is_ignored(self):
        assert run_config_from_dict({"http_max_in_flight": 0}) == RunConfig()

    def test_deleted_min_delta_is_ignored(self):
        assert run_config_from_dict({"min_delta": 0.05}) == RunConfig()

    def test_hash_is_stable_and_sensitive(self):
        a = run_config_from_dict({"seed": 1})
        b = run_config_from_dict({"seed": 1})
        c = run_config_from_dict({"seed": 2})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        client = {"workers": 4, "http_timeout": 5.0, "http_max_retries": 0}
        assert run_config_from_dict({"seed": 1, **client}).config_hash() == a.config_hash()
        model = run_config_from_dict({"seed": 1, "http_model": "m-1"})
        assert model.config_hash() != a.config_hash()

    def test_invalid_values_are_schema_errors(self):
        for data in (
            {"backend": "carrier-pigeon"},
            {"seed": -1},
            {"moe": {"embed_dim": 0}},
            {"moe": {"top_k": 10}},
            {"moe": {"seed": 3}},
            {"retrieval_top_n": 0},
            {"decode_answer_len": 0},
            {"decode_answer_len": 600},
            {"decode_answer_len": 65, "moe": {"max_seq_len": 64}},
            {"validation_fraction": 0},
            {"validation_fraction": 1.5},
            {"http_timeout": 0},
            {"http_max_retries": -1},
            {"http_timeout": 1e12},
        ):
            with pytest.raises(SchemaError):
                run_config_from_dict(data)
        assert run_config_from_dict({"decode_answer_len": 512}).decode_answer_len == 512
        assert run_config_from_dict({"validation_fraction": 1}).validation_fraction == 1

    def test_round_trip_of_every_field(self):
        config = RunConfig(
            backend="http",
            seed=9,
            iteration_budget=4,
            validation_fraction=0.5,
            retrieval_top_n=3,
            decode_answer_len=5,
            workers=3,
            http_model="m-1",
            http_timeout=5.0,
            http_max_retries=4,
            moe=MoeConfig(
                embed_dim=12,
                vocab_size=300,
                n_frg_experts=3,
                n_qa_experts=1,
                n_shared_experts=1,
                top_k=1,
                max_seq_len=64,
            ),
            training=TrainingConfig(
                steps=7,
                learning_rate=0.5,
                batch_size_retrieval=5,
                batch_size_qa=3,
                weight_decay=0.2,
            ),
        )
        defaults = RunConfig()
        for part, default in (
            (config, defaults),
            (config.moe, defaults.moe),
            (config.training, defaults.training),
        ):
            for f in fields(part):
                assert getattr(part, f.name) != getattr(default, f.name), f.name
        assert run_config_from_dict(config.to_json_dict()) == config

    def test_whole_float_coerced_to_nested_int(self):
        config = run_config_from_dict({"moe": {"embed_dim": 8.0}, "seed": "7"})
        assert config.moe.embed_dim == 8 and type(config.moe.embed_dim) is int
        assert config.seed == 7

    @pytest.mark.parametrize(
        "data",
        [
            {"training": {"steps": 2.5}},
            {"training": {"batch_size_qa": 2.5}},
            {"workers": 2.5},
            {"workers": True},
            {"moe": {"top_k": True}},
            {"training": {"learning_rate": False}},
            {"http_model": True},
            {"http_model": None},
            {"http_model": [1]},
            {"backend": 5},
        ],
    )
    def test_nested_values_are_type_checked(self, data):
        with pytest.raises(SchemaError):
            run_config_from_dict(data)

    def test_dropped_validation_metric_key_is_ignored(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_json(path, {"seed": 3, "validation_metric": "accuracy"})
        config = load_run_config(path)
        assert config == run_config_from_dict({"seed": 3})
        assert "validation_metric" not in config.to_json_dict()


@pytest.fixture
def small_run(tmp_path):
    ds = tmp_path / "ds.json"
    write_json(ds, synthetic_corpus(6, seed=5))
    cfg = tmp_path / "cfg.json"
    write_json(
        cfg,
        {
            "seed": 5,
            "backend": "mock",
            "moe": {
                "embed_dim": 8,
                "vocab_size": 256,
                "n_frg_experts": 2,
                "n_qa_experts": 2,
                "n_shared_experts": 2,
                "max_seq_len": 512,
            },
            "training": {
                "steps": 15,
                "learning_rate": 1e-2,
                "batch_size_retrieval": 6,
                "batch_size_qa": 4,
            },
        },
    )
    return ds, cfg, tmp_path


# The file in which each dataset command lists its failed example ids.
_FAILED_LIST = {
    "refine-tree": "tree.manifest.json",
    "train": "training.json",
    "run-pipeline": "manifest.json",
}


class TestCli:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        for command in ("frobnicate", "build-factbase", "gen-tree", "route-demo"):
            assert cli_dispatch([command]) == 1, command
            assert "usage error" in capsys.readouterr().err

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        rc = cli_dispatch(["run-pipeline", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_bad_config_is_data_error(self, small_run, tmp_path):
        ds, _, _ = small_run
        bad = tmp_path / "bad_cfg.json"
        bad.write_text('{"backend": "smoke-signals"}')
        assert cli_dispatch(["run-pipeline", str(ds), "--config", str(bad)]) == 2

    def test_invalid_json_config_is_data_error(self, small_run, tmp_path):
        ds, _, _ = small_run
        bad = tmp_path / "bad_cfg.json"
        bad.write_text("{not json")
        assert cli_dispatch(["run-pipeline", str(ds), "--config", str(bad)]) == 2

    @pytest.mark.parametrize("which", ["dataset", "config"])
    def test_too_deeply_nested_json_is_data_error(self, small_run, tmp_path, capsys, which):
        ds, cfg, _ = small_run
        deep = {"dataset": ds, "config": cfg}[which]
        deep.write_text('{"examples": ' + "[" * 100_000 + "]" * 100_000 + "}")
        argv = ["run-pipeline", str(ds), "--config", str(cfg), "--out", str(tmp_path / "run")]
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: not valid JSON") and "Traceback" not in err

    def test_non_utf8_dataset_is_data_error(self, tmp_path, capsys):
        ds = tmp_path / "ds.json"
        ds.write_bytes(b"\xff\xfe" + json.dumps(synthetic_corpus(1)).encode("utf-16-le"))
        assert cli_dispatch(["run-pipeline", str(ds), "--out", str(tmp_path / "run")]) == 2
        assert "data error" in capsys.readouterr().err

    def test_non_object_config_is_data_error(self, small_run, tmp_path):
        ds, _, _ = small_run
        bad = tmp_path / "bad_cfg.json"
        bad.write_text("[]")
        assert cli_dispatch(["run-pipeline", str(ds), "--config", str(bad)]) == 2

    def test_fractional_steps_is_data_error(self, small_run, tmp_path):
        ds, cfg, _ = small_run
        data = json.loads(cfg.read_text())
        data["training"]["steps"] = 2.5
        bad = tmp_path / "bad_cfg.json"
        write_json(bad, data)
        assert cli_dispatch(["run-pipeline", str(ds), "--config", str(bad)]) == 2

    def test_out_of_range_setting_is_data_error(self, small_run, tmp_path, capsys):
        ds, cfg, _ = small_run
        data = json.loads(cfg.read_text())
        data["retrieval_top_n"] = 0
        bad = tmp_path / "bad_cfg.json"
        write_json(bad, data)
        assert cli_dispatch(["run-pipeline", str(ds), "--config", str(bad)]) == 2
        assert "retrieval_top_n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            '{"training": {"learning_rate": NaN}}',
            '{"validation_fraction": -Infinity}',
            '{"validation_fraction": 1e999}',
            '{"training": {"learning_rate": "nan"}}',
            '{"validation_fraction": "-inf"}',
        ],
    )
    def test_non_finite_number_is_data_error(self, small_run, tmp_path, capsys, text):
        ds, _, _ = small_run
        bad = tmp_path / "bad_cfg.json"
        bad.write_text(text)
        assert cli_dispatch(["run-pipeline", str(ds), "--config", str(bad)]) == 2
        assert "not a finite number" in capsys.readouterr().err

    def test_negative_weight_decay_is_data_error(self, small_run, tmp_path, capsys):
        ds, cfg, _ = small_run
        data = json.loads(cfg.read_text())
        data["training"]["weight_decay"] = -1
        bad = tmp_path / "bad_cfg.json"
        write_json(bad, data)
        assert cli_dispatch(["run-pipeline", str(ds), "--config", str(bad)]) == 2
        assert "weight_decay" in capsys.readouterr().err

    def test_run_pipeline_writes_artifacts(self, small_run):
        ds, cfg, tmp_path = small_run
        out = tmp_path / "run"
        rc = cli_dispatch(["run-pipeline", str(ds), "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["examples"] == 6
        assert manifest["config_hash"]
        assert (out / "predictions.json").exists()
        state = json.loads((out / "syn0000.state.json").read_text())
        assert state["config_hash"] == manifest["config_hash"]
        assert state["seed"] == 5

    @pytest.mark.parametrize("command", ["run-pipeline", "refine-tree"])
    @pytest.mark.parametrize("bad_id", ["../escaped", "a/b"])
    def test_id_that_is_not_a_file_name_is_data_error(self, small_run, capsys, command, bad_id):
        ds, cfg, tmp_path = small_run
        data = json.loads(ds.read_text())
        data["examples"][0]["id"] = bad_id
        write_json(ds, data)
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "out"
        rc = cli_dispatch([command, str(ds), "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "/examples/0/id" in capsys.readouterr().err
        assert sorted(p for p in tmp_path.rglob("*") if out not in (p, *p.parents)) == before

    def test_multiline_text_evidence_runs(self, small_run):
        """A text passage that starts with a newline gives the same artifacts
        as the passage without it."""
        ds, cfg, tmp_path = small_run
        plain = self._run_at(small_run, "plain")
        data = json.loads(ds.read_text())
        texts = [ev for ex in data["examples"] for ev in ex["evidence"] if ev["modality"] == "text"]
        assert texts
        for ev in texts:
            ev["content"] = "\n" + ev["content"]
        write_json(ds, data)
        multiline = self._run_at(small_run, "multiline")
        names = sorted(p.name for p in plain.iterdir())
        assert names == sorted(p.name for p in multiline.iterdir())
        for name in names:
            assert (multiline / name).read_bytes() == (plain / name).read_bytes(), name

    def _run_with(self, small_run, edit):
        """run-pipeline on the small corpus after ``edit`` changes one example."""
        ds, cfg, tmp_path = small_run
        data = json.loads(ds.read_text())
        bad = data["examples"][2]
        edit(bad)
        write_json(ds, data)
        out = tmp_path / "run"
        rc = cli_dispatch(["run-pipeline", str(ds), "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed"] == [bad["id"]]
        predictions = json.loads((out / "predictions.json").read_text())["predictions"]
        assert len(predictions) == 5
        assert bad["id"] not in {p["id"] for p in predictions}
        return json.loads((out / f"{bad['id']}.state.json").read_text())

    def test_too_long_example_fails_alone(self, small_run):
        def lengthen(example):
            example["question"] = "why " * 600 + example["question"]

        state = self._run_with(small_run, lengthen)
        assert state["error"].startswith("SequenceTooLong:")
        assert state["predicted_answers"] == []

    def test_empty_evidence_fails_alone(self, small_run):
        def strip(example):
            example["evidence"] = []
            del example["gold_support_ids"]
            del example["gold_tree"]

        state = self._run_with(small_run, strip)
        assert state["error"].startswith("EmptyEvidence:")

    def _run_at(self, small_run, name, command="run-pipeline", **overrides):
        ds, cfg, tmp_path = small_run
        config = tmp_path / f"{name}.json"
        write_json(config, {**json.loads(cfg.read_text()), **overrides})
        out = tmp_path / name
        rc = cli_dispatch([command, str(ds), "--config", str(config), "--out", str(out)])
        assert rc == 0
        return out

    def _same_at_one_and_four_workers(self, small_run, command="run-pipeline"):
        one = self._run_at(small_run, "w1", command, workers=1)
        four = self._run_at(small_run, "w4", command, workers=4)
        names = sorted(p.name for p in one.iterdir())
        assert names == sorted(p.name for p in four.iterdir())
        for name in names:
            assert (four / name).read_bytes() == (one / name).read_bytes(), name

    def test_artifacts_do_not_depend_on_workers(self, small_run):
        self._same_at_one_and_four_workers(small_run)

    @pytest.mark.parametrize("command", ["refine-tree"])
    def test_stage1_artifacts_do_not_depend_on_workers(self, small_run, command):
        self._same_at_one_and_four_workers(small_run, command)

    def test_artifacts_do_not_depend_on_the_blas_kernel(self, small_run):
        """Criterion 10's fixture under two forced OpenBLAS kernels writes a
        byte-identical ``predictions.json``; in the other files only floats
        may differ, by at most 1e-12 relative (the kernels sum in different
        orders)."""
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
            pytest.skip("numpy's BLAS is not OpenBLAS built with DYNAMIC_ARCH")
        cpuinfo = Path("/proc/cpuinfo")
        if not cpuinfo.exists() or " avx2" not in cpuinfo.read_text():
            pytest.skip("the Haswell kernel needs an x86-64 CPU with AVX2")
        ds, cfg, tmp_path = small_run
        src = Path(__file__).resolve().parent.parent / "src"
        runs = []
        for kernel in ("Haswell", "Sandybridge"):
            out = tmp_path / kernel
            env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_VERBOSE="2")
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
            argv = ["run-pipeline", str(ds), "--config", str(cfg), "--out", str(out)]
            code = "import sys; from entailqa.cli import cli_dispatch; sys.exit(cli_dispatch(sys.argv[1:]))"
            proc = subprocess.run(
                [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            assert f"Core: {kernel}" in proc.stderr  # the kernel was really forced
            runs.append(out)
        first, second = runs
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert (first / "predictions.json").read_bytes() == (second / "predictions.json").read_bytes()

        def close(a, b):
            if isinstance(a, float) and isinstance(b, float):
                return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
            if isinstance(a, dict) and isinstance(b, dict):
                return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
            if isinstance(a, list) and isinstance(b, list):
                return len(a) == len(b) and all(map(close, a, b))
            return type(a) is type(b) and a == b

        for name in names:
            assert close(read_json(first / name), read_json(second / name)), name

    def test_http_exchange_log_is_deterministic(self, small_run, monkeypatch):
        server = _load_perfbench_server().make_server()
        threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        ).start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
            monkeypatch.setenv("ENTAIL_LLM_ENDPOINT", url)
            runs = [
                self._run_at(small_run, name, backend="http", workers=2)
                for name in ("http1", "http2")
            ]
        finally:
            server.shutdown()
            server.server_close()
        first, second = ((out / "exchanges.json").read_bytes() for out in runs)
        assert first == second
        log = json.loads(first)["log"]
        assert log == sorted(log, key=lambda e: (e["tag"], e["prompt"]))
        assert {e["tag"] for e in log} >= {"tree_structure", "feedback"}
        # an example whose feedback repeats at a later iteration is not asked
        # again, so no feedback prompt is sent twice
        converged = 0
        for path in runs[0].glob("*.state.json"):
            state = json.loads(path.read_text())
            feedback = list(zip(state["retrieved_fact_ids"], state["predicted_answers"]))
            converged += any(
                feedback[k] == feedback[k - 1]
                for k in range(1, len(state["tree_versions"]) - 1)
            )
        assert converged
        prompts = [e["prompt"] for e in log if e["tag"] == "feedback"]
        assert len(prompts) == len(set(prompts))

    def test_build_factbase_and_trees(self, small_run):
        """refine-tree writes each example's stamped stage-1 fact base and
        tree, as ``stage1_states`` builds them on the same inputs."""
        ds, cfg, _ = small_run
        out = self._run_at(small_run, "refine", "refine-tree")
        config = load_run_config(cfg)
        stamp = {"config_hash": config.config_hash(), "seed": config.seed}
        for qid, state in stage1_states(load_dataset(ds), config, MockBackend()).items():
            tree = state.tree_versions[0].to_json_dict()
            assert read_json(out / f"{qid}.factbase.json") == {**stamp, **state.base.to_json_dict()}
            assert read_json(out / f"{qid}.tree.json") == {**stamp, **tree}

    def test_refine_tree_writes_the_stage1_structure(self, small_run, monkeypatch):
        ds, cfg, tmp_path = small_run
        tags = []
        complete = MockBackend.complete

        def counting(self, request):
            tags.append(request.tag)
            return complete(self, request)

        monkeypatch.setattr(MockBackend, "complete", counting)
        out = tmp_path / "refine"
        rc = cli_dispatch(["refine-tree", str(ds), "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert tags.count("tree_structure") == 6  # one per example
        for example in load_dataset(ds):
            dsl = json.loads((out / f"{example.id}.tree.json").read_text())["dsl"]
            assert serialize_tree(parse_tree(dsl)) == dsl

    def test_train_writes_checkpoint(self, small_run):
        ds, cfg, tmp_path = small_run
        out = tmp_path / "trainout"
        rc = cli_dispatch(["train", str(ds), "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        checkpoint = json.loads((out / "checkpoint.json").read_text())
        assert checkpoint["format"] == "entailqa-checkpoint-v1"
        curve = json.loads((out / "training.json").read_text())["loss_curve"]
        assert len(curve) == 15

    def test_train_lists_failed_examples(self, small_run):
        ds, cfg, tmp_path = small_run
        data = json.loads(ds.read_text())
        no_evidence, too_long = data["examples"][1], data["examples"][3]
        no_evidence["evidence"] = []  # fails stage 1
        del no_evidence["gold_support_ids"]
        del no_evidence["gold_tree"]
        too_long["question"] = "why " * 600 + too_long["question"]  # fails its train item
        write_json(ds, data)
        failed = {}
        for command, artifact in (("train", "training.json"), ("run-pipeline", "manifest.json")):
            out = tmp_path / command
            rc = cli_dispatch([command, str(ds), "--config", str(cfg), "--out", str(out)])
            assert rc == 0
            failed[command] = json.loads((out / artifact).read_text())["failed"]
        assert failed["train"] == failed["run-pipeline"] == [no_evidence["id"], too_long["id"]]

    def test_train_with_no_item_left_is_data_error(self, small_run, capsys):
        ds, cfg, tmp_path = small_run
        data = synthetic_corpus(3, seed=1)
        for example in data["examples"]:
            example["evidence"] = []
            del example["gold_support_ids"]
            del example["gold_tree"]
        write_json(ds, data)
        out = tmp_path / "train-none"
        rc = cli_dispatch(["train", str(ds), "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "data error" in capsys.readouterr().err
        assert not (out / "checkpoint.json").exists()
        training = json.loads((out / "training.json").read_text())
        assert training["steps"] == 0
        assert training["failed"] == sorted(ex["id"] for ex in data["examples"])

    def test_run_pipeline_with_no_example_left_is_data_error(self, small_run, capsys):
        ds, cfg, tmp_path = small_run
        data = synthetic_corpus(3, seed=1)
        for example in data["examples"]:
            example["evidence"] = []
            del example["gold_support_ids"]
            del example["gold_tree"]
        write_json(ds, data)
        out = tmp_path / "run-none"
        rc = cli_dispatch(["run-pipeline", str(ds), "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "data error: no example is left" in capsys.readouterr().err
        assert not (out / "predictions.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed"] == sorted(ex["id"] for ex in data["examples"])
        for example in data["examples"]:
            state = json.loads((out / f"{example['id']}.state.json").read_text())
            assert state["error"].startswith("EmptyEvidence")

    @pytest.mark.parametrize(
        "steps, message", [(1, "no example is left"), (15, "loss is nan")]
    )
    def test_diverging_run_is_one_data_error(self, small_run, capsys, steps, message):
        """A learning rate that overflows the parameters ends the run with one
        stderr line and no numpy warning: after one step every decode is
        non-finite and fails its example, and a later step's loss is NaN. No
        file holds a non-finite number."""
        ds, cfg, tmp_path = small_run
        config = json.loads(cfg.read_text())
        config["training"].update(steps=steps, learning_rate=1e300)
        write_json(cfg, config)
        out = tmp_path / "diverged"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli_dispatch(["run-pipeline", str(ds), "--config", str(cfg), "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        assert rc == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not (out / "predictions.json").exists()
        written = sorted(out.iterdir()) if out.exists() else []
        for path in written:
            read_json(path)
        if steps == 1:
            assert len(written) == 7  # the manifest and six states
            for path in written:
                if path.name.endswith(".state.json"):
                    assert read_json(path)["error"].startswith("NonFiniteLoss")

    def _strip_evidence(self, ds, which):
        """Empty the evidence of each example whose index ``which`` accepts;
        returns every example id."""
        data = json.loads(ds.read_text())
        for i, example in enumerate(data["examples"]):
            if which(i):
                example["evidence"] = []
                del example["gold_support_ids"], example["gold_tree"]
        write_json(ds, data)
        return [ex["id"] for ex in data["examples"]]

    @pytest.mark.parametrize("command", sorted(_FAILED_LIST))
    def test_one_failed_example_fails_alone(self, small_run, command):
        ds, cfg, tmp_path = small_run
        ids = self._strip_evidence(ds, lambda i: i == 2)
        bad, left = ids[2], ids[:2] + ids[3:]
        out = tmp_path / "out"
        assert cli_dispatch([command, str(ds), "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / _FAILED_LIST[command]).read_text())["failed"] == [bad]
        if command == "train":
            assert (out / "checkpoint.json").exists()
        elif command == "run-pipeline":
            predictions = json.loads((out / "predictions.json").read_text())["predictions"]
            assert [p["id"] for p in predictions] == left
        else:
            for suffix in ("factbase", "tree"):
                written = sorted(p.name for p in out.glob(f"*.{suffix}.json"))
                assert written == [f"{i}.{suffix}.json" for i in left]

    @pytest.mark.parametrize(
        "fault, code",
        [
            ("EmptyEvidence", 2),
            ("BackendError", 3),
            ("ParseError", 3),
            ("mixed", 2),  # one EmptyEvidence, the rest BackendError
            ("no-examples", 2),
        ],
    )
    @pytest.mark.parametrize("command", sorted(_FAILED_LIST))
    def test_no_example_left(self, small_run, capsys, monkeypatch, command, fault, code):
        ds, cfg, tmp_path = small_run
        if fault == "no-examples":
            write_json(ds, {"examples": []})
        strip = {"EmptyEvidence": lambda i: True, "mixed": lambda i: i == 0}
        ids = self._strip_evidence(ds, strip.get(fault, lambda i: False))

        def down(self, request):
            raise BackendError("backend is down")

        if fault in ("BackendError", "mixed"):
            monkeypatch.setattr(MockBackend, "complete", down)
        elif fault == "ParseError":
            monkeypatch.setattr(MockBackend, "complete", lambda self, request: "")
        out = tmp_path / "out"
        assert cli_dispatch([command, str(ds), "--config", str(cfg), "--out", str(out)]) == code
        kind = "backend" if code == 3 else "data"
        assert capsys.readouterr().err == f"{kind} error: no example is left\n"
        assert json.loads((out / _FAILED_LIST[command]).read_text())["failed"] == sorted(ids)
        assert not (out / "checkpoint.json").exists()
        assert not (out / "predictions.json").exists()
        if command == "refine-tree":
            assert [p.name for p in out.iterdir()] == [_FAILED_LIST[command]]

    @pytest.mark.parametrize("command", sorted(_FAILED_LIST))
    def test_http_without_endpoint_is_backend_error(self, small_run, monkeypatch, capsys, command):
        """An endpoint that no request can reach exits 3 before anything is
        written, and stderr does not show its password."""
        ds, cfg, tmp_path = small_run
        for i, endpoint in enumerate(BAD_ENDPOINTS):
            if endpoint is None:
                monkeypatch.delenv("ENTAIL_LLM_ENDPOINT", raising=False)
            else:
                monkeypatch.setenv("ENTAIL_LLM_ENDPOINT", endpoint)
            out = tmp_path / f"out{i}"
            argv = [command, str(ds), "--config", str(cfg), "--backend", "http", "--out", str(out)]
            assert cli_dispatch(argv) == 3, endpoint
            assert "s3cret" not in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command", sorted(_FAILED_LIST))
    def test_http_key_no_header_can_carry_is_backend_error(self, small_run, monkeypatch, capsys, command):
        """A key with a newline exits 3 before any request or artifact, and
        no stderr line shows it."""
        ds, cfg, tmp_path = small_run
        monkeypatch.setenv("ENTAIL_LLM_ENDPOINT", "http://127.0.0.1:9/x")
        monkeypatch.setenv("ENTAIL_LLM_KEY", "sk-secret\n")
        out = tmp_path / "out"
        argv = [command, str(ds), "--config", str(cfg), "--backend", "http", "--out", str(out)]
        assert cli_dispatch(argv) == 3
        err = capsys.readouterr().err
        assert "ENTAIL_LLM_KEY" in err and "secret" not in err
        assert not out.exists()

    def test_eval_consumes_run_output(self, small_run, capsys):
        ds, cfg, tmp_path = small_run
        out = tmp_path / "run"
        cli_dispatch(["run-pipeline", str(ds), "--config", str(cfg), "--out", str(out)])
        argv = ["eval", "--pred", str(out / "predictions.json"), "--gold", str(ds), "--out"]
        assert cli_dispatch(argv + [str(tmp_path / "eval")]) == 0
        report = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        for key in ("em", "f1", "retrieval", "tree", "count"):
            assert key in report
        # an unusable --out fails before the report is printed
        capsys.readouterr()
        assert cli_dispatch(argv + [str(out / "manifest.json")]) == 2
        assert capsys.readouterr().out == ""

    def _eval(self, small_run, pred_text):
        ds, _, tmp_path = small_run
        pred = tmp_path / "pred.json"
        pred.write_text(pred_text)
        return cli_dispatch(
            ["eval", "--pred", str(pred), "--gold", str(ds), "--out", str(tmp_path / "eval")]
        )

    def test_eval_invalid_json_is_data_error(self, small_run):
        assert self._eval(small_run, "{nope") == 2

    @pytest.mark.parametrize(
        "entry, pointer",
        [
            ("x", "/predictions/0"),
            ({"id": "syn0000", "answer": 5}, "/predictions/0/answer"),
            (
                {"id": "syn0000", "answer": "a", "retrieved_evidence_ids": 3},
                "/predictions/0/retrieved_evidence_ids",
            ),
            ({"answer": "a"}, "/predictions/0/id"),
            ({"id": "nope", "answer": "a"}, "/predictions/0/id"),
        ],
    )
    def test_eval_malformed_prediction_is_data_error(self, small_run, capsys, entry, pointer):
        assert self._eval(small_run, json.dumps({"predictions": [entry]})) == 2
        assert f"(at {pointer})" in capsys.readouterr().err

    def test_eval_duplicate_prediction_id_is_data_error(self, small_run, capsys):
        right = {"id": "syn0000", "answer": "a"}
        wrong = {"id": "syn0001", "answer": "b"}
        assert self._eval(small_run, json.dumps([right, wrong, right, right])) == 2
        assert "duplicate prediction id 'syn0000' (at /predictions/2/id)" in capsys.readouterr().err

    def test_negative_seed_flag_is_data_error(self, small_run, capsys):
        ds, cfg, tmp_path = small_run
        out = tmp_path / "out"
        eval_argv = ["eval", "--pred", str(tmp_path / "pred.json"), "--gold", str(ds)]
        for argv in (["train", str(ds)], ["run-pipeline", str(ds)], eval_argv):
            argv += ["--config", str(cfg), "--seed", "-1", "--out", str(out)]
            assert cli_dispatch(argv) == 2
            err = capsys.readouterr().err
            assert err == "data error: invalid run config: seed must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(_FAILED_LIST))
    def test_unusable_out_fails_before_any_backend_call(
        self, small_run, capsys, monkeypatch, command
    ):
        ds, cfg, tmp_path = small_run
        calls = []
        complete = MockBackend.complete

        def counted(self, request):
            calls.append(request)
            return complete(self, request)

        monkeypatch.setattr(MockBackend, "complete", counted)
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        argv = [command, str(ds), "--config", str(cfg), "--out", str(afile)]
        assert cli_dispatch(argv) == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert calls == []
        assert afile.read_text() == "not a directory\n"

    def test_train_checkpoint_loads_back_bit_for_bit(self, small_run):
        ds, cfg, tmp_path = small_run
        write_json(ds, synthetic_corpus(4, seed=5))
        data = read_json(cfg)
        data["training"]["steps"] = 3
        write_json(cfg, data)
        out = tmp_path / "trainout"
        assert cli_dispatch(["train", str(ds), "--config", str(cfg), "--out", str(out)]) == 0
        loaded = MoeParams.from_state_dict(read_json(out / "checkpoint.json"))

        config = load_run_config(cfg)
        examples = load_dataset(ds)
        states = stage1_states(examples, config, MockBackend())
        expected = MoeParams.init(config.moe, config.seed)
        train(expected, config, build_train_items(examples, states, config.moe))
        assert loaded.config == config.moe
        assert not np.array_equal(expected.gate_a, MoeParams.init(config.moe, config.seed).gate_a)
        for (name, got), (_, want) in zip(loaded.blocks(), expected.blocks(), strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_seed_flag_overrides(self, small_run):
        """--seed and --backend give the config of the file with those keys
        set, and the file is still checked first."""
        ds, cfg, tmp_path = small_run
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        cli_dispatch(["run-pipeline", str(ds), "--config", str(cfg), "--seed", "5", "--out", str(out1)])
        cli_dispatch(["run-pipeline", str(ds), "--config", str(cfg), "--seed", "6", "--out", str(out2)])
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["seed"] == 5 and m2["seed"] == 6
        assert m1["config_hash"] != m2["config_hash"]
        data = {"seed": 11, "backend": "http", "moe": {"vocab_size": 512}}
        write_json(cfg, data)
        pred = tmp_path / "pred.json"
        write_json(pred, {"predictions": []})
        argv = ["eval", "--pred", str(pred), "--gold", str(ds), "--config", str(cfg), "--seed", "3"]
        argv += ["--out", str(tmp_path / "eval")]
        config = cli._load_config(cli._build_parser().parse_args(argv + ["--backend", "mock"]))
        assert config == run_config_from_dict({**data, "seed": 3, "backend": "mock"})
        assert cli_dispatch(argv) == 0
        write_json(cfg, {"seed": -1})
        assert cli_dispatch(argv) == 2

    def test_module_runs_as_a_script(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        argv = ["eval", "--pred", "nope.json", "--gold", "nope.json"]
        proc = subprocess.run(
            [sys.executable, "-m", "entailqa.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("data error: ")


def test_canonical_json_sorted_and_newline():
    text = canonical_json({"b": 1, "a": [1.5, 2]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def test_write_json_writes_the_canonical_bytes(tmp_path):
    obj = {
        "z": [1, -2.5, 1e-300, None, [[], [True, False]], {}],
        "a": {"naïve": "漢字 – ok", "b": None, "A": [0.1, {"y": 2, "x": "\n\"q\""}]},
    }
    path = tmp_path / "out.json"
    write_json(path, obj)
    assert path.read_bytes() == canonical_json(obj).encode("utf-8")
    assert "漢字" in canonical_json(obj)


def test_write_json_holds_no_copy_of_the_file(tmp_path):
    """The file is streamed: peak allocation while writing stays below a
    quarter of its size (building the whole text first holds ~3 copies)."""
    payload = {
        "log": [
            {"prompt": f"prompt {i}: " + "x" * 200, "response": "y" * 100, "tag": "t"}
            for i in range(14_000)
        ]
    }
    path = tmp_path / "big.json"
    tracemalloc.start()
    try:
        write_json(path, payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 4 * 2**20
    assert peak < size / 4, (peak, size)


def _readme_json_after(heading: str):
    """The first JSON code block after ``heading`` in the README."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text[text.index(heading):].split("```json\n", 1)[1].split("```", 1)[0]
    return json.loads(block)


def test_readme_examples_load():
    assert len(dataset_from_dict(_readme_json_after("### Dataset format"))) == 1
    data = _readme_json_after("### Config format")
    run_config_from_dict(data)
    # the loader ignores unknown top-level keys; the example must name none
    assert set(data) <= {f.name for f in fields(RunConfig)}


def test_data_and_prompt_layers_import_without_numpy():
    """The package and its data and prompt modules load neither numpy, the
    MoE core nor the thread pool; ``cli`` loads all of them, and ``moe``
    re-exports the config from ``dataset``. A fresh interpreter, because
    pytest's own process has already loaded them."""
    heavy = ("numpy", "entailqa.moe", "entailqa.pipeline", "concurrent.futures")
    child = f"""
import importlib, json, sys
import entailqa
for name in ("tree", "facts", "metrics", "errors", "dataset", "synth", "llm", "refine"):
    importlib.import_module("entailqa." + name)
light = [m for m in {heavy!r} if m in sys.modules]
import entailqa.cli, entailqa.dataset, entailqa.moe
full = [m for m in {heavy!r} if m in sys.modules]
print(json.dumps([light, full, entailqa.moe.MoeConfig is entailqa.dataset.MoeConfig]))
"""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], list(heavy), True]
