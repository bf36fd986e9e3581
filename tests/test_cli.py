"""End-to-end command-line behaviour: exit codes, artifacts, reproducibility."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sml import autodiff as ad
from sml import baselines, data, evaluation, index, losses, sampling, synth, trainer
from sml.cli import build_parser, main, train_configs
from sml.encoders import ModelConfig

REPO = Path(__file__).resolve().parent.parent


def write_events_csv(path, sessions):
    """sessions: list of (session_id, [item ids]) with synthetic timestamps."""
    lines = ["session_id,timestamp,item_id"]
    t = 0
    for sid, items in sessions:
        for item in items:
            lines.append(f"{sid},{t},{item}")
            t += 1
    path.write_text("\n".join(lines) + "\n")


def write_corpus_csv(directory):
    # ten sessions cycling through eight items; every item occurs often
    sessions = [(f"s{k}", [f"i{(k + j) % 8}" for j in range(3 + k % 3)])
                for k in range(10)]
    path = directory / "events.csv"
    write_events_csv(path, sessions)
    return path


def write_sessions_jsonl(path, sessions):
    """sessions: lists of item ids, written in chronological order."""
    path.write_text("".join(
        json.dumps({"id": f"s{k}", "items": items,
                    "timestamps": [100 * k + j for j in range(len(items))]}) + "\n"
        for k, items in enumerate(sessions)))


@pytest.fixture
def corpus_csv(tmp_path):
    return write_corpus_csv(tmp_path)


def run_preprocess(tmp_path, corpus_csv, out_name="out"):
    out_dir = tmp_path / out_name
    code = main(["preprocess", "--input", str(corpus_csv),
                 "--out-dir", str(out_dir), "--min-item-count", "1",
                 "--test-fraction", "0.2"])
    assert code == 0
    return out_dir


class TestExitCodes:
    def test_no_arguments_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "preprocess" in capsys.readouterr().out

    def test_missing_required_flag_is_usage_error(self):
        assert main(["train", "--train", "x.jsonl"]) == 1

    def test_missing_input_file_is_data_error(self, tmp_path):
        code = main(["preprocess", "--input", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2

    def test_missing_model_file_is_data_error(self, tmp_path):
        code = main(["recommend", "--model", str(tmp_path / "nope.bin"),
                     "--items", "i0"])
        assert code == 2

    def test_bad_seed_env_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("SML_SEED", "not-a-number")
        assert main(["--help"]) == 1


class TestSeedEnv:
    def test_env_sets_default_seed(self, monkeypatch):
        monkeypatch.setenv("SML_SEED", "42")
        args = build_parser().parse_args(
            ["train", "--train", "x", "--model-out", "y"])
        assert args.seed == 42

    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv("SML_SEED", "42")
        args = build_parser().parse_args(
            ["train", "--train", "x", "--model-out", "y", "--seed", "7"])
        assert args.seed == 7

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--method", "POP", "--test", "t", "--seed", "1"],
        ["recommend", "--model", "m", "--items", "i0", "--seed", "1"],
    ])
    def test_only_train_takes_a_seed(self, argv, capsys):
        assert main(argv) == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


class TestTrainConfigs:
    """The train flags fill the config dataclasses, whose defaults they keep."""

    def parse(self, *flags):
        return build_parser().parse_args(
            ["train", "--train", "x", "--model-out", "y", *flags])

    def test_minimal_command_gives_the_config_defaults(self, monkeypatch):
        monkeypatch.setenv("SML_SEED", "42")
        model_cfg, loss_cfg, sampler_cfg, train_cfg = train_configs(
            self.parse(), vocab_size=9)
        assert model_cfg == ModelConfig(vocab_size=9)
        assert loss_cfg == losses.LossConfig()
        assert sampler_cfg == sampling.SamplerConfig(rng_seed=42)
        assert train_cfg == trainer.TrainConfig()

    def test_renamed_flags_reach_their_fields(self):
        model_cfg, loss_cfg, sampler_cfg, train_cfg = train_configs(
            self.parse("--dim", "16", "--encoder", "GRU", "--loss", "NCAS",
                       "--lr", "0.5", "--margin", "0", "--no-position-weighting",
                       "--conv-filter-sizes", "2,4", "--knn-k", "3",
                       "--seed", "5"),
            vocab_size=9)
        assert model_cfg == ModelConfig(vocab_size=9, embedding_dim=16,
                                        encoder_kind="GRU",
                                        conv_filter_sizes=(2, 4))
        assert loss_cfg == losses.LossConfig(kind="NCAS", margin=0.0,
                                             position_weighting=False)
        assert sampler_cfg == sampling.SamplerConfig(knn_k=3, rng_seed=5)
        assert train_cfg == trainer.TrainConfig(learning_rate=0.5)


class TestPreprocess:
    def test_writes_expected_artifacts(self, tmp_path, corpus_csv):
        out_dir = run_preprocess(tmp_path, corpus_csv)
        for name in ("train.jsonl", "test.jsonl", "summary.json"):
            assert (out_dir / name).exists()

    def test_summary_counts_match_hand_count(self, tmp_path, corpus_csv, capsys):
        out_dir = run_preprocess(tmp_path, corpus_csv)
        summary = json.loads((out_dir / "summary.json").read_text())
        # 10 sessions with lengths 3,4,5,3,4,5,3,4,5,3 -> 39 events
        assert summary["input"] == {"events": 39, "sessions": 10, "items": 8}
        assert summary["preprocessed"]["sessions"] == 10
        assert summary["train"]["sessions"] == 8
        assert summary["test"]["sessions"] <= 2
        assert json.loads(capsys.readouterr().out) == summary

    def test_rerun_is_byte_identical(self, tmp_path, corpus_csv):
        a = run_preprocess(tmp_path, corpus_csv, "a")
        b = run_preprocess(tmp_path, corpus_csv, "b")
        for name in ("train.jsonl", "test.jsonl", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_header_only_input_is_data_error(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("session_id,timestamp,item_id\n")
        assert main(["preprocess", "--input", str(src),
                     "--out-dir", str(tmp_path / "out")]) == 2


class TestStats:
    def test_writes_tsvs(self, tmp_path, corpus_csv, capsys):
        out_dir = run_preprocess(tmp_path, corpus_csv)
        stats_dir = tmp_path / "stats"
        code = main(["stats", "--sessions", str(out_dir / "train.jsonl"),
                     "--out-dir", str(stats_dir)])
        assert code == 0
        hist = (stats_dir / "length_histogram.tsv").read_text()
        assert hist.startswith("length\tcount")
        assert (stats_dir / "repeat_fractions.tsv").exists()
        assert "sessions\t8" in capsys.readouterr().out

    def test_one_item_sessions_are_not_counted(self, tmp_path, capsys):
        path = tmp_path / "sessions.jsonl"
        write_sessions_jsonl(path, [["a", "b"], ["c"], ["b", "a", "b"]])
        assert main(["stats", "--sessions", str(path),
                     "--out-dir", str(tmp_path / "stats")]) == 0
        assert capsys.readouterr().out == "sessions\t2\nevents\t5\nitems\t2\n"


def train_args(out_dir, model_name="model.bin", **extra):
    base = ["train", "--train", str(out_dir / "train.jsonl"),
            "--model-out", str(out_dir / model_name),
            "--dim", "8", "--max-epochs", "2", "--batch-size", "4",
            "--samples-per-session", "2", "--eval-n", "5",
            "--validation-fraction", "0.2", "--seed", "3"]
    for flag, value in extra.items():
        base += [flag] if value is True else [flag, str(value)]
    return base


class TestTrain:
    def test_produces_loadable_model_and_history(self, tmp_path, corpus_csv,
                                                 capsys):
        out_dir = run_preprocess(tmp_path, corpus_csv)
        assert main(train_args(out_dir)) == 0
        out = capsys.readouterr().out
        assert "model\tSML-MaxPool-Triplet" in out
        model, vocab = index.load_model(str(out_dir / "model.bin"))
        assert model.config.embedding_dim == 8
        assert len(vocab) == 8
        history = (out_dir / "model.bin.history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_rec5,lr"
        assert len(history) == 3

    def test_fixed_seed_gives_identical_model_bytes(self, tmp_path, corpus_csv):
        out_dir = run_preprocess(tmp_path, corpus_csv)
        assert main(train_args(out_dir, "a.bin")) == 0
        assert main(train_args(out_dir, "b.bin")) == 0
        assert ((out_dir / "a.bin").read_bytes()
                == (out_dir / "b.bin").read_bytes())

    def test_loss_and_encoder_flags_reach_the_name(self, tmp_path, corpus_csv,
                                                   capsys):
        out_dir = run_preprocess(tmp_path, corpus_csv)
        code = main(train_args(out_dir, **{"--encoder": "AvgPool",
                                           "--loss": "BPR"}))
        assert code == 0
        assert "model\tSML-AvgPool-BPR" in capsys.readouterr().out

    def test_sessions_longer_than_the_window_train(self, tmp_path):
        # preprocess keeps up to 15 events a session; the encoder keeps the
        # last 10 items of each prefix
        events = tmp_path / "events.csv"
        subprocess.run([sys.executable, str(REPO / "scripts" / "make_synthetic.py"),
                        "--out", str(events), "--sessions", "60",
                        "--max-length", "14"],
                       check=True, capture_output=True,
                       env={**os.environ, "PYTHONPATH": str(REPO / "src")})
        out_dir = tmp_path / "out"
        assert main(["preprocess", "--input", str(events),
                     "--out-dir", str(out_dir)]) == 0
        lengths = [len(items) for _, items, _ in data.read_sessions_jsonl(
            str(out_dir / "train.jsonl"))]
        assert max(lengths) > 11
        assert main(train_args(out_dir, **{"--max-session-length": 10})) == 0

    def test_overflowing_learning_rate_is_divergence(self, tmp_path, capsys):
        # at --dim 8 the overflow is in the activations: tanh saturates it
        # into finite weights and a model that scores every item alike
        events = tmp_path / "events.csv"
        subprocess.run([sys.executable, str(REPO / "scripts" / "make_synthetic.py"),
                        "--out", str(events)],
                       check=True, capture_output=True,
                       env={**os.environ, "PYTHONPATH": str(REPO / "src")})
        out_dir = tmp_path / "out"
        assert main(["preprocess", "--input", str(events),
                     "--out-dir", str(out_dir)]) == 0
        code = main(["train", "--train", str(out_dir / "train.jsonl"),
                     "--model-out", str(out_dir / "model.bin"),
                     "--lr", "1e30", "--max-epochs", "3", "--dim", "8"])
        assert code == 3
        assert "overflow in epoch 0" in capsys.readouterr().err
        assert not (out_dir / "model.bin").exists()

    def test_one_session_file_is_data_error(self, tmp_path, capsys):
        write_sessions_jsonl(tmp_path / "train.jsonl", [["a", "b", "c"]])
        assert main(train_args(tmp_path)) == 2
        assert "cannot hold out 1 of 1 sessions" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", sampling.STRATEGIES)
    def test_one_item_session_is_dropped(self, tmp_path, strategy):
        sessions = [[f"i{(k + j) % 8}" for j in range(3)] for k in range(40)]
        write_sessions_jsonl(tmp_path / "train.jsonl", sessions + [["lonely"]])
        assert main(train_args(tmp_path, **{"--strategy": strategy})) == 0
        _, vocab = index.load_model(str(tmp_path / "model.bin"))
        assert "lonely" not in vocab and len(vocab) == 8

    def test_invalid_flag_combination_is_usage_error(self, tmp_path, corpus_csv):
        out_dir = run_preprocess(tmp_path, corpus_csv)
        # a conv filter wider than the session window is contradictory
        code = main(train_args(out_dir, **{"--encoder": "TextCNN",
                                           "--conv-filter-sizes": "1,20"}))
        assert code == 1

    def test_unsmoothed_model_first_ncas_fails_before_training(
            self, tmp_path, corpus_csv, monkeypatch, capsys):
        out_dir = run_preprocess(tmp_path, corpus_csv)
        calls = []
        monkeypatch.setattr(ad, "adam_step", lambda *a, **k: calls.append("adam_step"))
        monkeypatch.setattr(trainer, "train", lambda *a, **k: calls.append("train"))
        code = main(train_args(out_dir, **{"--loss": "NCAS", "--kld-model-first": True,
                                           "--epsilon": 0}))
        assert code == 1
        assert "epsilon > 0" in capsys.readouterr().err
        assert calls == []
        assert not (out_dir / "model.bin").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--lr", "nan"), ("--lr", "inf"), ("--margin", "nan"),
        ("--improvement-threshold", "nan")])
    def test_non_finite_setting_fails_before_training(
            self, tmp_path, corpus_csv, monkeypatch, capsys, flag, value):
        out_dir = run_preprocess(tmp_path, corpus_csv)
        calls = []
        monkeypatch.setattr(ad, "adam_step", lambda *a, **k: calls.append("adam_step"))
        assert main(train_args(out_dir, **{flag: value})) == 1
        assert "finite" in capsys.readouterr().err
        assert calls == []
        assert not (out_dir / "model.bin").exists()


class TestEvaluate:
    def test_baseline_requires_train_flag(self, tmp_path, corpus_csv):
        out_dir = run_preprocess(tmp_path, corpus_csv)
        code = main(["evaluate", "--method", "POP",
                     "--test", str(out_dir / "test.jsonl")])
        assert code == 1

    def test_unknown_method_is_usage_error(self, tmp_path, corpus_csv):
        out_dir = run_preprocess(tmp_path, corpus_csv)
        code = main(["evaluate", "--method", "ORACLE",
                     "--test", str(out_dir / "test.jsonl"),
                     "--train", str(out_dir / "train.jsonl")])
        assert code == 1

    @pytest.mark.parametrize("method", ["POP", "SPOP", "MARKOV1", "SKNN",
                                        "VSKNN"])
    def test_baseline_report_matches_library_call(self, tmp_path, corpus_csv,
                                                  capsys, method):
        out_dir = run_preprocess(tmp_path, corpus_csv)
        report_path = tmp_path / "report.json"
        code = main(["evaluate", "--method", method,
                     "--test", str(out_dir / "test.jsonl"),
                     "--train", str(out_dir / "train.jsonl"),
                     "--n", "4", "--report-out", str(report_path)])
        assert code == 0
        got = json.loads(report_path.read_text())

        train_ds = data.dataset_from_sessions(
            data.read_sessions_jsonl(str(out_dir / "train.jsonl")))
        test_ds = data.dataset_from_sessions(
            data.read_sessions_jsonl(str(out_dir / "test.jsonl")),
            train_ds.vocab)
        fit = {"POP": baselines.fit_pop, "SPOP": baselines.fit_spop,
               "MARKOV1": baselines.fit_markov,
               "SKNN": lambda ds: baselines.fit_sknn(ds, k=100),
               "VSKNN": lambda ds: baselines.fit_sknn(
                   ds, k=100,
                   position_weight=baselines.linear_position_weight)}[method]
        want = evaluation.evaluate(fit(train_ds), test_ds, n=4)
        assert got["method"] == method
        for key, value in want.as_dict().items():
            assert got[key] == value, key
        table = capsys.readouterr().out
        assert f"method\t{method}" in table
        assert "recall@4\t" in table

    def test_sml_method_round_trip(self, tmp_path, corpus_csv, capsys):
        out_dir = run_preprocess(tmp_path, corpus_csv)
        assert main(train_args(out_dir)) == 0
        capsys.readouterr()
        report_path = tmp_path / "sml_report.json"
        code = main(["evaluate",
                     "--method", f"SML:{out_dir / 'model.bin'}",
                     "--test", str(out_dir / "test.jsonl"),
                     "--n", "4", "--report-out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["points"] >= 1
        assert 0.0 <= report["recall"] <= 1.0

    def test_report_bytes_are_reproducible(self, tmp_path, corpus_csv):
        out_dir = run_preprocess(tmp_path, corpus_csv)
        paths = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            assert main(["evaluate", "--method", "POP",
                         "--test", str(out_dir / "test.jsonl"),
                         "--train", str(out_dir / "train.jsonl"),
                         "--report-out", str(path)]) == 0
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestRecommend:
    def _trained(self, tmp_path, corpus_csv):
        out_dir = run_preprocess(tmp_path, corpus_csv)
        assert main(train_args(out_dir)) == 0
        return out_dir / "model.bin"

    def test_prints_rank_id_score_lines(self, tmp_path, corpus_csv, capsys):
        model_path = self._trained(tmp_path, corpus_csv)
        capsys.readouterr()
        code = main(["recommend", "--model", str(model_path),
                     "--items", "i0,i1", "--n", "5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 5
        for rank, line in enumerate(lines, start=1):
            cells = line.split("\t")
            assert int(cells[0]) == rank
            assert cells[1].startswith("i")
            float(cells[2])

    def test_matches_library_recommender(self, tmp_path, corpus_csv, capsys):
        model_path = self._trained(tmp_path, corpus_csv)
        capsys.readouterr()
        assert main(["recommend", "--model", str(model_path),
                     "--items", "i2,i3", "--n", "4"]) == 0
        got = [line.split("\t")[1] for line in
               capsys.readouterr().out.strip().split("\n")]

        model, vocab = index.load_model(str(model_path))
        rec = index.SmlRecommender.from_model(model)
        prefix = [vocab.index["i2"], vocab.index["i3"]]
        want = [vocab.ids[i] for i in rec.recommend(prefix, 4)]
        assert got == want

    def test_unknown_items_are_listed_and_skipped(self, tmp_path, corpus_csv,
                                                  capsys):
        model_path = self._trained(tmp_path, corpus_csv)
        capsys.readouterr()
        code = main(["recommend", "--model", str(model_path),
                     "--items", "i0,zzz", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 0
        assert "zzz" in captured.err
        assert len(captured.out.strip().split("\n")) == 3

    def test_all_unknown_items_is_data_error(self, tmp_path, corpus_csv,
                                             capsys):
        model_path = self._trained(tmp_path, corpus_csv)
        capsys.readouterr()
        assert main(["recommend", "--model", str(model_path),
                     "--items", "zzz,yyy"]) == 2

    def test_non_finite_model_is_data_error(self, tmp_path, corpus_csv, capsys):
        model_path = self._trained(tmp_path, corpus_csv)
        model, vocab = index.load_model(str(model_path))
        model.params["item_ff.w"].values[0, 0] = float("nan")
        index.save_model(model, vocab, str(model_path))
        capsys.readouterr()
        assert main(["recommend", "--model", str(model_path),
                     "--items", "i0"]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_empty_items_is_usage_error(self, tmp_path, corpus_csv):
        model_path = self._trained(tmp_path, corpus_csv)
        assert main(["recommend", "--model", str(model_path),
                     "--items", ","]) == 1


# ---------------------------------------------------------------------------
# fuzz: whatever `train` accepts either trains or fails before the first step
# ---------------------------------------------------------------------------

# each numeric option's boundary values: both sides of every bound its
# config checks, and the non-finite floats
BOUNDARY_VALUES = {
    "--dim": ["0", "1", "3"],
    "--max-session-length": ["0", "1", "2", "15"],
    "--conv-filter-sizes": ["0", "1", "2", "1,3", "1,16"],
    "--session-ff-depth": ["0", "1", "2"],
    "--margin": ["-0.1", "0", "0.3", "2", "nan", "inf", "-inf"],
    "--epsilon": ["-0.1", "0", "1", "1.1", "nan", "inf"],
    "--samples-per-session": ["0", "1", "50"],
    "--window-size": ["0", "1", "20"],
    "--knn-k": ["0", "1", "50"],
    "--batch-size": ["0", "1", "1000"],
    "--lr": ["-1", "0", "1e-12", "1", "nan", "inf", "-inf"],
    "--lr-decay-factor": ["0", "1e-9", "1", "1.5", "nan"],
    "--improvement-threshold": ["-0.1", "0", "1e9", "nan", "inf"],
    "--validation-fraction": ["0", "0.01", "0.5", "0.99", "1", "nan"],
    "--max-lr-reductions": ["-1", "0", "1"],
    "--eval-n": ["0", "1", "1000"],
    "--seed": ["-1", "0", "18446744073709551616"],
}
# set by the fuzz itself: the input, the outputs and the one-epoch budget
FIXED_FLAGS = ("--train", "--model-out", "--history-out", "--max-epochs")


def train_flag_values() -> dict[str, list[list[str]]]:
    """Every settable `train` flag with the argument lists to draw for it:
    both forms of a boolean, each choice argparse offers, or the boundary
    values above (a flag missing there fails here with a KeyError)."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    out = {}
    for action in sub.choices["train"]._actions:
        flag = action.option_strings[0] if action.option_strings else None
        if flag in (None, "-h") or flag in FIXED_FLAGS:
            continue
        if isinstance(action, argparse.BooleanOptionalAction):
            out[flag] = [[flag], ["--no-" + flag[2:]]]
        else:
            # "--flag=value": argparse would read a lone "-inf" as a flag
            out[flag] = [[f"{flag}={v}"]
                         for v in action.choices or BOUNDARY_VALUES[flag]]
    return out


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return run_preprocess(root, write_corpus_csv(root))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_train_flags_work_or_fail_before_the_first_step(fuzz_dir, draw):
    values = train_flag_values()
    # a drawn --dim replaces this width, which keeps the rest small
    argv = ["train", "--train", str(fuzz_dir / "train.jsonl"),
            "--model-out", str(fuzz_dir / "model.bin"), "--max-epochs", "1",
            "--dim", "4"]
    for flag in draw.draw(st.lists(st.sampled_from(sorted(values)),
                                   max_size=8, unique=True), label="flags"):
        argv += draw.draw(st.sampled_from(values[flag]), label=flag)
    steps = []
    adam_step = ad.adam_step

    def counted_step(*args, **kwargs):
        steps.append(1)
        adam_step(*args, **kwargs)

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(ad, "adam_step", counted_step)
        code = main(argv)
    assert code == 0 or (code in (1, 2, 3) and not steps), (code, err.getvalue())
