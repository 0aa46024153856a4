"""End-to-end command-line behavior: pipelines, exit codes, repro records."""

import re
import subprocess
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from stackptr import cli
from stackptr.checkpoint import load_checkpoint
from stackptr.cli import run
from stackptr.treebank import parse_conll, write_conll

TINY = [
    "--set", "d_w=6", "--set", "char_dim=3", "--set", "pos_dim=3",
    "--set", "num_filters=3", "--set", "r=2", "--set", "d_h=4",
    "--set", "arc_mlp_dim=5", "--set", "label_mlp_dim=4",
    "--set", "batch_size=8", "--set", "max_epochs=1", "--set", "patience=2",
    "--set", "min_word_count=1", "--set", "seed=3",
]


@pytest.fixture(scope="module")
def work(tmp_path_factory, toy_trees):
    root = tmp_path_factory.mktemp("cli")
    train_file, dev_file = root / "train.conllx", root / "dev.conllx"
    write_conll(toy_trees[:10], train_file)
    write_conll(toy_trees[10:16], dev_file)
    model = root / "model.ckpt"
    code = run(["train", "--train", str(train_file), "--dev", str(dev_file),
                "--out", str(model), *TINY])
    assert code == 0 and model.exists()
    return SimpleNamespace(root=root, train=train_file, dev=dev_file, model=model)


class TestTrainVerb:
    def test_repro_record(self, work):
        text = (work.root / "model.ckpt.repro").read_text()
        assert "verb=train" in text
        assert "config.max_epochs=1" in text
        digests = re.findall(r"input\.\w+=([0-9a-f]{64})", text)
        assert len(digests) == 2

    def test_checkpoint_loads(self, work):
        ckpt = load_checkpoint(work.model)
        assert ckpt.config.d_w == 6
        assert any("train" in line for line in ckpt.provenance)

    def test_config_file_plus_override(self, work, tmp_path):
        cfg = tmp_path / "parser.cfg"
        flat = load_checkpoint(work.model).config.to_flat()
        flat["max_epochs"] = "5"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in flat.items()))
        out = tmp_path / "m2.ckpt"
        code = run(["train", "--config", str(cfg), "--set", "max_epochs=1",
                    "--train", str(work.train), "--dev", str(work.dev),
                    "--out", str(out)])
        assert code == 0
        assert "config.max_epochs=1" in (tmp_path / "m2.ckpt.repro").read_text()


class TestParseVerb:
    def test_pipeline_to_perfect_self_eval(self, work, tmp_path, capsys):
        pred = tmp_path / "pred.conllx"
        assert run(["parse", "--model", str(work.model),
                    "--input", str(work.dev), "--output", str(pred)]) == 0
        trees = parse_conll(pred, allow_multiple_roots=True)
        assert len(trees) == 6
        last = capsys.readouterr().err.splitlines()[-1]
        report = re.fullmatch(r"parsed 6 sentences, (\d+) tokens, ([\d.]+) tokens/s -> (.+)",
                              last)
        assert report, last
        assert int(report[1]) == sum(len(t) for t in trees)
        assert float(report[2]) > 0 and report[3] == str(pred)
        assert run(["eval", "--gold", str(pred), "--pred", str(pred)]) == 0
        out = capsys.readouterr().out
        assert "average_las=100.0" in out

    def test_preserves_unrelated_columns(self, work, tmp_path):
        src = tmp_path / "in.conllx"
        src.write_text(
            "1\t猫\tLEMMA1\tNN\tNN\tf=1\t0\troot\t_\t_\n\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.conllx"
        assert run(["parse", "--model", str(work.model),
                    "--input", str(src), "--output", str(out)]) == 0
        fields = out.read_text(encoding="utf-8").splitlines()[0].split("\t")
        assert fields[2] == "LEMMA1" and fields[5] == "f=1"
        assert fields[6] == "0"  # only possible head for a 1-token sentence
        assert fields[7] in load_checkpoint(work.model).vocabs["label"].symbols

    def test_failure_removes_partial_output(self, work, tmp_path):
        # A NaN weight makes decoding fail; no file can hold one, so it is
        # put into the loaded parameters.
        def load_broken(path):
            ckpt = load_checkpoint(path)
            ckpt.params["encoder.attn.Wm"].data[0, 0] = np.nan
            return ckpt

        out = tmp_path / "pred.conllx"
        with mock.patch.object(cli, "load_checkpoint", load_broken):
            code = run(["parse", "--model", str(work.model),
                        "--input", str(work.dev), "--output", str(out)])
        assert code == 1
        assert not out.exists()
        assert not (tmp_path / "pred.conllx.repro").exists()


class TestEvalVerb:
    def test_domain_breakdown(self, work, tmp_path, capsys):
        assert run(["eval",
                    "--domain", f"news={work.dev},{work.dev}",
                    "--domain", f"web={work.train},{work.train}"]) == 0
        out = capsys.readouterr().out
        assert "domain=news" in out and "domain=web" in out
        assert "average_las=100.0" in out

    def test_gold_without_pred_fails(self, work, capsys):
        assert run(["eval", "--gold", str(work.dev)]) == 1
        assert "error" in capsys.readouterr().err

    def test_exclude_pos_flag(self, work, capsys):
        assert run(["eval", "--gold", str(work.dev), "--pred", str(work.dev),
                    "--exclude-pos", "PU"]) == 0
        assert "average_las=100.0" in capsys.readouterr().out


class TestSurgeryInspectVerb:
    def test_statuses(self, work, tmp_path, capsys):
        tuned = tmp_path / "tuned.ckpt"
        code = run(["finetune", "--source", str(work.model),
                    "--train", str(work.train), "--dev", str(work.dev),
                    "--out", str(tuned), "--seed", "7",
                    "--set", "max_epochs=0"])
        assert code == 0
        assert run(["surgery-inspect", "--source", str(work.model),
                    "--target", str(tuned)]) == 0
        status = dict(line.split("\t") for line in
                      capsys.readouterr().out.strip().splitlines())
        assert status["encoder.attn.Wm"] == "bitwise-equal"
        assert status["embeddings.word"] == "bitwise-equal"  # same corpus: no growth
        assert status["biaffine.arc.U"] == "changed"


class TestExitCodes:
    def test_finetune_architecture_change_is_usage_error(self, work, tmp_path, capsys):
        tuned = tmp_path / "wide.ckpt"
        code = run(["finetune", "--source", str(work.model),
                    "--train", str(work.train), "--dev", str(work.dev),
                    "--out", str(tuned), "--set", "d_h=8"])
        assert code == 2
        assert "d_h 4 -> 8" in capsys.readouterr().err
        assert not tuned.exists()

    def test_unknown_verb_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_argument(self, capsys):
        assert run(["train", "--train", "x.conllx"]) == 2
        capsys.readouterr()

    def test_missing_input_file(self, tmp_path, capsys):
        code = run(["train", "--train", str(tmp_path / "nope.conllx"),
                    "--dev", str(tmp_path / "nope.conllx"),
                    "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "error" in err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-m", "stackptr.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "surgery-inspect" in proc.stdout
