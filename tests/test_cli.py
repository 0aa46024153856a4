"""End-to-end command-line behavior: pipelines, exit codes, repro records."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stackptr import cli
from stackptr.checkpoint import load_checkpoint
from stackptr.cli import run
from stackptr.config import ConfigError, TrainConfig
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


    def test_an_empty_deprel_is_refused_naming_its_line(self, work, tmp_path, capsys):
        # It would become the label '' and parse into a malformed CoNLL-X row.
        bad = tmp_path / "train.conllx"
        bad.write_text("1\ta\t_\tNN\tNN\t_\t0\t\t_\t_\n\n", encoding="utf-8")
        out = tmp_path / "m.ckpt"
        assert run(["train", "--train", str(bad), "--dev", str(bad), "--out", str(out),
                    *TINY]) == 1
        assert "line 1: empty DEPREL field" in capsys.readouterr().err
        assert not out.exists()


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

    def test_repro_names_the_numeric_environment(self, work, tmp_path):
        # Two runs on one machine write the same record, numeric lines included.
        records = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            pred = tmp_path / name / "pred.conllx"
            assert run(["parse", "--model", str(work.model),
                        "--input", str(work.dev), "--output", str(pred)]) == 0
            records.append(Path(f"{pred}.repro").read_bytes())
        assert records[0] == records[1]
        keys = [line.partition("=")[0] for line in records[0].decode().splitlines()]
        assert keys[-5:] == ["numeric.numpy", "numeric.blas", "numeric.OPENBLAS_NUM_THREADS",
                             "numeric.OMP_NUM_THREADS", "numeric.cpu_count"]
        text = records[0].decode()
        assert f"numeric.numpy={np.__version__}\n" in text
        assert f"numeric.cpu_count={os.cpu_count()}\n" in text

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


class TestFailedRunKeepsOutputsItDidNotWrite:
    """A failed run removes what it wrote and leaves what was already there."""

    @staticmethod
    def _existing(tmp_path, work, name):
        out = tmp_path / name
        out.write_bytes(work.model.read_bytes())
        Path(f"{out}.repro").write_text("verb=earlier\n", encoding="utf-8")
        return out, {p: p.read_bytes() for p in (out, Path(f"{out}.repro"))}

    def test_train(self, work, tmp_path):
        out, before = self._existing(tmp_path, work, "model.ckpt")
        code = run(["train", "--train", str(work.train), "--dev", str(work.dev),
                    "--out", str(out), "--set", "d_h=0"])
        assert code == 2
        assert {p: p.read_bytes() for p in before} == before

    def test_finetune(self, work, tmp_path):
        out, before = self._existing(tmp_path, work, "tuned.ckpt")
        code = run(["finetune", "--source", str(work.model), "--train", str(work.train),
                    "--dev", str(work.dev), "--out", str(out), "--set", "d_h=8"])
        assert code == 2
        assert {p: p.read_bytes() for p in before} == before

    def test_parse(self, work, tmp_path):
        out, before = self._existing(tmp_path, work, "pred.conllx")
        bad = tmp_path / "bad.conllx"
        bad.write_text("1\t猫\t_\tNN\n\n", encoding="utf-8")
        code = run(["parse", "--model", str(work.model),
                    "--input", str(bad), "--output", str(out)])
        assert code == 1
        assert {p: p.read_bytes() for p in before} == before
        # A run that rewrites the output and then fails removes it, and
        # leaves the record it never reached.
        with mock.patch.object(cli, "_write_repro", side_effect=OSError("disk full")):
            code = run(["parse", "--model", str(work.model),
                        "--input", str(work.dev), "--output", str(out)])
        assert code == 1
        assert not out.exists()
        assert Path(f"{out}.repro").read_bytes() == before[Path(f"{out}.repro")]


class TestReproNamesTheBytesTheRunRead:
    """Each input is read once; its digest and its parse come from the same
    bytes, however long the run takes and whatever happens to the file."""

    @pytest.mark.parametrize("verb", ["train", "finetune", "parse"])
    def test_an_input_rewritten_during_the_run(self, work, tmp_path, verb):
        inputs = {"train": {"train": work.train, "dev": work.dev},
                  "finetune": {"source": work.model, "train": work.train, "dev": work.dev},
                  "parse": {"model": work.model, "input": work.dev}}[verb]
        copies = {}
        for name, path in inputs.items():
            copies[name] = tmp_path / f"{name}{path.suffix}"
            copies[name].write_bytes(path.read_bytes())
        original = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                    for name, path in copies.items()}
        out = tmp_path / ("pred.conllx" if verb == "parse" else "out.ckpt")
        flags = [arg for name, path in copies.items() for arg in (f"--{name}", str(path))]
        argv = [verb, *flags, "--output" if verb == "parse" else "--out", str(out),
                *{"train": TINY, "finetune": ["--set", "max_epochs=1"], "parse": []}[verb]]
        # The verb's long call: train and finetune train, parse parses.
        target, name = {"train": (cli, "train"), "finetune": (cli, "finetune"),
                        "parse": (cli.Parser, "parse_corpus")}[verb]
        real = getattr(target, name)

        def rewriting(*args, **kwargs):
            for path in copies.values():
                path.write_bytes(b"rewritten while the run went on\n")
            return real(*args, **kwargs)

        reads = []
        real_read = Path.read_bytes
        with mock.patch.object(target, name, rewriting), \
                mock.patch.object(Path, "read_bytes",
                                  lambda self: reads.append(self) or real_read(self)):
            assert run(argv) == 0
        repro = Path(f"{out}.repro").read_text().splitlines()
        assert [line for line in repro if line.startswith("input.")] == \
            [f"input.{name}={digest}" for name, digest in sorted(original.items())]
        assert sorted(reads) == sorted(copies.values())     # each input read once


def test_the_argument_parser_is_built_once_per_process(work, monkeypatch, capsys):
    built = []
    real = cli.build_arg_parser
    monkeypatch.setattr(cli, "_arg_parser", None)
    monkeypatch.setattr(cli, "build_arg_parser", lambda: built.append(1) or real())
    for _ in range(2):
        assert run(["eval", "--gold", str(work.dev), "--pred", str(work.dev)]) == 0
    assert run(["eval", "--gold", str(work.dev)]) == 1
    assert "average_las=100.0" in capsys.readouterr().out
    assert built == [1]


class TestEvalVerb:
    def test_domain_breakdown(self, work, tmp_path, capsys):
        assert run(["eval",
                    "--domain", f"news={work.dev},{work.dev}",
                    "--domain", f"web={work.train},{work.train}"]) == 0
        out = capsys.readouterr().out
        assert "domain=news" in out and "domain=web" in out
        assert "average_las=100.0" in out

    @pytest.mark.parametrize("first", [["--domain", "a={dev},{dev}"],
                                       ["--gold", "{dev}", "--pred", "{dev}"]])
    def test_repeated_domain_name_fails(self, work, capsys, first):
        # A second pair under a taken name would replace the first one's
        # scores in the report; `all` is the name of --gold/--pred.
        name = "a" if first[0] == "--domain" else "all"
        argv = [arg.format(dev=work.dev) for arg in first]
        assert run(["eval", *argv, "--domain", f"{name}={work.train},{work.train}"]) == 1
        assert f"domain {name!r} given twice" in capsys.readouterr().err

    def test_gold_without_pred_fails(self, work, capsys):
        assert run(["eval", "--gold", str(work.dev)]) == 1
        assert "error" in capsys.readouterr().err

    def test_exclude_pos_flag(self, work, capsys):
        assert run(["eval", "--gold", str(work.dev), "--pred", str(work.dev),
                    "--exclude-pos", "PU"]) == 0
        assert "average_las=100.0" in capsys.readouterr().out


class TestFinetuneVerb:
    def test_config_file_overlays_the_source_config(self, work, tmp_path):
        # The file changes two training fields; every other field, the
        # architecture included, stays the checkpoint's.
        cfg = tmp_path / "ft.cfg"
        cfg.write_text("learning_rate=0.0005\nmax_epochs=1\n")
        tuned = tmp_path / "ft.ckpt"
        code = run(["finetune", "--source", str(work.model),
                    "--train", str(work.train), "--dev", str(work.dev),
                    "--out", str(tuned), "--config", str(cfg)])
        assert code == 0
        repro = (tmp_path / "ft.ckpt.repro").read_text().splitlines()
        assert "config.d_w=6" in repro
        assert "config.learning_rate=0.0005" in repro
        assert "config.seed=3" in repro
        assert "surgery.retain=embeddings.,encoder.,decoder." in repro
        assert "surgery.reinit=biaffine." in repro
        assert "surgery.seed=3" in repro  # the config seed, when --seed is not given

    def test_repro_records_the_surgery(self, work, tmp_path):
        tuned = tmp_path / "ft.ckpt"
        code = run(["finetune", "--source", str(work.model),
                    "--train", str(work.train), "--dev", str(work.dev),
                    "--out", str(tuned), "--retain", "embeddings.,encoder.",
                    "--reinit", "decoder.,biaffine.", "--seed", "11",
                    "--set", "max_epochs=0"])
        assert code == 0
        repro = (tmp_path / "ft.ckpt.repro").read_text().splitlines()
        surgery = [line for line in repro if line.startswith("surgery.")]
        assert surgery == ["surgery.retain=embeddings.,encoder.",
                           "surgery.reinit=decoder.,biaffine.", "surgery.seed=11"]
        # Beside the config lines, before the input digests.
        last_config = max(i for i, line in enumerate(repro) if line.startswith("config."))
        assert repro.index(surgery[0]) == last_config + 1


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

    def test_finetune_config_file_architecture_change_is_usage_error(self, work, tmp_path,
                                                                    capsys):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("d_h=8\n")
        tuned = tmp_path / "wide.ckpt"
        code = run(["finetune", "--source", str(work.model),
                    "--train", str(work.train), "--dev", str(work.dev),
                    "--out", str(tuned), "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert "d_h 4 -> 8" in err
        assert "d_w" not in err
        assert not tuned.exists()

    @pytest.mark.parametrize("override, named", [
        ("foo", "--set 'foo': expected KEY=VALUE"),
        ("d_h=abc", "d_h='abc': invalid literal for int()"),
        ("r=0", "r must be >= 1, got 0"),
        ("nosuch=1", "unknown config keys: ['nosuch']"),
        ("decay_rate=-1", "decay_rate must be in (0, 1], got -1.0"),
        ("beta2=1.5", "beta2 must be in [0, 1), got 1.5"),
        ("adam_epsilon=0", "adam_epsilon must be positive, got 0.0"),
        ("clip_norm=-1", "clip_norm must be positive, got -1.0"),
        ("seed=-1", "seed must be >= 0, got -1"),
    ])
    def test_bad_override_is_usage_error(self, tmp_path, capsys, override, named):
        out = tmp_path / "m.ckpt"
        code = run(["train", "--train", str(tmp_path / "t.conllx"),
                    "--dev", str(tmp_path / "d.conllx"), "--out", str(out),
                    "--set", override])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_negative_finetune_seed_is_usage_error(self, work, tmp_path, capsys):
        tuned = tmp_path / "neg.ckpt"
        code = run(["finetune", "--source", str(work.model),
                    "--train", str(work.train), "--dev", str(work.dev),
                    "--out", str(tuned), "--seed", "-1"])
        assert code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not tuned.exists()

    def test_non_utf8_config_file_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_bytes(b"d_w=6\n\xff=1\n")
        out = tmp_path / "m.ckpt"
        code = run(["train", "--train", str(tmp_path / "t.conllx"),
                    "--dev", str(tmp_path / "d.conllx"), "--out", str(out),
                    "--config", str(config)])
        assert code == 2
        assert "config line 2: invalid UTF-8 byte 0xff" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("d_w=32\n# wider\nd_w=64\n", encoding="utf-8")
        out = tmp_path / "m.ckpt"
        code = run(["train", "--train", str(tmp_path / "t.conllx"),
                    "--dev", str(tmp_path / "d.conllx"), "--out", str(out),
                    "--config", str(config)])
        assert code == 2
        assert "config key 'd_w' repeated: lines 1 and 3" in capsys.readouterr().err
        assert not out.exists()

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
        # Run from the directory holding the package, so that it is found
        # whether or not it is installed.
        proc = subprocess.run([sys.executable, "-m", "stackptr.cli", "--help"],
                              capture_output=True, text=True,
                              cwd=Path(cli.__file__).parents[1])
        assert proc.returncode == 0
        assert "surgery-inspect" in proc.stdout


_OVERRIDES = st.one_of(
    st.text(max_size=16),
    st.builds("{}={}".format, st.sampled_from(list(TrainConfig().to_flat())),
              st.text(max_size=8)),
    st.builds("{}={}".format,
              st.sampled_from(["decay_rate", "beta1", "beta2", "adam_epsilon", "clip_norm"]),
              st.sampled_from(["-1", "0", "1", "1.5", "0.5", "1e-9"])),
)


@given(st.lists(_OVERRIDES, max_size=4))
@example(["decay_rate=-1"])
@example(["beta2=1.5"])
@example(["adam_epsilon=0"])
@example(["clip_norm=-1"])
@settings(max_examples=300, deadline=None)
def test_random_set_text_loads_or_raises_config_error(overrides):
    try:
        config = cli._load_config(SimpleNamespace(config=None, set=overrides))
    except ConfigError:
        return
    assert 0.0 < config.decay_rate <= 1.0
    assert 0.0 <= config.beta1 < 1.0 and 0.0 <= config.beta2 < 1.0
    assert config.adam_epsilon > 0.0 and config.clip_norm > 0.0
