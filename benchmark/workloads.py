"""The three workloads: what each sets up, runs and checks.

Every workload runs the same session shape against the program's public
entry points: train or fine-tune a parser (``train_tok_s``), save it, then
annotate a CoNLL file with the ``stackptr parse`` verb run in-process
through ``stackptr.cli.run`` (``parse_tok_s``). They differ in dimensions,
data and where the time goes:

* ``gate-finetune``: the release gate's transfer experiment. TRANSFER
  dimensions, template-grammar sentences, transplant + fine-tune.
* ``full-train``: ``train()`` from scratch at full ``TrainConfig()``
  dimensions on random 15-40-token trees.
* ``parse-long``: a full-size checkpoint with a several-thousand-word
  vocabulary, briefly trained further, then the parse verb over 5-60-token
  sentences; parsing dominates.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from stackptr import checkpoint, cli, model, trainer, transfer, treebank
from stackptr.config import TrainConfig

import inputs

# The release gate's transfer dimensions (tests/test_acceptance.py TRANSFER).
TRANSFER = TrainConfig(
    d_w=32, char_dim=16, pos_dim=16, num_filters=16, r=4, d_h=32,
    arc_mlp_dim=32, label_mlp_dim=16,
    learning_rate=0.001, decay_rate=0.75, decay_patience=10, batch_size=32,
    p_in=0.2, p_rnn=0.2, p_out=0.2, min_word_count=1,
)

# Full-size dimensions. A batch of 8 random 15-25-token sentences peaks at
# about 2 GB, mostly gradients of per-step transposes, so full-size
# workloads train two sentences per batch (about 1.1 GB at 40 tokens).
FULL = TrainConfig(batch_size=2, min_word_count=1)


# Parameter initialisation, dropout and surgery use this seed in every run;
# --seed varies only the corpora, which keeps final_loss steady across seeds.
MODEL_SEED = 1


@dataclass(frozen=True)
class Spec:
    name: str
    config: TrainConfig
    epochs: int
    mode: str                      # "finetune" | "scratch" | "continue"
    parses: int                    # parse-verb calls per session, each one sample


SPECS = {
    "gate-finetune": Spec("gate-finetune", TRANSFER, epochs=8, mode="finetune", parses=5),
    "full-train": Spec("full-train", FULL, epochs=1, mode="scratch", parses=2),
    "parse-long": Spec("parse-long", FULL, epochs=1, mode="continue", parses=1),
}


@dataclass
class Inputs:
    train: list
    dev: list
    parse: list                    # gold trees written as the parse input
    vocab_corpus: list             # what the setup checkpoint's vocabulary covers


def make_inputs(spec: Spec, seed: int) -> Inputs:
    if spec.name == "gate-finetune":
        source = inputs.grammar_corpus(inputs.stream(seed, "source"), 150,
                                       inputs.SOURCE_POOLS)
        target = inputs.grammar_corpus(inputs.stream(seed, "target"), 70,
                                       inputs.TARGET_POOLS)
        return Inputs(train=target[:30], dev=target[30:], parse=target[30:],
                      vocab_corpus=source)
    forms = inputs.form_pool(inputs.stream(seed, "forms"), 4000)
    if spec.name == "full-train":
        # The range's two ends, two sentences each: one full batch per
        # length, and the 40-token batch fixes the peak RSS for every seed.
        train = inputs.random_corpus(inputs.stream(seed, "train"),
                                     [15, 15, 40, 40], forms)
        lengths = inputs.complementary_lengths(inputs.stream(seed, "dev-len"), 2, 15, 40)
        dev = inputs.random_corpus(inputs.stream(seed, "dev"), lengths, forms)
        return Inputs(train=train, dev=dev, parse=dev, vocab_corpus=train)
    # parse-long
    train = inputs.random_corpus(inputs.stream(seed, "train"), [5, 5, 6, 6], forms)
    dev = inputs.random_corpus(inputs.stream(seed, "dev"), [5], forms)
    lengths = inputs.complementary_lengths(inputs.stream(seed, "parse-len"), 12, 5, 60)
    parse = inputs.random_corpus(inputs.stream(seed, "parse"), lengths, forms)
    # Words the checkpoint knows: a 5000-token draw from the form pool
    # (several thousand types) plus everything the session touches.
    bulk = inputs.random_corpus(inputs.stream(seed, "vocab"), [25] * 200, forms)
    return Inputs(train=train, dev=dev, parse=parse,
                  vocab_corpus=bulk + train + dev + parse)


def tokens(trees) -> int:
    return sum(len(t) for t in trees)


@dataclass
class Session:
    """Files and inputs of one workload at one seed, under ``workdir``."""

    spec: Spec
    seed: int
    workdir: Path
    data: Inputs = field(init=False)

    @property
    def config(self) -> TrainConfig:
        return self.spec.config.replaced(max_epochs=self.spec.epochs,
                                         patience=self.spec.epochs,
                                         seed=MODEL_SEED)

    def path(self, name: str) -> Path:
        return self.workdir / name

    def setup(self) -> None:
        """Generate inputs, write the parse input, and for the workloads
        that start from a checkpoint build and save it."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.data = make_inputs(self.spec, self.seed)
        treebank.write_conll(self.data.parse, self.path("input.conllx"))
        if self.spec.mode != "scratch":
            vocabs = treebank.build_vocabulary(self.data.vocab_corpus, 1)
            parser = model.Parser.build(self.config, vocabs)
            checkpoint.save_checkpoint(
                checkpoint.Checkpoint(params=parser.store, vocabs=vocabs,
                                      config=self.config), self.path("start.ckpt"))

    def rep(self) -> "RepResult":
        """One session: train, save, parse, check."""
        spec, data, config = self.spec, self.data, self.config
        start = None
        if spec.mode != "scratch":
            start = checkpoint.load_checkpoint(self.path("start.ckpt"))
        if spec.mode == "finetune":
            start = transfer.transplant(start, data.train, transfer.SurgeryPlan(),
                                        seed=MODEL_SEED)
        result = RepResult()
        began = perf_counter()
        try:
            if spec.mode == "finetune":
                tuned = transfer.finetune(start, data.train, data.dev, config)
            else:
                tuned = trainer.train(config, data.train, data.dev, initial=start)
        except trainer.TrainAbort as exc:
            result.fail("train", str(exc))
            return result
        result.train_s = perf_counter() - began
        result.train_tokens = spec.epochs * tokens(data.train)
        result.final_loss = tuned.history[-1] if tuned.history else math.nan
        if len(tuned.history) != spec.epochs or not all(map(math.isfinite, tuned.history)):
            result.fail("train", f"epoch losses {tuned.history}")

        model_path = self.path("model.ckpt")
        checkpoint.save_checkpoint(tuned, model_path)
        result.ckpt_bytes = model_path.stat().st_size
        out = self.path("output.conllx")
        args = ["parse", "--model", str(model_path),
                "--input", str(self.path("input.conllx")), "--output", str(out)]
        result.parse_tokens = tokens(data.parse)
        for _ in range(spec.parses):
            out.unlink(missing_ok=True)
            began = perf_counter()
            code = cli.run(args)
            result.parse_s.append(perf_counter() - began)
            if code != 0 or not out.exists():
                result.fail("parse", f"exit code {code}")
                return result
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            if result.digest and digest != result.digest:
                result.fail("parse", "two parses of one input differ")
            result.digest = digest
        check_parse_output(self.path("input.conllx").read_text(encoding="utf-8"),
                           out.read_text(encoding="utf-8"), data.parse,
                           not config.single_root, result)
        return result

    def greedy_steps(self) -> int:
        """Steps greedy decoding must take in one session: dev evaluated
        before training and after every epoch, then each parse of the parse
        input, every sentence in 2n+1 steps."""
        def steps(trees):
            return sum(2 * len(t) + 1 for t in trees)
        return ((self.spec.epochs + 1) * steps(self.data.dev)
                + self.spec.parses * steps(self.data.parse))

    def clean(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


@dataclass
class RepResult:
    train_s: float = math.nan
    train_tokens: int = 0
    final_loss: float = math.nan
    parse_s: list[float] = field(default_factory=list)
    parse_tokens: int = 0
    ckpt_bytes: int = 0
    digest: str = ""
    correct_labeled: int = 0
    sentences: int = 0
    failures: dict[str, str] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        """Checked operations: the training call, the parse calls (as one)
        and each parsed sentence."""
        return 2 + self.sentences

    def fail(self, operation: str, why: str) -> None:
        """Mark an operation failed; a second reason for it is dropped."""
        self.failures.setdefault(operation, why)

    @property
    def las(self) -> float:
        return 100.0 * self.correct_labeled / self.parse_tokens if self.parse_tokens else 0.0


def _blocks(text: str) -> list[list[list[str]]]:
    blocks, block = [], []
    for line in text.split("\n"):
        if line:
            block.append(line.split("\t"))
        elif block:
            blocks.append(block)
            block = []
    if block:
        blocks.append(block)
    return blocks


def check_parse_output(input_text: str, output_text: str, gold: list,
                       allow_multiple_roots: bool, result: RepResult) -> None:
    """Per sentence: same rows, untouched non-HEAD/DEPREL columns, a valid
    tree over every token. Counts labeled attachments against ``gold``."""
    given, produced = _blocks(input_text), _blocks(output_text)
    result.sentences = len(given)
    if len(produced) != len(given):
        result.fail("parse", f"{len(produced)} output sentences for {len(given)} input")
        return
    for index, (rows_in, rows_out, tree) in enumerate(zip(given, produced, gold)):
        problem = _sentence_problem(rows_in, rows_out, allow_multiple_roots)
        if problem:
            result.fail(f"sentence {index + 1}", problem)
            continue
        for i, row in enumerate(rows_out, start=1):
            if int(row[6]) == tree.heads[i] and row[7] == tree.labels[i - 1]:
                result.correct_labeled += 1


def _sentence_problem(rows_in, rows_out, allow_multiple_roots: bool) -> str:
    if len(rows_out) != len(rows_in):
        return f"{len(rows_out)} rows for {len(rows_in)} tokens"
    for row_in, row_out in zip(rows_in, rows_out):
        if len(row_out) != len(row_in):
            return f"row {row_out[0]} has {len(row_out)} fields"
        if row_out[:6] + row_out[8:] != row_in[:6] + row_in[8:]:
            return f"row {row_out[0]} changed a non-HEAD/DEPREL column"
        if not row_out[6].lstrip("-").isdigit() or not row_out[7]:
            return f"row {row_out[0]} has HEAD {row_out[6]!r}, DEPREL {row_out[7]!r}"
    try:
        treebank.validate_tree([-1] + [int(r[6]) for r in rows_out],
                               allow_multiple_roots=allow_multiple_roots)
    except treebank.TreebankError as exc:
        return f"invalid tree: {exc}"
    return ""
