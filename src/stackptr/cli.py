"""Command-line interface: train / finetune / parse / eval / surgery-inspect.

Conventions: logs go to stderr, data to files or stdout. Exit status 0 means
the requested artifact was fully written; 1 is a runtime failure (partial
outputs are removed); 2 is a usage error: a config key or value that does
not parse or is out of range, or a fine-tune config that changes the
checkpoint's architecture. Every artifact-producing run writes a
`<out>.repro` record (config snapshot, seed, input digests, and for
`finetune` the surgery's retain/reinit prefixes and seed) beside its output.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, TrainConfig, read_flat
from .metrics import evaluate_domains
from .model import Parser
from .trainer import train
from .transfer import SurgeryPlan, finetune, transplant
from .treebank import parse_conll, parse_conll_blocks


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_repro(out: str, verb: str, config: TrainConfig | None,
                 inputs: dict[str, str], surgery: dict[str, object] | None = None) -> None:
    lines = [f"verb={verb}"]
    if config is not None:
        lines += [f"config.{k}={v}" for k, v in config.to_flat().items()]
    lines += [f"surgery.{k}={v}" for k, v in (surgery or {}).items()]
    lines += [f"input.{name}={_digest(path)}" for name, path in sorted(inputs.items())]
    Path(out + ".repro").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_config(args: argparse.Namespace, base: TrainConfig | None = None) -> TrainConfig:
    """``base`` (default TrainConfig()), overlaid with the ``--config``
    file's keys and then with the ``--set`` pairs."""
    flat = (base if base is not None else TrainConfig()).to_flat()
    if getattr(args, "config", None):
        flat.update(read_flat(args.config))
    for kv in getattr(args, "set", None) or []:
        key, sep, value = kv.partition("=")
        if not sep:
            raise ConfigError(f"--set {kv!r}: expected KEY=VALUE")
        flat[key] = value
    return TrainConfig.from_flat(flat)


def _seed(text: str) -> int:
    """An argparse type: a non-negative integer seed."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args)
    train_trees = parse_conll(args.train)
    dev_trees = parse_conll(args.dev)
    ckpt = train(config, train_trees, dev_trees,
                 word_embedding_path=args.emb, log=_log)
    save_checkpoint(ckpt, args.out)
    inputs = {"train": args.train, "dev": args.dev}
    if args.emb:
        inputs["emb"] = args.emb
    _write_repro(args.out, "train", config, inputs)
    _log(f"wrote {args.out}")
    return 0


def _cmd_finetune(args: argparse.Namespace) -> int:
    source = load_checkpoint(args.source)
    config = _load_config(args, base=source.config)
    train_trees = parse_conll(args.train)
    dev_trees = parse_conll(args.dev)
    plan = SurgeryPlan(
        retain_prefixes=frozenset(p for p in args.retain.split(",") if p),
        reinit_prefixes=frozenset(p for p in args.reinit.split(",") if p),
    )
    seed = args.seed if args.seed is not None else config.seed
    grafted = transplant(source, train_trees, plan, seed)
    ckpt = finetune(grafted, train_trees, dev_trees, config, log=_log)
    save_checkpoint(ckpt, args.out)
    _write_repro(args.out, "finetune", config,
                 {"source": args.source, "train": args.train, "dev": args.dev},
                 {"retain": args.retain, "reinit": args.reinit, "seed": seed})
    _log(f"wrote {args.out}")
    return 0


def _cmd_parse(args: argparse.Namespace) -> int:
    ckpt = load_checkpoint(args.model)
    parser = Parser(ckpt.config, ckpt.vocabs, ckpt.params)
    blocks = parse_conll_blocks(args.input)
    began = time.perf_counter()
    trees = parser.parse_corpus([sent for sent, _ in blocks])
    elapsed = time.perf_counter() - began
    with open(args.output, "w", encoding="utf-8") as fh:
        for tree, (_, rows) in zip(trees, blocks):
            for i, row in enumerate(rows, start=1):
                row = list(row)
                row[6] = str(tree.heads[i])
                row[7] = tree.labels[i - 1]
                fh.write("\t".join(row) + "\n")
            fh.write("\n")
    _write_repro(args.output, "parse", ckpt.config,
                 {"model": args.model, "input": args.input})
    tokens = sum(len(tree) for tree in trees)
    rate = tokens / elapsed if elapsed > 0 else 0.0
    _log(f"parsed {len(blocks)} sentences, {tokens} tokens, "
         f"{rate:.1f} tokens/s -> {args.output}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    exclude = set(args.exclude_pos.split(",")) - {""} if args.exclude_pos else None
    pairs: dict[str, tuple[list, list]] = {}
    if args.gold or args.pred:
        if not (args.gold and args.pred):
            raise ValueError("--gold and --pred must be given together")
        pairs["all"] = (parse_conll(args.gold, allow_multiple_roots=True),
                        parse_conll(args.pred, allow_multiple_roots=True))
    for domain_arg in args.domain or []:
        name, _, files = domain_arg.partition("=")
        gold_path, _, pred_path = files.partition(",")
        if not (name and gold_path and pred_path):
            raise ValueError(f"bad --domain value {domain_arg!r}; "
                             "expected name=goldfile,predfile")
        pairs[name] = (parse_conll(gold_path, allow_multiple_roots=True),
                       parse_conll(pred_path, allow_multiple_roots=True))
    if not pairs:
        raise ValueError("nothing to evaluate: give --gold/--pred or --domain")
    report = evaluate_domains(pairs, exclude)
    print(report.as_text())
    print(report.as_records())
    return 0


def _cmd_surgery_inspect(args: argparse.Namespace) -> int:
    source = load_checkpoint(args.source)
    target = load_checkpoint(args.target)
    names = sorted(set(source.params.names()) | set(target.params.names()))
    for name in names:
        if name not in target.params:
            status = "missing"
        elif name not in source.params:
            status = "new"
        else:
            a = source.params[name].data
            b = target.params[name].data
            status = "bitwise-equal" if a.shape == b.shape and np.array_equal(a, b) \
                else "changed"
        print(f"{name}\t{status}")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="stackptr",
                                  description="cross-domain pointer parser")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("train", help="train a parser from scratch")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--emb", help="pretrained word embedding text file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config value")
    p.set_defaults(handler=_cmd_train, outputs=lambda a: [a.out, a.out + ".repro"])

    p = sub.add_parser("finetune", help="transplant a checkpoint and fine-tune")
    p.add_argument("--source", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--retain", default="embeddings.,encoder.,decoder.")
    p.add_argument("--reinit", default="biaffine.")
    p.add_argument("--seed", type=_seed, help="surgery seed (default: config seed)")
    p.add_argument("--config", help="key=value config file over the source's config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(handler=_cmd_finetune, outputs=lambda a: [a.out, a.out + ".repro"])

    p = sub.add_parser("parse", help="annotate a CoNLL file with predicted arcs")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(handler=_cmd_parse,
                   outputs=lambda a: [a.output, a.output + ".repro"])

    p = sub.add_parser("eval", help="score predictions against gold trees")
    p.add_argument("--gold")
    p.add_argument("--pred")
    p.add_argument("--domain", action="append", metavar="NAME=GOLD,PRED")
    p.add_argument("--exclude-pos", dest="exclude_pos",
                   help="comma-separated POS tags to skip")
    p.set_defaults(handler=_cmd_eval, outputs=lambda a: [])

    p = sub.add_parser("surgery-inspect", help="diff two checkpoints tensor by tensor")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(handler=_cmd_surgery_inspect, outputs=lambda a: [])

    return top


def run(argv: list[str]) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except Exception as exc:
        for path in args.outputs(args):
            Path(path).unlink(missing_ok=True)
        _log(f"stackptr {args.verb}: error: {exc}")
        return 2 if isinstance(exc, ConfigError) else 1


def entry_point() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
