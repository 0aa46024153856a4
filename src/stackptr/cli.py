"""Command-line interface: train / finetune / parse / eval / surgery-inspect.

Conventions: logs go to stderr, data to files or stdout. Exit status 0 means
the requested artifact was fully written; 1 is a runtime failure (partial
outputs are removed); 2 is a usage error: a config key or value that does
not parse or is out of range, or a fine-tune config that changes the
checkpoint's architecture. Every artifact-producing run writes a
`<out>.repro` record (config snapshot, seed, input digests, for `finetune`
the surgery's retain/reinit prefixes and seed, and the numeric environment:
numpy and BLAS versions, BLAS thread variables, CPU count) beside its output.
A failed run removes only the outputs it created or rewrote; files already
at those paths that it did not touch stay.
"""

from __future__ import annotations

import argparse
import hashlib
import os
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


def _read(path: str, name: str, digests: dict[str, str]) -> bytes:
    """The bytes of the input file at ``path``, their sha256 recorded in
    ``digests`` under ``name``: a run parses the very bytes its record names,
    read once."""
    data = Path(path).read_bytes()
    digests[name] = hashlib.sha256(data).hexdigest()
    return data


def _identity(path: str) -> tuple[int, int, int] | None:
    """(inode, mtime in ns, size) of the file at ``path``, or None if none."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_ino, st.st_mtime_ns, st.st_size


def _numeric_environment() -> list[str]:
    """What fixes the bits of a full-size run besides its inputs: the numpy
    and BLAS builds and the BLAS thread count (README, "Reproducibility")."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"
    except (TypeError, KeyError):       # numpy < 1.25 only prints its config
        blas_text = "unknown"
    lines = [f"numeric.numpy={np.__version__}", f"numeric.blas={blas_text}"]
    lines += [f"numeric.{var}={os.environ.get(var, '(unset)')}"
              for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]
    return lines + [f"numeric.cpu_count={os.cpu_count()}"]


def _write_repro(out: str, verb: str, config: TrainConfig | None,
                 digests: dict[str, str], surgery: dict[str, object] | None = None) -> None:
    lines = [f"verb={verb}"]
    if config is not None:
        lines += [f"config.{k}={v}" for k, v in config.to_flat().items()]
    lines += [f"surgery.{k}={v}" for k, v in (surgery or {}).items()]
    lines += [f"input.{name}={digest}" for name, digest in sorted(digests.items())]
    lines += _numeric_environment()
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
    digests: dict[str, str] = {}
    train_trees = parse_conll(_read(args.train, "train", digests))
    dev_trees = parse_conll(_read(args.dev, "dev", digests))
    emb = _read(args.emb, "emb", digests) if args.emb else None
    ckpt = train(config, train_trees, dev_trees, word_embeddings=emb, log=_log)
    save_checkpoint(ckpt, args.out)
    _write_repro(args.out, "train", config, digests)
    _log(f"wrote {args.out}")
    return 0


def _cmd_finetune(args: argparse.Namespace) -> int:
    digests: dict[str, str] = {}
    source = load_checkpoint(_read(args.source, "source", digests))
    config = _load_config(args, base=source.config)
    train_trees = parse_conll(_read(args.train, "train", digests))
    dev_trees = parse_conll(_read(args.dev, "dev", digests))
    plan = SurgeryPlan(
        retain_prefixes=frozenset(p for p in args.retain.split(",") if p),
        reinit_prefixes=frozenset(p for p in args.reinit.split(",") if p),
    )
    seed = args.seed if args.seed is not None else config.seed
    grafted = transplant(source, train_trees, plan, seed)
    ckpt = finetune(grafted, train_trees, dev_trees, config, log=_log)
    save_checkpoint(ckpt, args.out)
    _write_repro(args.out, "finetune", config, digests,
                 {"retain": args.retain, "reinit": args.reinit, "seed": seed})
    _log(f"wrote {args.out}")
    return 0


def _cmd_parse(args: argparse.Namespace) -> int:
    digests: dict[str, str] = {}
    ckpt = load_checkpoint(_read(args.model, "model", digests))
    parser = Parser(ckpt.config, ckpt.vocabs, ckpt.params)
    blocks = parse_conll_blocks(_read(args.input, "input", digests))
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
    _write_repro(args.output, "parse", ckpt.config, digests)
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
        if name in pairs:
            raise ValueError(f"domain {name!r} given twice")
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


_arg_parser: argparse.ArgumentParser | None = None     # built by the first run()


def run(argv: list[str]) -> int:
    global _arg_parser
    if _arg_parser is None:
        _arg_parser = build_arg_parser()
    try:
        args = _arg_parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    before = {path: _identity(path) for path in args.outputs(args)}
    try:
        return args.handler(args)
    except Exception as exc:
        for path, identity in before.items():
            if _identity(path) != identity:     # created or rewritten by this run
                Path(path).unlink(missing_ok=True)
        _log(f"stackptr {args.verb}: error: {exc}")
        return 2 if isinstance(exc, ConfigError) else 1


def entry_point() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
