"""Benchmark entry point.

    python3 benchmark/run.py --workload gate-finetune --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) against the package under ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, timed with tracing
off; with ``--trace 1`` the per-layer metrics of a separate traced run. The
last line of standard output is the JSON result; the lines before it are a
readable summary and the environment. Results and spans are written under
``.perfbench/`` in the checkout. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import layers
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
BLAS_THREADS = "1"
SETUP_SECONDS = 1.0  # set up again until this much time has passed ...
MIN_SETUPS = 5       # ... and at least this often; setup_s is the median
MIN_REPS = 3        # timed sessions per untraced run, whatever --seconds says
MIN_PAIRS = 2       # traced/untraced iteration pairs per traced run


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "stackptr" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'stackptr'}", file=sys.stderr)
        return 2
    # Fixed before numpy loads, so every run uses the same BLAS thread count.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.SPECS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.SPECS)}", file=sys.stderr)
        return 2
    spec = workloads.SPECS[args.workload]
    tag = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    session = workloads.Session(spec, args.seed, OUT / "work" / tag)
    session.clean()
    try:
        if args.trace:
            metrics, record = traced_run(session, args.seconds)
        else:
            metrics, record = untraced_run(session, args.seconds)
    finally:
        session.clean()

    env = environment()
    record.update(workload=spec.name, seed=args.seed, trace=args.trace,
                  environment=env, metrics=metrics)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    spans_record = record.pop("spans", None)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans_record is not None:
        (OUT / "results" / f"{tag}.spans.json").write_text(json.dumps(spans_record))

    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.4f} {unit}")
    print(f"error_rate {record['failed']}/{record['attempted']}; "
          f"digests {sorted(set(record['digests']))}; final_loss {record['final_loss']!r}")
    for failure in record["failures"][:20]:
        print(f"FAILED: {failure}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


class Tally:
    """Checked operations and their failures over a whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.final_losses: list[float] = []

    def check(self, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(why)

    def session(self, result) -> None:
        self.attempted += result.attempted
        self.failures += [f"{op}: {why}" for op, why in result.failures.items()]
        self.digests.append(result.digest)
        self.final_losses.append(result.final_loss)
        # Same code, same seed: every session must reproduce the first.
        self.check(result.digest == self.digests[0]
                   and repr(result.final_loss) == repr(self.final_losses[0]),
                   f"nondeterminism: final_loss {result.final_loss!r}, digest "
                   f"{result.digest[:12]} vs {self.final_losses[0]!r}, "
                   f"{self.digests[0][:12]}")

    def record(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures, "digests": self.digests,
                "final_loss": self.final_losses[0] if self.final_losses else None}


def untraced_run(session, seconds: float) -> tuple[dict, dict]:
    setup_s = []
    while len(setup_s) < MIN_SETUPS or sum(setup_s) < SETUP_SECONDS:
        began = perf_counter()
        session.setup()
        setup_s.append(perf_counter() - began)
    tally = Tally()
    tally.session(session.rep())            # warm-up, also the reference
    train_rates, parse_rates = [], []
    sessions = 0
    began = perf_counter()
    while sessions < MIN_REPS or perf_counter() - began < seconds:
        result = session.rep()
        tally.session(result)
        sessions += 1
        if result.train_tokens:              # zero when training raised
            train_rates.append(result.train_tokens / result.train_s)
        parse_rates += [result.parse_tokens / s for s in result.parse_s]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # A run whose every session failed reports 0 throughput (and correct: false).
    values = {
        "train_tok_s": statistics.median(train_rates) if train_rates else 0.0,
        "parse_tok_s": statistics.median(parse_rates) if parse_rates else 0.0,
        "final_loss": tally.final_losses[0],
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": statistics.median(setup_s),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    record = tally.record()
    record.update(sessions=sessions, setup_samples=setup_s,
                  train_tok_s_samples=train_rates, parse_tok_s_samples=parse_rates,
                  dev_las=result.las)
    return metrics, record


def traced_run(session, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced iterations (setup + session each); the
    per-layer metrics are medians over the traced ones."""
    def iteration(tracer=None):
        began = perf_counter_ns()
        if tracer is None:
            session.setup()
            result = session.rep()
        else:
            with tracer.span(layers.ROOT):
                session.setup()
                result = session.rep()
        return result, perf_counter_ns() - began

    tally = Tally()
    tally.session(iteration()[0])           # warm-up
    plain_ns, traced_ns, per_iteration = [], [], []
    span_log = []
    missing: list[str] = []
    began = perf_counter()
    while len(traced_ns) < MIN_PAIRS or perf_counter() - began < seconds:
        result, wall = iteration()
        tally.session(result)
        plain_ns.append(wall)

        tracer = spans.Tracer()
        patcher = spans.Patcher()
        try:
            missing = spans.install(tracer, patcher, layers.SPAN_TARGETS,
                                    layers.COUNT_TARGETS, layers.PACKAGE)
            result, wall = iteration(tracer)
        finally:
            patcher.restore()
        tally.session(result)
        traced_ns.append(wall)
        values, bad = layers.iteration_metrics(
            tracer.spans, tracer.names, tracer.counts["tensors"], wall,
            result.train_tokens,
            max(1, result.train_tokens + result.parse_tokens * len(result.parse_s)))
        unattributed = values["trace.unattributed_ms"]
        tally.check(not bad and abs(unattributed) < 0.01 * values["trace.wall_ms"],
                    f"self-time check: {bad} spans outside their parent, "
                    f"{unattributed:.3f} ms unattributed")
        expected_steps = session.greedy_steps()
        tally.check(values["decoder.steps"] == expected_steps,
                    f"decoder steps {values['decoder.steps']} != sum(2n+1) = {expected_steps}")
        values["checkpoint.bytes"] = result.ckpt_bytes
        values["dev_las"] = result.las
        per_iteration.append(values)
        span_log.append({"names": tracer.names, "spans": tracer.spans})

    record = tally.record()
    per_layer = {name: statistics.median(v[name] for v in per_iteration)
                 for name in per_iteration[0]}
    per_layer["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_ns) / statistics.median(plain_ns) - 1.0)
    per_layer["error_rate"] = len(record["failures"]) / record["attempted"]
    metrics = {name: (per_layer[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    record.update(iterations=len(traced_ns), untraced_ms=[t / 1e6 for t in plain_ns],
                  traced_ms=[t / 1e6 for t in traced_ns], missing_targets=missing,
                  per_iteration=per_iteration, spans=span_log)
    return metrics, record


END_TO_END_UNITS = {
    "train_tok_s": "tok/s", "parse_tok_s": "tok/s", "final_loss": "nats",
    "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER_UNITS = {
    "autodiff.backward_ms": "ms", "autodiff.adam_ms": "ms", "autodiff.clip_ms": "ms",
    "autodiff.tensors_per_tok": "count/tok", "autodiff.lstm_cell_calls": "count",
    "autodiff.self_ms": "ms",
    "encoder.embed_ms": "ms", "encoder.attn_ms": "ms", "encoder.bilstm_ms": "ms",
    "encoder.self_ms": "ms",
    "decoder.legality_ms": "ms", "decoder.biaffine_ms": "ms", "decoder.lstm_ms": "ms",
    "decoder.greedy_ms": "ms", "decoder.steps": "count", "decoder.self_ms": "ms",
    "model.loss_self_ms": "ms", "model.parse_self_ms": "ms", "model.self_ms": "ms",
    "trainer.forward_ms": "ms", "trainer.evaluate_ms": "ms", "trainer.batches": "count",
    "trainer.batch_tok_mean": "tok", "trainer.self_ms": "ms",
    "transfer.transplant_ms": "ms", "transfer.self_ms": "ms",
    "checkpoint.load_ms": "ms", "checkpoint.save_ms": "ms", "checkpoint.bytes": "B",
    "checkpoint.self_ms": "ms",
    "treebank.read_ms": "ms", "treebank.write_ms": "ms", "treebank.vocab_ms": "ms",
    "treebank.self_ms": "ms",
    "metrics.score_ms": "ms", "metrics.self_ms": "ms",
    "cli.self_ms": "ms",
    "trace.wall_ms": "ms", "trace.glue_ms": "ms", "trace.unattributed_ms": "ms",
    "trace.overhead_pct": "%", "trace.spans": "count",
    "dev_las": "%", "error_rate": "share",
}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "nproc": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def blas_threads(np) -> int | str:
    """Threads OpenBLAS reports, or the requested count if it cannot be asked."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"requested {BLAS_THREADS}"


def git_commit() -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
