"""Which program functions the traced run wraps, and the per-layer metrics
computed from one traced iteration's spans.

Layers are the package's modules. Each ``*_ms`` metric is the time covered
by the named spans in one iteration (setup + session), nested ones counted
once; ``*.self_ms`` is the layer's total self time. The per-layer self
times, the benchmark's own glue and ``trace.unattributed_ms`` add up to the
iteration's wall time.
"""

from __future__ import annotations

import spans

PACKAGE = "stackptr"
ROOT = "bench.iteration"
LAYERS = ("autodiff", "encoder", "decoder", "model", "trainer", "transfer",
          "checkpoint", "treebank", "metrics", "cli")

SPAN_TARGETS = [
    "stackptr.autodiff.Tensor.backward",
    "stackptr.autodiff.adam_step",
    "stackptr.autodiff.clip_gradients",
    "stackptr.autodiff.lstm_cell",
    "stackptr.encoder.encode_sentence",
    "stackptr.encoder.embed_tokens",
    "stackptr.encoder.multi_head_self_attention",
    "stackptr.encoder.bilstm_encode",
    "stackptr.decoder.path_log_likelihood",
    "stackptr.decoder.decode_greedy",
    "stackptr.decoder.legal_mask",
    "stackptr.decoder.step",
    "stackptr.decoder.biaffine_score",
    "stackptr.model.Parser.sentence_loss",
    "stackptr.model.Parser.parse",
    "stackptr.model.create_parameters",
    "stackptr.trainer.train",
    "stackptr.trainer.compute_loss",
    "stackptr.trainer.evaluate",
    "stackptr.transfer.transplant",
    "stackptr.transfer.finetune",
    "stackptr.checkpoint.load_checkpoint",
    "stackptr.checkpoint.save_checkpoint",
    "stackptr.treebank.parse_conll",
    "stackptr.treebank.parse_conll_blocks",
    "stackptr.treebank.write_conll",
    "stackptr.treebank.build_vocabulary",
    "stackptr.metrics.attachment_scores",
    "stackptr.cli.run",
]
COUNT_TARGETS = {"stackptr.autodiff.Tensor.__init__": "tensors"}

DECODER_SEARCH = {"decoder.path_log_likelihood", "decoder.decode_greedy"}

# metric -> (span names whose covered time it is, required direct parents)
COVERED_MS = {
    "autodiff.backward_ms": ({"autodiff.Tensor.backward"}, None),
    "autodiff.adam_ms": ({"autodiff.adam_step"}, None),
    "autodiff.clip_ms": ({"autodiff.clip_gradients"}, None),
    "encoder.embed_ms": ({"encoder.embed_tokens"}, None),
    "encoder.attn_ms": ({"encoder.multi_head_self_attention"}, None),
    "encoder.bilstm_ms": ({"encoder.bilstm_encode"}, None),
    "decoder.legality_ms": ({"decoder.legal_mask", "decoder.step"}, None),
    "decoder.biaffine_ms": ({"decoder.biaffine_score"}, None),
    "decoder.lstm_ms": ({"autodiff.lstm_cell"}, DECODER_SEARCH),
    "decoder.greedy_ms": ({"decoder.decode_greedy"}, None),
    "trainer.forward_ms": ({"trainer.compute_loss"}, None),
    "trainer.evaluate_ms": ({"trainer.evaluate"}, None),
    "transfer.transplant_ms": ({"transfer.transplant"}, None),
    "checkpoint.load_ms": ({"checkpoint.load_checkpoint"}, None),
    "checkpoint.save_ms": ({"checkpoint.save_checkpoint"}, None),
    "treebank.read_ms": ({"treebank.parse_conll", "treebank.parse_conll_blocks"}, None),
    "treebank.write_ms": ({"treebank.write_conll"}, None),
    "treebank.vocab_ms": ({"treebank.build_vocabulary"}, None),
    "metrics.score_ms": ({"metrics.attachment_scores"}, None),
}
SELF_MS = {
    "model.loss_self_ms": "model.Parser.sentence_loss",
    "model.parse_self_ms": "model.Parser.parse",
}


def iteration_metrics(spans_: list, names: list[str], tensors: int,
                      wall_ns: int, train_tokens: int, session_tokens: int
                      ) -> tuple[dict[str, float], int]:
    """Per-layer metrics of one traced iteration, and how many of its spans
    are badly nested (a failed self-time check when nonzero)."""
    ms = 1e-6
    out: dict[str, float] = {}
    for metric, (wanted, under) in COVERED_MS.items():
        out[metric] = spans.covered_time(spans_, names, wanted, under) * ms
    own = spans.self_times(spans_)
    for metric, span_name in SELF_MS.items():
        out[metric] = sum(t for (nid, *_), t in zip(spans_, own)
                          if names[nid] == span_name) * ms
    layer_ns, glue_ns = spans.layer_self_times(spans_, names, {ROOT})
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = layer_ns.get(layer, 0) * ms
    batches = spans.count_spans(spans_, names, "trainer.compute_loss", under="trainer.train")
    out["autodiff.tensors_per_tok"] = tensors / session_tokens
    out["autodiff.lstm_cell_calls"] = spans.count_spans(spans_, names, "autodiff.lstm_cell")
    out["decoder.steps"] = spans.count_spans(spans_, names, "decoder.step",
                                             under="decoder.decode_greedy")
    out["trainer.batches"] = batches
    out["trainer.batch_tok_mean"] = train_tokens / batches if batches else 0.0
    out["trace.wall_ms"] = wall_ns * ms
    out["trace.glue_ms"] = glue_ns * ms
    out["trace.unattributed_ms"] = (wall_ns - glue_ns - sum(layer_ns.values())) * ms
    out["trace.spans"] = len(spans_)
    return out, spans.nesting_errors(spans_)
