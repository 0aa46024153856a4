"""Parameter-transplant surgery and fine-tuning contracts."""

import numpy as np
import pytest

from stackptr import encoder as enc
from stackptr.checkpoint import as_stored
from stackptr.model import Parser
from stackptr.trainer import train
from stackptr.transfer import (
    SurgeryError,
    SurgeryPlan,
    extend_vocabs,
    finetune,
    transplant,
)
from stackptr.treebank import DependencyTree, Token

from synthetic import SOURCE_POOLS, TARGET_POOLS, corpus


@pytest.fixture(scope="module")
def source_ckpt(tiny_config):
    trees = corpus(seed=5, size=20, pools=SOURCE_POOLS)
    return train(tiny_config.replaced(max_epochs=1, batch_size=8),
                 trees[:14], trees[14:])


@pytest.fixture(scope="module")
def target_trees():
    return corpus(seed=6, size=12, pools=TARGET_POOLS)


@pytest.fixture(scope="module")
def grafted(source_ckpt, target_trees):
    return transplant(source_ckpt, target_trees, SurgeryPlan(), seed=99)


class TestSurgeryPlan:
    def test_default_plan_covers_model(self, source_ckpt):
        SurgeryPlan().validate(source_ckpt.params.names())

    def test_overlapping_prefixes_rejected(self):
        with pytest.raises(SurgeryError, match="both"):
            SurgeryPlan(retain_prefixes=frozenset({"encoder.", "biaffine."}),
                        reinit_prefixes=frozenset({"biaffine."}))

    def test_uncovered_name_rejected(self):
        plan = SurgeryPlan(retain_prefixes=frozenset({"encoder."}),
                           reinit_prefixes=frozenset({"biaffine."}))
        with pytest.raises(SurgeryError, match="incomplete surgery plan"):
            plan.validate(["encoder.lstm.fw.W_ih", "embeddings.word"])

    def test_doubly_matched_name_rejected(self):
        plan = SurgeryPlan(retain_prefixes=frozenset({"encoder."}),
                           reinit_prefixes=frozenset({"encoder.attn."}))
        with pytest.raises(SurgeryError, match="incomplete surgery plan"):
            plan.action("encoder.attn.Wm")

    def test_actions(self):
        plan = SurgeryPlan()
        assert plan.action("encoder.attn.Wm") == "retain"
        assert plan.action("biaffine.arc.U") == "reinit"


class TestExtendVocabs:
    def test_extension_appends_only(self, source_ckpt, target_trees):
        new = extend_vocabs(source_ckpt.vocabs, target_trees)
        for key, vocab in new.items():
            old = source_ckpt.vocabs[key]
            assert vocab.symbols[: len(old)] == old.symbols
            assert len(set(vocab.symbols)) == len(vocab.symbols)

    def test_all_target_symbols_present(self, source_ckpt, target_trees):
        new = extend_vocabs(source_ckpt.vocabs, target_trees)
        for tree in target_trees:
            for token in tree.tokens:
                assert token.form in new["word"]
                assert token.pos in new["pos"]
                for ch in token.form:
                    assert ch in new["char"]
            for label in tree.labels:
                assert label in new["label"]

    def test_new_symbols_frequency_ordered(self, source_ckpt):
        trees = [DependencyTree((Token("zz", "NN"), Token("aa", "VV"),
                                 Token("zz", "NN")),
                                (-1, 2, 0, 2), ("x", "y", "x"))]
        new = extend_vocabs(source_ckpt.vocabs, trees)
        old_n = len(source_ckpt.vocabs["word"])
        assert new["word"].symbols[old_n:] == ("zz", "aa")  # freq desc, then lex


class TestTransplant:
    def test_retained_tensors_bitwise(self, source_ckpt, grafted):
        plan = SurgeryPlan()
        for name, tensor in source_ckpt.params.items():
            if plan.action(name) != "retain":
                continue
            new = grafted.params[name].data
            if name.startswith("embeddings."):
                np.testing.assert_array_equal(new[: tensor.data.shape[0]], tensor.data)
            else:
                np.testing.assert_array_equal(new, tensor.data)

    def test_scoring_head_reinitialized(self, source_ckpt, grafted):
        changed = [name for name in source_ckpt.params.names()
                   if name.startswith("biaffine.")
                   and (grafted.params[name].data.shape
                        != source_ckpt.params[name].data.shape
                        or not np.array_equal(grafted.params[name].data,
                                              source_ckpt.params[name].data))]
        assert any(".U" in name or ".W" in name for name in changed)

    def test_embedding_rows_grow_by_new_symbol_count(self, source_ckpt, grafted,
                                                     target_trees):
        new_vocabs = extend_vocabs(source_ckpt.vocabs, target_trees)
        for tensor_name, key in (("embeddings.word", "word"),
                                 ("embeddings.char", "char"),
                                 ("embeddings.pos", "pos")):
            grew = len(new_vocabs[key]) - len(source_ckpt.vocabs[key])
            assert (grafted.params[tensor_name].data.shape[0]
                    == source_ckpt.params[tensor_name].data.shape[0] + grew)

    def test_single_new_word_adds_single_row(self, source_ckpt):
        # New form spelled with known characters: only the word table grows.
        vocabs = source_ckpt.vocabs
        form = vocabs["word"].symbols[3] + vocabs["word"].symbols[4]
        assert form not in vocabs["word"]
        assert all(c in vocabs["char"] for c in form)
        tree = DependencyTree((Token(form, vocabs["pos"].symbols[3]),),
                              (-1, 0), (vocabs["label"].symbols[0],))
        grafted = transplant(source_ckpt, [tree], SurgeryPlan(), seed=11)
        for name in ("embeddings.char", "embeddings.pos"):
            assert (grafted.params[name].data.shape
                    == source_ckpt.params[name].data.shape)
        assert (grafted.params["embeddings.word"].data.shape[0]
                == source_ckpt.params["embeddings.word"].data.shape[0] + 1)

    def test_label_head_resized_for_new_labels(self, source_ckpt, grafted,
                                               target_trees):
        new_vocabs = extend_vocabs(source_ckpt.vocabs, target_trees)
        assert (grafted.params["biaffine.label.U"].data.shape[0]
                == len(new_vocabs["label"]))

    def test_transplant_deterministic(self, source_ckpt, target_trees, grafted):
        again = transplant(source_ckpt, target_trees, SurgeryPlan(), seed=99)
        assert set(again.params.names()) == set(grafted.params.names())
        for name, tensor in grafted.params.items():
            np.testing.assert_array_equal(again.params[name].data, tensor.data)

    def test_encoder_states_identical_on_source_sentence(self, source_ckpt, grafted,
                                                         tiny_config):
        src_parser = Parser(tiny_config, source_ckpt.vocabs, source_ckpt.params)
        new_parser = Parser(tiny_config, grafted.vocabs, grafted.params)
        sent = corpus(seed=5, size=20, pools=SOURCE_POOLS)[0]
        a = enc.encode_batch([sent], src_parser.vocabs, src_parser.store, tiny_config)
        b = enc.encode_batch([sent], new_parser.vocabs, new_parser.store, tiny_config)
        np.testing.assert_array_equal(a.data, b.data)

    def test_provenance_chains(self, source_ckpt, grafted):
        assert grafted.provenance[: len(source_ckpt.provenance)] == source_ckpt.provenance
        assert any("surgery" in line for line in grafted.provenance)

    def test_empty_target_rejected(self, source_ckpt):
        with pytest.raises(SurgeryError, match="empty"):
            transplant(source_ckpt, [], SurgeryPlan(), seed=1)


class TestFinetune:
    def test_zero_epochs_is_identity_on_parameters(self, source_ckpt, target_trees,
                                                   tiny_config):
        grafted = transplant(source_ckpt, target_trees, SurgeryPlan(), seed=99)
        tuned = finetune(grafted, target_trees[:8], target_trees[8:],
                         tiny_config.replaced(max_epochs=0))
        # train returns parameters at the precision a checkpoint file holds.
        for name, tensor in grafted.params.items():
            np.testing.assert_array_equal(tuned.params[name].data, as_stored(tensor.data))

    def test_finetune_runs_and_extends_provenance(self, source_ckpt, target_trees,
                                                  tiny_config):
        grafted = transplant(source_ckpt, target_trees, SurgeryPlan(), seed=99)
        tuned = finetune(grafted, target_trees[:8], target_trees[8:],
                         tiny_config.replaced(max_epochs=1, batch_size=4))
        assert any("fine-tuned" in line for line in tuned.provenance)
        assert tuned.vocabs["word"].symbols == grafted.vocabs["word"].symbols
