"""Checkpoint file format: round trips, corruption detection."""

import numpy as np
import pytest

from stackptr.autodiff import ParameterStore
from stackptr.checkpoint import (
    Checkpoint,
    CheckpointError,
    FORMAT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from stackptr.config import TrainConfig
from stackptr.treebank import RESERVED, Vocabulary


@pytest.fixture
def small_ckpt():
    store = ParameterStore(rng_seed=7)
    store.create("embeddings.word", (4, 3), init="embedding")
    store.create("encoder.lstm.fw.W_ih", (8, 3), init="glorot")
    store.create("decoder.lstm.b", (8,), init="zeros")
    store.create("biaffine.arc.b", (), init="zeros")
    vocabs = {
        "word": Vocabulary(RESERVED + ("猫",)),
        "char": Vocabulary(RESERVED + ("猫",)),
        "pos": Vocabulary(RESERVED + ("NN",)),
        "label": Vocabulary(("root", "nsubj"), reserved=False),
    }
    return Checkpoint(params=store, vocabs=vocabs,
                      config=TrainConfig(d_w=6, num_filters=3, pos_dim=3, r=3),
                      provenance=["unit fixture"])


class TestRoundTrip:
    def test_load_save_byte_identical(self, small_ckpt, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(small_ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_survive_at_float32_precision(self, small_ckpt, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(small_ckpt, path)
        loaded = load_checkpoint(path)
        for name, tensor in small_ckpt.params.items():
            got = loaded.params[name].data
            assert got.shape == tensor.data.shape
            np.testing.assert_array_equal(got, tensor.data.astype("<f4").astype(np.float64))

    def test_scalar_tensor_round_trips(self, small_ckpt, tmp_path):
        path = tmp_path / "s.ckpt"
        small_ckpt.params["biaffine.arc.b"].data[()] = 2.5
        save_checkpoint(small_ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.params["biaffine.arc.b"].data.shape == ()
        assert float(loaded.params["biaffine.arc.b"].data) == 2.5

    def test_metadata_round_trips(self, small_ckpt, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(small_ckpt.with_note("second line"), path)
        loaded = load_checkpoint(path)
        assert loaded.config == small_ckpt.config
        assert loaded.provenance == ["unit fixture", "second line"]
        assert loaded.params.rng_seed == 7
        assert loaded.vocabs["word"].symbols == RESERVED + ("猫",)
        assert loaded.vocabs["label"].symbols == ("root", "nsubj")
        assert not loaded.vocabs["label"].reserved

    def test_vocab_reserved_semantics_restored(self, small_ckpt, tmp_path):
        path = tmp_path / "v.ckpt"
        save_checkpoint(small_ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.vocabs["word"].index("missing") == 1  # UNK fallback
        with pytest.raises(Exception):
            loaded.vocabs["label"].index("missing")

    def test_newline_in_provenance_flattened(self, small_ckpt, tmp_path):
        path = tmp_path / "n.ckpt"
        save_checkpoint(small_ckpt.with_note("two\nlines"), path)
        assert "two lines" in load_checkpoint(path).provenance


class TestValidation:
    def test_wrong_version_rejected(self, small_ckpt, tmp_path):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(small_ckpt, path)
        data = path.read_bytes().replace(FORMAT_VERSION.encode(), b"stackptr-ckpt/9", 1)
        path.write_bytes(data)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_foreign_parameter_namespace_rejected(self, small_ckpt, tmp_path):
        small_ckpt.params.create("optimizer.m", (2,), init="zeros")
        with pytest.raises(CheckpointError, match="namespace"):
            save_checkpoint(small_ckpt, tmp_path / "x.ckpt")

    def test_truncated_file(self, small_ckpt, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(small_ckpt, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_blob_cut_short_names_the_tensor(self, small_ckpt, tmp_path):
        path = tmp_path / "short.ckpt"
        save_checkpoint(small_ckpt, path)
        path.write_bytes(path.read_bytes()[:-10])
        # The last tensor, a scalar, loses all 4 of its bytes; the one
        # before it loses 6 of its 32.
        with pytest.raises(CheckpointError, match="decoder.lstm.b"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, small_ckpt, tmp_path):
        path = tmp_path / "long.ckpt"
        save_checkpoint(small_ckpt, path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(CheckpointError, match="8 trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [b"\t8,-3\t", b"\t8,x\t"])
    def test_bad_tensor_shape_names_the_tensor(self, small_ckpt, tmp_path, bad):
        path = tmp_path / "shape.ckpt"
        save_checkpoint(small_ckpt, path)
        path.write_bytes(path.read_bytes().replace(b"\t8,3\t", bad, 1))
        with pytest.raises(CheckpointError, match="encoder.lstm.fw.W_ih"):
            load_checkpoint(path)

    def test_missing_section_header(self, tmp_path):
        path = tmp_path / "g.ckpt"
        path.write_bytes(f"{FORMAT_VERSION}\n[garbage 0]\n".encode())
        with pytest.raises(CheckpointError, match="config"):
            load_checkpoint(path)

    def test_malformed_section_count(self, tmp_path):
        path = tmp_path / "h.ckpt"
        path.write_bytes(f"{FORMAT_VERSION}\n[config many]\n".encode())
        with pytest.raises(CheckpointError, match="count"):
            load_checkpoint(path)

    def test_vocab_symbol_resembling_header_is_fine(self, small_ckpt, tmp_path):
        # Counts drive the parse, so a symbol like "[tensors 3]" is data.
        small_ckpt.vocabs["word"] = Vocabulary(RESERVED + ("[tensors 3]",))
        path = tmp_path / "w.ckpt"
        save_checkpoint(small_ckpt, path)
        assert load_checkpoint(path).vocabs["word"].symbols[-1] == "[tensors 3]"
