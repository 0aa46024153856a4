import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackptr.autodiff import Rng
from stackptr.treebank import (
    RESERVED,
    UNK,
    DependencyTree,
    Token,
    TreebankError,
    Vocabulary,
    build_vocabulary,
    load_pretrained_embeddings,
    make_tree,
    parse_conll,
    parse_conll_blocks,
    validate_tree,
    write_conll,
)

TWO_TOKEN = (
    "1\t猫\t_\tNN\tNN\t_\t2\tnsubj\t_\t_\n"
    "2\t睡\t_\tVV\tVV\t_\t0\troot\t_\t_\n"
)


def _tree(heads, labels=None, pos="NN"):
    n = len(heads) - 1
    tokens = [Token(form=f"w{i}", pos=pos) for i in range(1, n + 1)]
    return make_tree(tokens, heads, labels or ["dep"] * n, allow_multiple_roots=True)


class TestParseConll:
    def test_empty_input(self):
        assert parse_conll(io.StringIO("")) == []

    def test_two_token_fixture(self):
        trees = parse_conll(io.StringIO(TWO_TOKEN))
        assert len(trees) == 1
        t = trees[0]
        assert t.heads == (-1, 2, 0)
        assert t.labels == ("nsubj", "root")
        assert [tok.form for tok in t.tokens] == ["猫", "睡"]
        assert [tok.pos for tok in t.tokens] == ["NN", "VV"]

    def test_cpos_fallback_to_pos_column(self):
        text = "1\t睡\t_\t_\tVV\t_\t0\troot\t_\t_\n"
        assert parse_conll(io.StringIO(text))[0].tokens[0].pos == "VV"

    def test_non_integer_head_names_line(self):
        bad = TWO_TOKEN.replace("\t0\troot", "\tx\troot")
        with pytest.raises(TreebankError, match="line 2"):
            parse_conll(io.StringIO(bad))

    @pytest.mark.parametrize("field, text", [
        ("token id", "0_2"), ("token id", "+2"), ("token id", " 2"), ("token id", "2 "),
        ("token id", "\u0662"), ("token id", "\uff12"),
        ("head", "\u0661"), ("head", "+0"), ("head", " 0"), ("head", "-0"), ("head", "0_0"),
    ])
    def test_id_and_head_take_ascii_digits_only(self, field, text):
        # ``int`` takes all of these; the second row is token 2 with head 0.
        row = TWO_TOKEN.splitlines()[1].split("\t")
        row[0 if field == "token id" else 6] = text
        bad = TWO_TOKEN.splitlines()[0] + "\n" + "\t".join(row) + "\n"
        with pytest.raises(TreebankError, match=re.escape(f"line 2: non-integer {field} {text!r}")):
            parse_conll(io.StringIO(bad))

    def test_wrong_column_count_names_line(self):
        with pytest.raises(TreebankError, match="line 1.*fields"):
            parse_conll(io.StringIO("1\t猫\tNN\n"))

    def test_out_of_order_ids(self):
        bad = TWO_TOKEN.replace("2\t睡", "3\t睡")
        with pytest.raises(TreebankError, match="out of order"):
            parse_conll(io.StringIO(bad))

    def test_comments_and_crlf(self):
        text = "# a comment\r\n" + TWO_TOKEN.replace("\n", "\r\n") + "\r\n"
        assert parse_conll(io.StringIO(text))[0].heads == (-1, 2, 0)

    def test_head_out_of_range(self):
        bad = TWO_TOKEN.replace("\t2\tnsubj", "\t9\tnsubj")
        with pytest.raises(TreebankError, match="out-of-range head"):
            parse_conll(io.StringIO(bad))

    def test_cycle_rejected(self):
        text = (
            "1\ta\t_\tNN\tNN\t_\t2\tdep\t_\t_\n"
            "2\tb\t_\tNN\tNN\t_\t1\tdep\t_\t_\n"
            "3\tc\t_\tVV\tVV\t_\t0\troot\t_\t_\n"
        )
        with pytest.raises(TreebankError, match="cycle"):
            parse_conll(io.StringIO(text))

    def test_multiple_roots_rejected_by_default(self):
        text = (
            "1\ta\t_\tVV\tVV\t_\t0\troot\t_\t_\n"
            "2\tb\t_\tVV\tVV\t_\t0\troot\t_\t_\n"
        )
        with pytest.raises(TreebankError, match="attach to ROOT"):
            parse_conll(io.StringIO(text))
        trees = parse_conll(io.StringIO(text), allow_multiple_roots=True)
        assert trees[0].heads == (-1, 0, 0)

    def test_headless_rows_via_blocks(self):
        text = "1\t猫\t_\tNN\tNN\t_\t_\t_\t_\t_\n"
        (sent, rows), = parse_conll_blocks(io.StringIO(text))
        assert sent.tokens[0].form == "猫"
        assert rows[0][6] == "_"
        with pytest.raises(TreebankError):
            parse_conll(io.StringIO(text))

    @pytest.mark.parametrize("column, cpos, message", [
        (1, "NN", "empty FORM field"),
        (3, "", "empty CPOSTAG field"),
        (4, "_", "empty POSTAG field (CPOSTAG is '_')"),
        (7, "VV", "empty DEPREL field"),
    ], ids=["FORM", "CPOSTAG", "POSTAG", "DEPREL"])
    @pytest.mark.parametrize("read", [parse_conll, parse_conll_blocks])
    def test_an_empty_field_that_reaches_a_vocabulary_names_line(self, read, column, cpos,
                                                                  message):
        # FORM feeds the word and char vocabularies, CPOSTAG (or POSTAG
        # under a '_' CPOSTAG) the POS one, DEPREL the labels; an empty one
        # would become the symbol ''. The block reader leaves DEPREL alone.
        row = TWO_TOKEN.splitlines()[1].split("\t")
        row[3] = cpos
        row[column] = ""
        text = TWO_TOKEN.splitlines()[0] + "\n" + "\t".join(row) + "\n"
        if read is parse_conll_blocks and column == 7:
            assert read(io.StringIO(text))[0][1][1][7] == ""
            return
        with pytest.raises(TreebankError, match=re.escape(f"line 2: {message}")):
            read(io.StringIO(text))

    def test_a_files_bytes_parse_as_the_file(self, tmp_path):
        path = tmp_path / "two.conllx"
        path.write_bytes(TWO_TOKEN.encode())
        assert parse_conll(path.read_bytes()) == parse_conll(path)
        assert parse_conll_blocks(path.read_bytes()) == parse_conll_blocks(path)

    @pytest.mark.parametrize("read", [parse_conll, parse_conll_blocks])
    def test_non_utf8_file_names_line(self, tmp_path, read):
        path = tmp_path / "latin1.conllx"
        latin1 = TWO_TOKEN.replace("睡", "café").replace("猫", "chat").encode("latin-1")
        path.write_bytes(TWO_TOKEN.encode() + b"\n" + latin1)
        with pytest.raises(TreebankError, match="line 5: invalid UTF-8 byte 0xe9"):
            read(path)


class TestTreeValidation:
    def test_self_head(self):
        with pytest.raises(TreebankError, match="own head"):
            validate_tree([-1, 1])

    def test_no_root_child(self):
        with pytest.raises(TreebankError, match="no token attaches"):
            validate_tree([-1, 2, 1], allow_multiple_roots=True)


class TestWriteConll:
    def test_empty(self):
        buf = io.StringIO()
        write_conll([], buf)
        assert buf.getvalue() == ""

    def test_round_trip_fixture(self):
        trees = parse_conll(io.StringIO(TWO_TOKEN))
        buf = io.StringIO()
        write_conll(trees, buf)
        again = parse_conll(io.StringIO(buf.getvalue()))
        assert again == trees

    def test_ill_formed_tree_rejected(self):
        with pytest.raises(TreebankError):
            _tree([-1, 1, 1])  # token 1 its own head


def random_valid_tree(rng: Rng, n: int) -> DependencyTree:
    """Uniformish random tree by rejection sampling over head vectors."""
    pool = "abc猫狗#xyz"
    while True:
        heads = [-1] + [rng.integers(0, n + 1) for _ in range(n)]
        try:
            validate_tree(heads, allow_multiple_roots=True)
        except TreebankError:
            continue
        tokens = [
            Token(form=pool[rng.integers(0, len(pool))] * rng.integers(1, 4),
                  pos=f"P{rng.integers(0, 3)}")
            for _ in range(n)
        ]
        labels = [f"l{rng.integers(0, 4)}" for _ in range(n)]
        return DependencyTree(tuple(tokens), tuple(heads), tuple(labels))


@given(st.integers(0, 10_000), st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_round_trip_random_trees(seed, n):
    tree = random_valid_tree(Rng(seed).split("fuzz"), n)
    buf = io.StringIO()
    write_conll([tree], buf)
    assert parse_conll(io.StringIO(buf.getvalue()), allow_multiple_roots=True) == [tree]


_FIELD = st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
                 max_size=4)


@st.composite
def ten_column_text(draw):
    """CoNLL-shaped text: blank-line separated blocks of 10-column rows whose
    ID, FORM and HEAD columns are mostly, but not always, plausible."""
    def mostly(plausible):
        return plausible if draw(st.sampled_from(range(20))) else draw(_FIELD)

    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(1, 5))
        rows = []
        for i in range(1, n + 1):
            fields = [draw(_FIELD) for _ in range(10)]
            fields[0] = mostly(str(i))
            fields[1] = mostly(fields[1] or "w")
            fields[6] = mostly(str(draw(st.integers(0, n))))
            rows.append("\t".join(fields))
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks)


@given(ten_column_text(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_random_ten_column_text_parses_or_raises_treebank_error(text, multi_root):
    try:
        trees = parse_conll(io.StringIO(text), allow_multiple_roots=multi_root)
    except TreebankError:
        return
    buf = io.StringIO()
    write_conll(trees, buf)
    assert parse_conll(io.StringIO(buf.getvalue()), allow_multiple_roots=True) == trees


@given(ten_column_text(), st.integers(0, 10_000), st.binary(min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_random_bytes_in_a_file_parse_or_raise_treebank_error(tmp_path_factory, text, at,
                                                               inserted):
    data = text.encode()
    at %= len(data) + 1
    path = tmp_path_factory.getbasetemp() / "fuzz.conllx"
    path.write_bytes(data[:at] + inserted + data[at:])
    for read in (parse_conll, parse_conll_blocks):
        try:
            read(path)
        except TreebankError:
            pass


class TestVocabulary:
    def test_reserved_block(self):
        vocabs = build_vocabulary([])
        for key in ("word", "char", "pos"):
            assert vocabs[key].symbols == RESERVED
        assert len(vocabs["label"]) == 0

    def test_min_word_count(self):
        trees = parse_conll(io.StringIO(TWO_TOKEN)) * 2 + [
            _tree([-1, 0], labels=["root"])
        ]
        vocab = build_vocabulary(trees, min_word_count=2)["word"]
        assert "猫" in vocab and "睡" in vocab
        assert "w1" not in vocab
        assert vocab.index("w1") == UNK

    def test_frequency_then_lexicographic_order(self):
        trees = [
            make_tree([Token("b", "X"), Token("a", "X"), Token("c", "Y")],
                      [-1, 2, 0, 2], ["d", "root", "d"]),
            make_tree([Token("c", "Y")], [-1, 0], ["root"]),
        ]
        vocab = build_vocabulary(trees, min_word_count=1)["word"]
        # c occurs twice; a/b once each, tie broken lexicographically.
        assert vocab.symbols[3:] == ("c", "a", "b")

    def test_label_vocab_unreserved_and_strict(self):
        trees = parse_conll(io.StringIO(TWO_TOKEN))
        labels = build_vocabulary(trees, min_word_count=1)["label"]
        assert set(labels.symbols) == {"nsubj", "root"}
        with pytest.raises(TreebankError, match="unknown label"):
            labels.index("iobj")

    def test_determinism(self):
        trees = parse_conll(io.StringIO(TWO_TOKEN))
        assert build_vocabulary(trees) == build_vocabulary(trees)

    def test_reserved_symbols_keep_their_ids(self):
        trees = [make_tree([Token("<UNK>", "<PAD>"), Token("<ROOT>", "VV")],
                           [-1, 2, 0], ["nsubj", "root"])]
        vocabs = build_vocabulary(trees, min_word_count=1)
        assert vocabs["word"].symbols == RESERVED
        assert vocabs["pos"].symbols == RESERVED + ("VV",)
        assert vocabs["pos"].index("<PAD>") == 0

    def test_duplicate_symbol_named(self):
        with pytest.raises(TreebankError, match="duplicate symbol '猫'"):
            Vocabulary(RESERVED + ("猫", "睡", "猫"))

    def test_extended_with_appends_only(self):
        trees = parse_conll(io.StringIO(TWO_TOKEN))
        vocab = build_vocabulary(trees, min_word_count=1)["word"]
        bigger = vocab.extended_with(["猫", "新词"])
        assert bigger.symbols[: len(vocab)] == vocab.symbols
        assert bigger.index("新词") == len(vocab)

    def test_ids_are_bijective(self):
        trees = parse_conll(io.StringIO(TWO_TOKEN))
        for vocab in build_vocabulary(trees, min_word_count=1).values():
            assert len(set(vocab.symbols)) == len(vocab)
            for i, s in enumerate(vocab.symbols):
                assert vocab.index(s) == i


class TestPretrainedEmbeddings:
    def _vocab(self):
        return Vocabulary(RESERVED + ("猫", "睡"))

    def test_rows_from_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("猫 1.0 2.0 3.0\n睡 -1.0 0.0 0.5\n", encoding="utf-8")
        table = load_pretrained_embeddings(path, self._vocab(), 3, Rng(0))
        np.testing.assert_array_equal(table[3], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(table[4], [-1.0, 0.0, 0.5])

    def test_missing_word_gets_small_random_row(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("睡 1.0 1.0 1.0\n", encoding="utf-8")
        table = load_pretrained_embeddings(path, self._vocab(), 3, Rng(0))
        assert np.max(np.abs(table[3])) <= 0.05

    def test_header_line_tolerated(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\n猫 1.0 2.0 3.0\n", encoding="utf-8")
        table = load_pretrained_embeddings(path, self._vocab(), 3, Rng(0))
        np.testing.assert_array_equal(table[3], [1.0, 2.0, 3.0])

    def test_two_field_first_line_is_a_vector_when_not_integers(self, tmp_path):
        # With d_w = 1 a vector line has two fields, like the "count dim" header.
        path = tmp_path / "emb.txt"
        path.write_text("猫 0.25\n睡 -0.5\n", encoding="utf-8")
        table = load_pretrained_embeddings(path, self._vocab(), 1, Rng(0))
        np.testing.assert_array_equal(table[3:], [[0.25], [-0.5]])

    def test_malformed_two_field_first_line_is_an_error(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("猫 1.0\n睡 1.0 2.0 3.0\n", encoding="utf-8")
        with pytest.raises(TreebankError, match="line 1: expected 4 fields, got 2"):
            load_pretrained_embeddings(path, self._vocab(), 3, Rng(0))

    def test_wrong_field_count_is_an_error(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("猫 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(TreebankError, match="line 1"):
            load_pretrained_embeddings(path, self._vocab(), 3, Rng(0))

    def test_any_whitespace_separates_fields(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("猫 1.0 2.0 3.0 \n\n睡\t-1.0  0.0\t0.5\r\n", encoding="utf-8")
        table = load_pretrained_embeddings(path, self._vocab(), 3, Rng(0))
        np.testing.assert_array_equal(table[3], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(table[4], [-1.0, 0.0, 0.5])

    @pytest.mark.parametrize("values, message", [
        ("1.0 x 3.0", "could not convert string to float: 'x'"),
        ("1.0 nan 3.0", "non-finite value"),
        ("-inf 2.0 3.0", "non-finite value"),
    ])
    def test_bad_value_names_the_line(self, tmp_path, values, message):
        path = tmp_path / "emb.txt"
        path.write_text(f"睡 1.0 1.0 1.0\n猫 {values}\n", encoding="utf-8")
        with pytest.raises(TreebankError, match="line 2") as err:
            load_pretrained_embeddings(path, self._vocab(), 3, Rng(0))
        assert message in str(err.value)

    def test_non_utf8_byte_names_the_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes("睡 1.0 1.0 1.0\n".encode() + b"\xff 1.0 1.0 1.0\n")
        with pytest.raises(TreebankError, match="line 2: invalid UTF-8 byte 0xff"):
            load_pretrained_embeddings(path, self._vocab(), 3, Rng(0))


@st.composite
def embedding_bytes(draw):
    """Embedding-file text from vocabulary and other words, numbers and
    junk, with a few random bytes inserted."""
    words = st.sampled_from(["猫", "睡", "<UNK>", "x", "2"])
    values = st.one_of(st.floats().map(repr), st.sampled_from(["1", "-0.5", "x", ""]))
    lines = draw(st.lists(st.builds(lambda w, vs, sep: sep.join([w, *vs]), words,
                                    st.lists(values, max_size=4),
                                    st.sampled_from([" ", "\t", "  "])), max_size=5))
    data = "\n".join(lines).encode()
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.binary(max_size=3)) + data[at:]


@given(embedding_bytes())
@settings(max_examples=300, deadline=None)
def test_random_embedding_bytes_load_or_raise_treebank_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.emb"
    path.write_bytes(data)
    try:
        table = load_pretrained_embeddings(path, Vocabulary(RESERVED + ("猫", "睡")), 3, Rng(0))
    except TreebankError:
        return
    assert table.shape == (5, 3) and np.isfinite(table).all()
